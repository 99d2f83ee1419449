"""Linearized single-source SimRank engine (paper eq. 8 / Algorithm 1).

Given the diagonal correction matrix estimate ``D̂``, the single-source
result is::

    S·e_i = 1/(1-√c) Σ_{ℓ=0}^{L} (√c Pᵀ)^ℓ D̂ π_i^ℓ,     π_i^ℓ = (1-√c)(√c P)^ℓ e_i

computed as a *forward* phase (the ℓ-hop PPR vectors, Algorithm 1 lines 2-5)
and a *backward* phase (lines 9-13).  Setting ``L = ⌈log_{1/c}(2/ε)⌉`` bounds
the truncation error by ``c^L <= ε/2``.

The forward vectors are what costs memory (``O(n log 1/ε)`` dense); the
*sparse* mode drops entries ``<= (1-√c)²ε`` after each hop (Lemma 2), bounding
storage by ``O(1/ε)`` at an extra ``ε`` additive error.  ``ForwardResult``
carries exact stored-entry accounting for the Table-3 reproduction.

Both phases are driver-side numpy mat-vecs from ``linalg.matvec``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graphs.graph import CSRGraph
from repro.linalg import matvec as mv


def iterations_for(eps: float, c: float) -> int:
    """``L = ⌈log_{1/c}(2/ε)⌉`` — truncation error ``c^L <= ε/2``."""
    return max(1, math.ceil(math.log(2.0 / eps) / math.log(1.0 / c)))


def sparse_threshold(eps: float, c: float) -> float:
    """Lemma 2 truncation threshold ``(1-√c)² ε`` for the ℓ-hop PPR entries."""
    return (1.0 - math.sqrt(c)) ** 2 * eps


@dataclass
class ForwardResult:
    """ℓ-hop PPR vectors of the source plus space accounting."""

    pis: List[np.ndarray]  # π_i^ℓ for ℓ = 0..L (dense arrays, possibly truncated)
    pi: np.ndarray  # Σ_ℓ π_i^ℓ — the PPR vector of the source
    stored_entries: int  # Σ_ℓ nnz(π_i^ℓ) after truncation
    threshold: float  # the truncation threshold applied (0.0 = dense mode)

    @property
    def L(self) -> int:
        return len(self.pis) - 1

    def dense_bytes(self) -> int:
        """Basic-ExactSim footprint: (L+1) dense double vectors."""
        return (self.L + 1) * self.pis[0].shape[0] * 8

    def sparse_bytes(self) -> int:
        """Optimized footprint: stored (index, value) pairs only."""
        return self.stored_entries * 16


def forward(
    csr: CSRGraph,
    source: int,
    *,
    c: float,
    L: int,
    threshold: float = 0.0,
) -> ForwardResult:
    """Compute ``π_i^ℓ`` for ℓ = 0..L.

    ``threshold > 0`` applies the Lemma-2 sparsification after every hop:
    entries ``<= threshold`` are zeroed *before* being stored or propagated,
    which is what bounds both the space and the downstream work.
    """
    sqrt_c = math.sqrt(c)
    pi0 = np.zeros(csr.n)
    pi0[source] = 1.0 - sqrt_c
    pis = [pi0]
    stored = 1
    cur = pi0
    for _ in range(L):
        cur = sqrt_c * mv.matvec_P(csr, cur)
        if threshold > 0.0:
            cur = np.where(cur > threshold, cur, 0.0)
        pis.append(cur)
        stored += int(np.count_nonzero(cur))
    pi = np.sum(pis, axis=0)
    return ForwardResult(pis=pis, pi=pi, stored_entries=stored, threshold=threshold)


def backward(
    csr: CSRGraph,
    fwd: ForwardResult,
    d_hat: np.ndarray,
    *,
    c: float,
) -> np.ndarray:
    """Accumulate ``s^L`` from the stored ℓ-hop PPR vectors."""
    sqrt_c = math.sqrt(c)
    scale = 1.0 / (1.0 - sqrt_c)
    s = scale * d_hat * fwd.pis[fwd.L]
    for ell in range(1, fwd.L + 1):
        s = sqrt_c * mv.matvec_PT(csr, s) + scale * d_hat * fwd.pis[fwd.L - ell]
    return s


def single_source(
    csr: CSRGraph,
    source: int,
    d_hat: np.ndarray,
    *,
    c: float,
    eps: float,
    sparse: bool = False,
    L: Optional[int] = None,
) -> tuple[np.ndarray, ForwardResult]:
    """Full linearized query with a given ``D̂``."""
    L = iterations_for(eps, c) if L is None else L
    thr = sparse_threshold(eps, c) if sparse else 0.0
    fwd = forward(csr, source, c=c, L=L, threshold=thr)
    return backward(csr, fwd, d_hat, c=c), fwd


def forward_sparse_levels(
    csr: CSRGraph,
    source: int,
    *,
    c: float,
    L: int,
    threshold: float,
) -> tuple[List[tuple[np.ndarray, np.ndarray]], int, int]:
    """ℓ-hop PPR levels as sparse (idx, val) pairs via local push.

    The truly-sparse twin of :func:`forward` — per-hop cost proportional to
    the surviving support, not to ``n`` — used by the PRSim-lite index build
    where a dense vector per source would be ``O(n²L)``.  Returns
    ``(levels, total_entries, edges_traversed)``.
    """
    sqrt_c = math.sqrt(c)
    idx = np.array([source], dtype=np.int64)
    val = np.array([1.0 - sqrt_c])
    levels = [(idx, val)]
    entries = 1
    edges = 0
    for _ in range(L):
        idx, val, cost = mv.expand_sparse(csr, idx, val, prune=0.0)
        val = sqrt_c * val
        keep = val > threshold
        idx, val = idx[keep], val[keep]
        edges += cost
        levels.append((idx, val))
        entries += int(idx.size)
        if idx.size == 0:
            break
    return levels, entries, edges
