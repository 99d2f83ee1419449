"""Linearized single-source SimRank engine (paper eq. 8 / Algorithm 1).

Given the diagonal correction matrix estimate ``D̂``, the single-source
result is::

    S·e_i = 1/(1-√c) Σ_{ℓ=0}^{L} (√c Pᵀ)^ℓ D̂ π_i^ℓ,     π_i^ℓ = (1-√c)(√c P)^ℓ e_i

computed as a *forward* phase (the ℓ-hop PPR vectors, Algorithm 1 lines 2-5)
and a *backward* phase (lines 9-13).  Setting ``L = ⌈log_{1/c}(2/ε)⌉`` bounds
the truncation error by ``c^L <= ε/2``.

Each forward hop is one ``linalg.matvec.expand_sparse`` local push from the
previous hop's support, stored as an ``(idx, val)`` pair; once the Lemma-2
threshold empties a hop, the remaining hops are stored empty, unpushed.
Without a threshold (basic ExactSim, ParSim, Linearization) the vectors fill
up, which is the ``O(n log 1/ε)`` memory of the basic variant; the optimized
variant drops entries ``<= (1-√c)²ε`` after each hop (Lemma 2), bounding
storage and per-hop work by ``O(1/ε)`` at an extra ``ε`` additive error.  PRSim-lite
builds its index from the same pass.  ``ForwardResult`` carries exact
stored-entry accounting for the Table-3 reproduction.

The backward phase is one driver-side ``Pᵀ`` mat-vec per hop over a dense
``s``, into which each stored level is scattered.  ``linalg.matvec.matvec_PT``
pushes only the out-edges of ``s``'s support, so with the Lemma-2 threshold
the hops above the deepest non-empty level, where ``s`` is still all zero,
cost one ``O(n)`` scan each instead of an ``O(m)`` pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

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
    """ℓ-hop PPR vectors of the source plus space and work accounting."""

    levels: List[Tuple[np.ndarray, np.ndarray]]  # π_i^ℓ as (idx, val), ℓ = 0..L
    pi: np.ndarray  # Σ_ℓ π_i^ℓ — the (dense) PPR vector of the source
    stored_entries: int  # Σ_ℓ nnz(π_i^ℓ) after truncation
    threshold: float  # the truncation threshold applied (0.0 = dense mode)
    edges: int  # edges pushed over all hops

    @property
    def L(self) -> int:
        return len(self.levels) - 1

    def dense_bytes(self) -> int:
        """Basic-ExactSim footprint: (L+1) dense double vectors."""
        return (self.L + 1) * self.pi.shape[0] * 8

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
    """Compute ``π_i^ℓ`` for ℓ = 0..L, one local push per hop.

    ``threshold > 0`` applies the Lemma-2 sparsification after every hop:
    entries ``<= threshold`` are dropped *before* being stored or propagated,
    which is what bounds both the space and the downstream work.  Once it
    empties a hop, the remaining hops are stored empty without a push.
    """
    sqrt_c = math.sqrt(c)
    idx = np.array([source], dtype=np.int64)
    val = np.array([1.0 - sqrt_c])
    levels = [(idx, val)]
    pi = np.zeros(csr.n)
    pi[idx] = val
    edges = 0
    for hop in range(L):
        if not idx.size:  # the threshold emptied the frontier: so are the rest
            levels += [(idx, val)] * (L - hop)
            break
        idx, val, cost = mv.expand_sparse(csr, idx, val)
        val = sqrt_c * val
        keep = val > threshold
        idx, val = idx[keep], val[keep]
        levels.append((idx, val))
        pi[idx] += val
        edges += cost
    stored = sum(int(idx.size) for idx, _ in levels)
    return ForwardResult(
        levels=levels, pi=pi, stored_entries=stored, threshold=threshold, edges=edges
    )


def backward(
    csr: CSRGraph,
    fwd: ForwardResult,
    d_hat: np.ndarray,
    *,
    c: float,
) -> np.ndarray:
    """Accumulate ``s^L`` from the stored ℓ-hop PPR vectors, deepest first."""
    sqrt_c = math.sqrt(c)
    scale = 1.0 / (1.0 - sqrt_c)
    s = np.zeros(csr.n)
    for ell in range(fwd.L, -1, -1):
        idx, val = fwd.levels[ell]
        s[idx] += scale * d_hat[idx] * val
        if ell:
            s = sqrt_c * mv.matvec_PT(csr, s)
    return s
