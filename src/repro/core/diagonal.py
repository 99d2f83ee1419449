"""The diagonal correction matrix ``D`` — estimators and exact oracles.

``D(k,k) = 1 − Pr[two √c-walks from v_k meet]`` (paper §3.2, eq. 12) and is
the only quantity in the linearization that needs sampling.  This module
provides:

* :func:`total_samples` / :func:`allocate` — the paper's sample budget
  ``R = 6 log n/((1-√c)⁴ε²)`` and the two allocation schemes:
  ``∝ π_i(k)`` (basic, Algorithm 1 line 8) and ``∝ π_i(k)²`` scaled by
  ``‖π_i‖²`` (Lemma 3 optimization).
* :func:`estimate_D_mc` — Algorithm 2: Bernoulli "the pair never met"
  estimator from pair-walk meeting counts, run over the same node batches
  as Algorithm 3 (``walks.pair_walks.simulate_pairs``).
* Exact oracles for small graphs: from the Power-Method matrix
  (``D(k,k) = 1 − (c Pᵀ S P)(k,k)``, the first-meeting identity) and via the
  dense linear system ``(I + A)d = 1`` with
  ``A[k,q] = Σ_{ℓ>=1} c^ℓ (P^ℓ(q,k))²`` (the Linearization formulation).
  Tests pin both against each other and against every estimator.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.walks import pair_walks


def total_samples(n: int, eps: float, c: float) -> int:
    """Theoretical total pair budget ``R = 6 log n / ((1-√c)⁴ ε²)``."""
    return int(math.ceil(6.0 * math.log(max(n, 2)) / ((1 - math.sqrt(c)) ** 4 * eps**2)))


def allocate(
    pi: np.ndarray,
    R: int,
    *,
    mode: str,
    cap: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Split the pair budget across nodes.

    ``mode='pi'``  — basic: ``R(k) = ⌈R π_i(k)⌉`` over the support of π_i.
    ``mode='pi2'`` — optimized: ``R_eff = ⌈R ‖π_i‖²⌉`` then
    ``R(k) = ⌈R_eff π_i(k)²/‖π_i‖²⌉`` (Lemma 3: same variance bound with
    ``‖π_i‖²``-times fewer samples).

    ``cap`` bounds the *total* allocated pairs — the scaled analog of the
    paper's 24-hour wall (DESIGN.md §4): when the theoretical budget exceeds
    the cap, every allocation is scaled down proportionally, keeping one pair
    per support node, so that the total is at most ``max(cap, |support|)``;
    the caller reports the effective ε.  Returns ``(nodes, counts, total,
    theoretical)`` where ``theoretical`` is the pre-cap total.
    """
    nodes = np.flatnonzero(pi > 0)
    if nodes.size == 0:
        return nodes, np.zeros(0, dtype=np.int64), 0, 0
    p = pi[nodes]
    # Clamp before the int64 cast: at ε = 1e-7 the theoretical R approaches
    # int64 range and a silent overflow would corrupt the cap arithmetic.
    clamp = 4.0e18
    if mode == "pi":
        counts = np.minimum(np.ceil(R * p), clamp).astype(np.int64)
    elif mode == "pi2":
        norm2 = float(np.sum(pi**2))
        r_eff = math.ceil(R * norm2)
        counts = np.minimum(np.ceil(r_eff * p**2 / norm2), clamp).astype(np.int64)
    else:
        raise ValueError(f"unknown allocation mode {mode!r}")
    # float64 sum: immune to int64 wrap when the theoretical budget is huge;
    # only compared against caps and fed to the effective ε, so 2^53
    # precision is ample.
    theoretical = int(counts.sum(dtype=np.float64))
    total = theoretical
    if cap is not None and total > cap:
        # Scale to what is left after the one-pair floor: the floor then adds
        # at most |support| pairs to a sum of at most cap − |support|.
        scale = max(0, cap - nodes.size) / total
        counts = np.maximum(1, (counts * scale).astype(np.int64))
        total = int(counts.sum())
    return nodes, counts, total, theoretical


def estimate_D_mc(
    graph: Graph,
    nodes: np.ndarray,
    counts: np.ndarray,
    *,
    c: float,
    seed: int,
    engine: str = "local",
) -> np.ndarray:
    """Algorithm 2: ``D̂(k,k)`` = fraction of √c-walk pairs that never meet.

    Every node in ``nodes`` walks its ``counts`` pairs, whatever its
    in-degree.  Nodes outside ``nodes`` get ``1-c`` — they carry zero weight
    in the backward phase because their π_i entries vanish.  ``engine``
    (``'local'`` or ``'spark'``) picks where the walks run; both consume
    identical seeds and thus return identical counts.
    """
    d_hat = np.full(graph.n, 1.0 - c)

    def estimate(csr, members, r, *, rng):
        met = pair_walks.count_meetings(
            csr, members, r, 0, c=c, rng=rng, walk=pair_walks.pair_meet_count
        )
        return 1.0 - met / r, np.zeros_like(r), r

    d_hat[nodes] = pair_walks.simulate_pairs(
        graph, nodes, counts, estimate, seed=seed, engine=engine
    )[0]
    return d_hat


# ---------------------------------------------------------------------------
# Exact oracles (small graphs) — ground truth for every estimator test.
# ---------------------------------------------------------------------------


def exact_diagonal(graph: Graph, *, c: float = 0.6, tol: float = 1e-12) -> np.ndarray:
    """Exact ``D`` from the converged Power-Method SimRank matrix.

    ``Pr[two √c-walks from v_k ever meet] = (c Pᵀ S P)(k,k)`` — the SimRank
    recursion applied to the pair ``(k,k)`` — hence
    ``D(k,k) = 1 − (c Pᵀ S P)(k,k)``.
    """
    from repro.baselines.power_method import simrank_power

    S = simrank_power(graph, c=c, tol=tol)
    P = graph.dense_P()
    return 1.0 - c * (P.T @ S @ P).diagonal()


def exact_diagonal_linsys(
    graph: Graph, *, c: float = 0.6, tol: float = 1e-12
) -> np.ndarray:
    """Exact ``D`` by solving ``(I + A)d = 1`` with ``A[k,q]=Σ_ℓ c^ℓ P^ℓ(q,k)²``.

    This is the Linearization paper's characterization: requiring
    ``S(k,k) = 1`` in ``S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ`` yields one linear equation
    per diagonal entry.  Truncated at ``c^L <= tol``; independent of the
    Power-Method oracle above.
    """
    n = graph.n
    if n > 3000:
        raise ValueError("dense exact-D oracle is for small graphs")
    P = graph.dense_P()
    L = max(1, math.ceil(math.log(tol) / math.log(c)))
    A = np.zeros((n, n))
    Pl = np.eye(n)
    for ell in range(1, L + 1):
        Pl = Pl @ P
        A += (c**ell) * (Pl**2).T
    d = np.linalg.solve(np.eye(n) + A, np.ones(n))
    return d

