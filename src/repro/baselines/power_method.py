"""Power Method — the classic exact all-pairs SimRank algorithm [Jeh–Widom].

The paper uses Power Method as the ground truth on small graphs (its
``O(n²)`` space/time is the very reason ExactSim exists).  ``simrank_power``
iterates ``S ← (c Pᵀ S P) ∨ I`` densely in numpy until the ``c^t``
convergence bound is below ``tol``; ``simrank_direct_solve`` solves the
pair-walk linear system on tiny graphs as an independent check.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.graph import Graph


def power_iterations(c: float, tol: float) -> int:
    """Iterations needed so the Power Method truncation error ``c^t <= tol``."""
    return max(1, math.ceil(math.log(tol) / math.log(c)))


def simrank_power(graph: Graph, *, c: float = 0.6, tol: float = 1e-10) -> np.ndarray:
    """Dense all-pairs SimRank matrix with truncation error ``<= tol``."""
    P = graph.dense_P()
    n = graph.n
    S = np.eye(n)
    for _ in range(power_iterations(c, tol)):
        S = c * (P.T @ S @ P)
        np.fill_diagonal(S, 1.0)  # the ∨I step: diagonal pinned to 1
    return S


def simrank_direct_solve(graph: Graph, *, c: float = 0.6) -> np.ndarray:
    """SimRank by directly solving the n²×n² linear system (tiny graphs).

    Treats SimRank as the meeting probability of √c-walk pairs (paper eq. 2):
    the pair state ``(a, b)`` satisfies ``f(a,a)=1`` and
    ``f(a,b) = c/(d_in(a)d_in(b)) ΣΣ f(a',b')`` — the SimRank recursion —
    and the system is solved exactly with a dense linear solver.  Independent
    of the fixed-point iteration, so it validates ``simrank_power``.
    """
    n = graph.n
    if n > 40:
        raise ValueError("direct solve is O(n^6); tiny graphs only")
    P = graph.dense_P()
    N = n * n
    A = np.eye(N)
    rhs = np.zeros(N)
    for a in range(n):
        for b in range(n):
            idx = a * n + b
            if a == b:
                rhs[idx] = 1.0
                continue
            ia = graph.csr.in_neigh(a)
            ib = graph.csr.in_neigh(b)
            if len(ia) == 0 or len(ib) == 0:
                continue
            coef = c / (len(ia) * len(ib))
            for ap in ia:
                for bp in ib:
                    A[idx, ap * n + bp] -= coef
    return np.linalg.solve(A, rhs).reshape(n, n)
