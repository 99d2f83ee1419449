"""Linearization baseline [Maehara et al.]: per-node Monte-Carlo ``D``.

Linearization precomputes an ε-approximation of the *entire* diagonal matrix
``D`` by running ``R_node = O(log n/ε²)`` pairs of √c-walks from **every**
node — the ``O(n log n/ε²)`` preprocessing cost that the paper identifies as
the reason no existing method achieves exactness (§2.2).  The query phase is
then the same linearized recurrence ExactSim uses.

``BudgetExceeded`` is raised when the preprocessing budget overruns the
configured cap — the scaled analog of the paper's "omitted, exceeds 24 h"
rule, which is exactly what happens to Linearization at ε <= 1e-5 in
Figure 1.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines import BudgetExceeded
from repro.core import diagonal, linearized
from repro.graphs.graph import Graph


def samples_per_node(n: int, eps: float) -> int:
    """``R_node = ⌈3 log n / ε²⌉`` — Hoeffding-scale per-entry accuracy."""
    return int(math.ceil(3.0 * math.log(max(n, 2)) / eps**2))


@dataclass
class LinearizationIndex:
    d_hat: np.ndarray
    eps: float
    total_pairs: int
    seconds_preprocess: float

    def index_bytes(self) -> int:
        """The stored index is just the diagonal — n doubles (Figure 4's
        vertical line)."""
        return self.d_hat.shape[0] * 8


def preprocess(
    graph: Graph,
    *,
    eps: float,
    c: float = 0.6,
    seed: int = 0,
    max_pairs: Optional[int] = None,
) -> LinearizationIndex:
    """Estimate every ``D(k,k)`` to ε accuracy by pair-walk sampling."""
    r_node = samples_per_node(graph.n, eps)
    total = r_node * graph.n
    if max_pairs is not None and total > max_pairs:
        raise BudgetExceeded(
            f"Linearization needs {total:.2e} pair walks at eps={eps} "
            f"(cap {max_pairs:.2e})"
        )
    t0 = time.perf_counter()
    nodes = np.arange(graph.n, dtype=np.int64)
    counts = np.full(graph.n, r_node, dtype=np.int64)
    d_hat = diagonal.estimate_D_mc(graph, nodes, counts, c=c, seed=seed)
    return LinearizationIndex(
        d_hat=d_hat,
        eps=eps,
        total_pairs=total,
        seconds_preprocess=time.perf_counter() - t0,
    )


@dataclass
class LinearizationResult:
    scores: np.ndarray
    seconds_query: float


def query(
    graph: Graph, index: LinearizationIndex, source: int, *, c: float = 0.6
) -> LinearizationResult:
    """Single-source query with the precomputed ``D̂`` (linearized engine)."""
    t0 = time.perf_counter()
    L = linearized.iterations_for(index.eps, c)
    fwd = linearized.forward(graph.csr, source, c=c, L=L)
    scores = linearized.backward(graph.csr, fwd, index.d_hat, c=c)
    return LinearizationResult(
        scores=scores, seconds_query=time.perf_counter() - t0
    )
