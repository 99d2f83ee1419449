"""PRSim-lite baseline [Wei et al., SIGMOD'19] — index + probe, simplified.

PRSim rewrites SimRank as the ℓ-hop-PPR inner product (paper eq. 7)::

    S(i,j) = 1/(1-√c)² Σ_ℓ Σ_k π_i^ℓ(k) · π_j^ℓ(k) · D(k,k)

and precomputes ε-truncated ``π_j^ℓ(k)`` for all nodes plus a Monte-Carlo
``D̂`` whose sample allocation follows PageRank.  A query pushes the source's
own ℓ-hop vectors and joins them against the index.

Simplifications vs. the real PRSim (declared in DESIGN.md): we materialize
the truncated vectors for *all* target nodes instead of hub-selected subsets,
and the query is a deterministic join rather than the probabilistic Probe —
both make our PRSim-lite *more* accurate per index entry while preserving the
measured scalings (index entries ~ ``1/ε`` per node, preprocessing that blows
up as ε shrinks, power-law-friendly behaviour).

``BudgetExceeded`` implements the paper's "omitted (> 24 h)" rule via an
index-entry cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines import BudgetExceeded, check_unit_interval, matching_rows
from repro.core import diagonal, linearized
from repro.graphs.graph import Graph, sort_keys
from repro.linalg import matvec as mv


def _keyed(levels, n: int) -> tuple[np.ndarray, np.ndarray]:
    """ℓ-hop vectors ``[(k, π^ℓ(k)) for ℓ = 0..L]`` as one array of keys
    ``ℓ·n + k`` and one of values."""
    keys = [ell * n + idx for ell, (idx, _) in enumerate(levels)]
    return np.concatenate(keys), np.concatenate([val for _, val in levels])


def pagerank_ppr(graph: Graph, *, c: float, L: int) -> np.ndarray:
    """``π_avg = (1/n) Σ_i π_i`` — the √c-decay PageRank the allocation uses."""
    sqrt_c = math.sqrt(c)
    cur = np.full(graph.n, (1.0 - sqrt_c) / graph.n)
    acc = cur.copy()
    for _ in range(L):
        cur = sqrt_c * mv.matvec_P(graph.csr, cur)
        acc += cur
    return acc


@dataclass
class PRSimIndex:
    eps: float
    L: int
    d_hat: np.ndarray
    capped: bool  # D̂'s pair budget was cut to ``max_pairs``
    key: np.ndarray  # ℓ·n + k, sorted; one key's rows in ascending j
    j: np.ndarray  # the node whose vector holds the entry
    val: np.ndarray  # π_j^ℓ(k)

    def index_bytes(self) -> int:
        """The arrays the index holds, the diagonal estimate included."""
        return self.key.nbytes + self.j.nbytes + self.val.nbytes + self.d_hat.nbytes


def preprocess(
    graph: Graph,
    *,
    eps: float,
    c: float = 0.6,
    seed: int = 0,
    max_entries: Optional[int] = None,
    max_pairs: Optional[int] = None,
    max_push_edges: Optional[int] = None,
) -> PRSimIndex:
    """Build the truncated ℓ-hop PPR index for every node + estimate D̂.

    ``max_push_edges`` caps the total local-push traversal work across all
    sources (the build's true cost on hub-heavy graphs) — with
    ``max_entries`` it forms the "omitted (> 24 h)" budget rule for this
    index-based baseline.
    """
    check_unit_interval(eps=eps, c=c)
    L = linearized.iterations_for(eps, c)
    thr = linearized.sparse_threshold(eps, c)

    # --- D̂: pair budget allocated by PageRank, cut to ``max_pairs`` like
    # the paper's feasibility wall; the index records whether it was cut. ---
    pi_avg = pagerank_ppr(graph, c=c, L=L)
    R = diagonal.total_samples(graph.n, eps, c)
    nodes, counts, total, theory = diagonal.allocate(
        pi_avg, R, mode="pi", cap=max_pairs
    )
    d_hat = diagonal.estimate_D_mc(graph, nodes, counts, c=c, seed=seed)

    # --- the vectors index. ---
    keys, vals = [], []
    entries = 0
    push_edges = 0
    for s in range(graph.n):
        fwd = linearized.forward(graph.csr, s, c=c, L=L, threshold=thr)
        entries += fwd.stored_entries
        push_edges += fwd.edges
        if max_entries is not None and entries > max_entries:
            raise BudgetExceeded(
                f"PRSim index exceeds {max_entries:.2e} entries at eps={eps}"
            )
        if max_push_edges is not None and push_edges > max_push_edges:
            raise BudgetExceeded(
                f"PRSim push work exceeds {max_push_edges:.2e} edges at eps={eps}"
            )
        key, val = _keyed(fwd.levels, graph.n)
        keys.append(key)
        vals.append(val)
    j = np.repeat(np.arange(graph.n), [key.size for key in keys])
    key, order = sort_keys(np.concatenate(keys), (L + 1) * graph.n)
    val = np.concatenate(vals)
    return PRSimIndex(eps, L, d_hat, total < theory, key, j[order], val[order])


def query(
    graph: Graph, index: PRSimIndex, source: int, *, c: float = 0.6
) -> np.ndarray:
    """Eq. 7 as a join: the source's ``ℓ·n + k`` keys probe the index, and
    each matched entry adds ``π_j^ℓ(k) · π_i^ℓ(k) · D̂(k)`` to ``s(j)``."""
    check_unit_interval(c=c)
    fwd = linearized.forward(
        graph.csr, source, c=c, L=index.L,
        threshold=linearized.sparse_threshold(index.eps, c),
    )
    keys, val = _keyed(fwd.levels, graph.n)
    rows, counts = matching_rows(index.key, keys)
    w = np.repeat(val * index.d_hat[keys % graph.n], counts)
    s = np.bincount(index.j[rows], weights=index.val[rows] * w, minlength=graph.n)
    return s / (1.0 - math.sqrt(c)) ** 2
