"""MC baseline [Fogaras–Rácz]: √c-walk index + meeting-fraction queries.

Preprocessing stores ``R`` √c-walks per node (the trace rows of
``walks.traces``).  A single-source query for ``v_i`` estimates ``S(i,j)`` as
the fraction of walk indices ``r`` whose walk from ``v_i`` shares a
``(step, pos)`` with walk ``r`` from ``v_j`` — eq. (2)'s meeting probability.

The index keeps each trace row as its packed ``(r, step, pos)`` key, sorted,
beside its walk id ``node·R + r``; the query is one equi-join of the source's
keys against them, then a count of the distinct walks met per node.  The
DuckDB oracle replays the same join as SQL in tests.
Accuracy scales as ``√(log n / R)`` — the ``O(n log n/ε²)`` preprocessing
wall the paper highlights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import check_unit_interval, matching_rows
from repro.graphs.graph import Graph, sort_keys
from repro.walks import traces
from repro.walks.pair_walks import MAX_STEPS


@dataclass
class MCIndex:
    r_per_node: int
    key: np.ndarray  # (r·(MAX_STEPS+1) + step)·span + pos, sorted
    walk: np.ndarray  # node·R + r of each key's row
    span: int  # the positions' bound, max pos + 1

    def index_bytes(self) -> int:
        """The arrays the index holds."""
        return self.key.nbytes + self.walk.nbytes


def from_traces(
    node: np.ndarray, r: np.ndarray, step: np.ndarray, pos: np.ndarray, *, r_per_node: int
) -> MCIndex:
    """The index over trace rows ``(node, r, step, pos)``, ordered by key
    with :func:`sort_keys`, each key's rows in row order."""
    span = int(pos.max(initial=-1)) + 1
    key = (r * (MAX_STEPS + 1) + step) * span + pos
    key, order = sort_keys(key, r_per_node * (MAX_STEPS + 1) * span)
    return MCIndex(r_per_node, key, (node * r_per_node + r)[order], span)


def preprocess(
    graph: Graph,
    *,
    r_per_node: int,
    c: float = 0.6,
    seed: int = 0,
) -> MCIndex:
    """Simulate and store R √c-walks per node."""
    if r_per_node < 1:
        raise ValueError(f"r_per_node must be >= 1, got {r_per_node!r}")
    check_unit_interval(c=c)
    rows = traces.trace_rows(graph, r_per_node=r_per_node, c=c, seed=seed)
    return from_traces(*rows, r_per_node=r_per_node)


def query(graph: Graph, index: MCIndex, source: int) -> np.ndarray:
    """Distinct walks of every other node that meet the source's walk of the
    same ``r``, over ``R``."""
    if not 0 <= source < graph.n:
        raise ValueError("source out of range")
    R = index.r_per_node
    rows, _ = matching_rows(index.key, index.key[index.walk // R == source])
    met = np.unique(index.walk[rows])  # the source's own walks included
    s = np.bincount(met // R, minlength=graph.n) / R
    s[source] = 1.0  # S(i,i) = 1 by definition, whatever its walks counted
    return s
