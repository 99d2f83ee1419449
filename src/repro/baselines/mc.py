"""MC baseline [Fogaras–Rácz]: √c-walk index + meeting-fraction queries.

Preprocessing stores ``R`` √c-walks per node (the trace index from
``walks.traces``).  A single-source query for ``v_i`` estimates ``S(i,j)`` as
the fraction of walk indices ``r`` whose walk from ``v_i`` shares a
``(step, pos)`` with walk ``r`` from ``v_j`` — eq. (2)'s meeting probability.

The query is one equi-join + distinct + group-count, run as a pandas merge
(``query``); the DuckDB oracle replays the same SQL in tests.
Accuracy scales as ``√(log n / R)`` — the ``O(n log n/ε²)`` preprocessing
wall the paper highlights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.graph import Graph
from repro.walks import traces


@dataclass
class MCIndex:
    r_per_node: int
    trace_pdf: pd.DataFrame

    def index_bytes(self) -> int:
        """Stored traces: 4 int64 columns per row."""
        return len(self.trace_pdf) * 32


def preprocess(
    graph: Graph,
    *,
    r_per_node: int,
    c: float = 0.6,
    seed: int = 0,
) -> MCIndex:
    """Simulate and store R √c-walks per node."""
    pdf = traces.trace_rows(graph, r_per_node=r_per_node, c=c, seed=seed)
    return MCIndex(r_per_node, pdf)


def _scores_from_counts(
    graph: Graph, source: int, r: int, counts: pd.DataFrame
) -> np.ndarray:
    s = np.zeros(graph.n)
    if len(counts):
        s[counts["node"].to_numpy()] = counts["meets"].to_numpy() / r
    s[source] = 1.0  # S(i,i) = 1 by definition; the index never compares i to i
    return s


def query(graph: Graph, index: MCIndex, source: int) -> np.ndarray:
    """Meeting counts of the source's walks against every other node's."""
    if not 0 <= source < graph.n:
        raise ValueError("source out of range")
    t = index.trace_pdf
    ti = t[t["node"] == source][["r", "step", "pos"]]
    joined = t.merge(ti, on=["r", "step", "pos"], how="inner")
    counts = (
        joined[joined["node"] != source][["node", "r"]]
        .drop_duplicates()
        .groupby("node", as_index=False)
        .size()
        .rename(columns={"size": "meets"})
    )
    return _scores_from_counts(graph, source, index.r_per_node, counts)
