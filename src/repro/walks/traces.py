"""√c-walk trace index for the MC baseline [Fogaras–Rácz].

MC preprocessing simulates ``R`` √c-walks from every node and stores their
full trajectories.  A trace row is ``(node, r, step, pos)``: the ``r``-th walk
of ``node`` visited ``pos`` at step ``step >= 1`` (step 0 — the start — is
implicit and never compared, since two walks from different sources trivially
differ there).

``Ŝ(i, j)`` = fraction of indices ``r`` for which walk ``r`` of ``i`` and
walk ``r`` of ``j`` share some ``(step, pos)`` — a plain equi-join, which the
MC baseline runs over its sorted ``(r, step, pos)`` keys (and which the
DuckDB oracle can replay verbatim).
"""
from __future__ import annotations

import math
import numpy as np

from repro.graphs.graph import CSRGraph, Graph
from repro.walks.pair_walks import MAX_STEPS


def walk_trace_arrays(
    csr: CSRGraph,
    starts: np.ndarray,
    *,
    c: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one √c-walk per entry of ``starts``; return trace triples.

    Returns ``(walk_idx, step, pos)`` arrays covering every step >= 1 taken
    while the walk was alive.  ``walk_idx`` indexes into ``starts``.
    """
    sqrt_c = math.sqrt(c)
    idx = np.arange(starts.shape[0], dtype=np.int64)
    pos = np.asarray(starts, dtype=np.int64).copy()
    out_idx, out_step, out_pos = [], [], []
    for step in range(1, MAX_STEPS + 1):
        k = pos.shape[0]
        if k == 0:
            break
        cont = (csr.din[pos] > 0) & (rng.random(k) < sqrt_c)
        idx, pos = idx[cont], pos[cont]
        if pos.shape[0] == 0:
            break
        pos = csr.in_neighbors[csr.in_indptr[pos] + rng.integers(0, csr.din[pos])]
        out_idx.append(idx.copy())
        out_step.append(np.full(idx.shape[0], step, dtype=np.int64))
        out_pos.append(pos.copy())
    if not out_idx:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    return (
        np.concatenate(out_idx),
        np.concatenate(out_step),
        np.concatenate(out_pos),
    )


def trace_rows(
    graph: Graph, *, r_per_node: int, c: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trace rows ``(node, r, step, pos)``, as four int64 arrays, of R
    √c-walks from every node.

    Nodes go in chunks of 64, each with its own generator seeded from
    ``(seed, first node)``, so a configuration replays the same walks.
    """
    chunks = []
    for lo in range(0, graph.n, 64):
        starts = np.repeat(np.arange(lo, min(lo + 64, graph.n), dtype=np.int64), r_per_node)
        rng = np.random.default_rng((seed * 1_000_003 + lo) & 0x7FFFFFFF)
        widx, step, pos = walk_trace_arrays(graph.csr, starts, c=c, rng=rng)
        chunks.append((starts[widx], widx % r_per_node, step, pos))
    return tuple(np.concatenate(col) for col in zip(*chunks))
