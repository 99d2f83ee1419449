"""√c pair-walk simulation (Algorithms 2 and 3, sampling part).

The paper's D-estimators simulate *pairs* of √c-walks from a node ``v_k``:

* Algorithm 2: both walks stop independently with prob ``1-√c`` per step;
  the estimator is the fraction of pairs that never meet (same node, same
  step, both still walking).
* Algorithm 3 tail: the walks are *non-stop* for the first ``ℓ0 = ℓ(k)``
  steps (always move), then behave as fresh √c-walks.  Pairs that coincide
  or hit a dead end during the non-stop prefix contribute 0; the fraction of
  the rest whose √c-continuations meet, scaled by ``c^{ℓ0}``, estimates the
  tail ``Σ_{ℓ>ℓ0} Z_ℓ(k)`` (see DESIGN.md and the Lemma 4 discussion).

``pair_meet_count`` is the vectorized numpy kernel (arrays shrink as pairs
finish; expected √c-walk length is ``1/(1-√c) ≈ 4.4`` steps so the loop is
short).  Given one start node it returns a meeting count; given a start
array (one node and one non-stop prefix per pair) it walks many nodes'
pairs at once, as the Algorithm-3 batches do, and returns the ids of the
pairs that meet.  ``simulate_pairs`` runs it over a frame of per-node chunk
assignments (Algorithm 2), in-process or on Spark through
``graphs.graph.run_partitioned`` — the paper's "embarrassingly parallel"
phase, load-balanced by chunking ``R(k)``.  Every chunk or batch walks its
own stream, ``np.random.default_rng`` of a key such as ``[seed, node,
chunk]``.
"""
from __future__ import annotations

import math
from typing import Union

import numpy as np
import pandas as pd

from repro.graphs.graph import CSRGraph, Graph, run_partitioned

#: Hard cap on walk length: the probability a √c-walk pair survives t steps is
#: c^t, so the truncation bias at 300 steps is ~1e-66 — far below ε_min.
MAX_STEPS = 300


def pair_meet_count(
    csr: CSRGraph,
    start: Union[int, np.ndarray],
    pairs: int,
    *,
    c: float,
    rng: np.random.Generator,
    nonstop_steps: Union[int, np.ndarray] = 0,
) -> Union[int, np.ndarray]:
    """Meetings among ``pairs`` simulated pairs of walks.

    With a scalar ``start`` every pair starts there and the result is the
    number of pairs that meet.  ``nonstop_steps == 0`` gives Algorithm 2's
    meeting count; ``nonstop_steps == ℓ0 > 0`` counts pairs that complete
    the non-stop prefix un-met and whose √c-continuations then meet
    (Algorithm 3 lines 22-27), and the caller scales by ``c^{ℓ0}``.

    With an array ``start`` (one start node per pair, ``pairs`` long) the
    walks of many nodes run in one call: ``nonstop_steps`` may then be one
    prefix per pair, and the result is the ids (positions in ``start``) of
    the pairs that meet.  Only this form tracks which pair is which.
    """
    multi = np.ndim(start) > 0
    if pairs <= 0:
        return np.zeros(0, dtype=np.int64) if multi else 0
    sqrt_c = math.sqrt(c)
    if multi:
        pos_a = np.asarray(start, dtype=np.int64)
        nonstop = np.broadcast_to(np.asarray(nonstop_steps, dtype=np.int64), (pairs,))
        last_nonstop = int(nonstop.max())
        pid = np.arange(pairs)
        hits = [np.zeros(0, dtype=np.int64)]
    else:
        pos_a = np.full(pairs, start, dtype=np.int64)
        last_nonstop = nonstop_steps
    pos_b = pos_a.copy()
    met = 0
    for step in range(1, MAX_STEPS + 1):
        k = pos_a.shape[0]
        if k == 0:
            break
        cont = (csr.din[pos_a] > 0) & (csr.din[pos_b] > 0)
        if step > last_nonstop:
            cont &= (rng.random(k) < sqrt_c) & (rng.random(k) < sqrt_c)
        elif multi:  # pairs still inside their own non-stop prefix always move
            cont &= (nonstop[pid] >= step) | (
                (rng.random(k) < sqrt_c) & (rng.random(k) < sqrt_c)
            )
        pos_a = pos_a[cont]
        pos_b = pos_b[cont]
        if multi:
            pid = pid[cont]
        if pos_a.shape[0] == 0:
            break
        da = csr.din[pos_a]
        db = csr.din[pos_b]
        pos_a = csr.in_neighbors[csr.in_indptr[pos_a] + rng.integers(0, da)]
        pos_b = csr.in_neighbors[csr.in_indptr[pos_b] + rng.integers(0, db)]
        coincide = pos_a == pos_b
        # A coincidence inside the non-stop prefix means first meeting <= ℓ0,
        # already handled deterministically: the pair is discarded (counts 0).
        if multi:
            counted = coincide if step > last_nonstop else coincide & (nonstop[pid] < step)
            hits.append(pid[counted])
        elif step > last_nonstop:
            met += int(np.count_nonzero(coincide))
        pos_a = pos_a[~coincide]
        pos_b = pos_b[~coincide]
        if multi:
            pid = pid[~coincide]
    return np.concatenate(hits) if multi else met


# ---------------------------------------------------------------------------
# Distributed driver
# ---------------------------------------------------------------------------

#: Pairs per task row — small enough to balance load across cores, large
#: enough that the numpy kernel amortizes per-row overhead.
CHUNK = 200_000


def make_assignments(nodes: np.ndarray, pairs: np.ndarray) -> pd.DataFrame:
    """Chunked (node, chunk, pairs) rows for the Algorithm-2 walk stage.

    Node ``k``'s ``R(k)`` pairs are split into chunks of at most
    :data:`CHUNK`, numbered ``0, 1, ...`` per node.
    """
    rows = []
    for k, r in zip(nodes.tolist(), pairs.tolist()):
        for j, first in enumerate(range(0, r, CHUNK)):
            rows.append((k, j, min(CHUNK, r - first)))
    return pd.DataFrame(rows, columns=["node", "chunk", "pairs"])


def simulate_pairs(
    graph: Graph, assignments: pd.DataFrame, *, c: float, seed: int, engine: str
) -> pd.DataFrame:
    """Run the pair-walk kernel for every assignment row.

    Returns one row per node with summed ``met``/``pairs`` counts.  Chunk
    ``j`` of node ``k`` walks the stream ``np.random.default_rng([seed, k,
    j])`` (``seed >= 0``): re-running a configuration replays the same walks,
    no two chunks share a stream, and ``engine='spark'`` (rows spread over
    the cluster with :func:`run_partitioned`) and ``engine='local'`` return
    identical counts.
    """

    def kernel(csr: CSRGraph, pdf: pd.DataFrame) -> pd.DataFrame:
        out = []
        for row in pdf.itertuples(index=False):
            node, pairs = int(row.node), int(row.pairs)
            rng = np.random.default_rng([seed, node, int(row.chunk)])
            out.append((node, pair_meet_count(csr, node, pairs, c=c, rng=rng), pairs))
        return pd.DataFrame(out, columns=["node", "met", "pairs"])

    res = run_partitioned(graph, assignments, kernel, "node long, met long, pairs long", engine)
    return (
        res.groupby("node", as_index=False)[["met", "pairs"]]
        .sum()
        .astype({"node": "int64", "met": "int64", "pairs": "int64"})
    )
