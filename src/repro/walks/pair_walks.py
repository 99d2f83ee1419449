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
short).  ``simulate_pairs`` runs it over a frame of per-node chunk
assignments, in-process or on Spark through ``graphs.graph.run_partitioned``
— the paper's "embarrassingly parallel" phase, load-balanced by chunking
``R(k)``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

from repro.graphs.graph import CSRGraph, Graph, run_partitioned

#: Hard cap on walk length: the probability a √c-walk pair survives t steps is
#: c^t, so the truncation bias at 300 steps is ~1e-66 — far below ε_min.
MAX_STEPS = 300


def pair_meet_count(
    csr: CSRGraph,
    start: int,
    pairs: int,
    *,
    c: float,
    rng: np.random.Generator,
    nonstop_steps: int = 0,
) -> int:
    """Number of the ``pairs`` simulated pairs from ``start`` that meet.

    With ``nonstop_steps == 0`` this is Algorithm 2's meeting count.  With
    ``nonstop_steps == ℓ0 > 0`` it counts pairs that complete the non-stop
    prefix un-met and whose √c-continuations then meet (Algorithm 3 lines
    22-27); the caller scales by ``c^{ℓ0}``.
    """
    if pairs <= 0:
        return 0
    sqrt_c = math.sqrt(c)
    pos_a = np.full(pairs, start, dtype=np.int64)
    pos_b = pos_a.copy()
    met = 0
    for step in range(1, MAX_STEPS + 1):
        k = pos_a.shape[0]
        if k == 0:
            break
        da = csr.din[pos_a]
        db = csr.din[pos_b]
        if step <= nonstop_steps:
            cont = (da > 0) & (db > 0)
        else:
            cont = (
                (da > 0)
                & (db > 0)
                & (rng.random(k) < sqrt_c)
                & (rng.random(k) < sqrt_c)
            )
        pos_a = pos_a[cont]
        pos_b = pos_b[cont]
        if pos_a.shape[0] == 0:
            break
        da = csr.din[pos_a]
        db = csr.din[pos_b]
        pos_a = csr.in_neighbors[csr.in_indptr[pos_a] + rng.integers(0, da)]
        pos_b = csr.in_neighbors[csr.in_indptr[pos_b] + rng.integers(0, db)]
        coincide = pos_a == pos_b
        if step > nonstop_steps:
            met += int(np.count_nonzero(coincide))
        # A coincidence inside the non-stop prefix means first meeting <= ℓ0,
        # already handled deterministically: the pair is discarded (counts 0).
        pos_a = pos_a[~coincide]
        pos_b = pos_b[~coincide]
    return met


# ---------------------------------------------------------------------------
# Distributed driver
# ---------------------------------------------------------------------------

#: Pairs per task row — small enough to balance load across cores, large
#: enough that the numpy kernel amortizes per-row overhead.
CHUNK = 200_000


def make_assignments(
    graph: Graph, nodes: np.ndarray, pairs: np.ndarray, nonstop: np.ndarray, seed: int
) -> pd.DataFrame:
    """Chunked (node, pairs, nonstop, seed) rows for the walk stage.

    Deterministic: each chunk's seed derives from ``(seed, node, chunk idx)``
    so re-running the same configuration replays the same walks.
    """
    rows = []
    for k, r, l0 in zip(nodes.tolist(), pairs.tolist(), nonstop.tolist()):
        chunk_idx = 0
        while r > 0:
            take = min(r, CHUNK)
            rows.append(
                (
                    int(k),
                    int(take),
                    int(l0),
                    int((seed * 1_000_003 + k) * 97 + chunk_idx) & 0x7FFFFFFF,
                )
            )
            r -= take
            chunk_idx += 1
    return pd.DataFrame(rows, columns=["node", "pairs", "nonstop", "seed"])


def simulate_pairs(
    graph: Graph, assignments: pd.DataFrame, *, c: float, engine: str
) -> pd.DataFrame:
    """Run the pair-walk kernel for every assignment row.

    Returns one row per (node, nonstop) with summed ``met``/``pairs`` counts.
    Each row seeds its own generator, so ``engine='spark'`` (rows spread
    over the cluster with :func:`run_partitioned`) and ``engine='local'``
    return identical counts.
    """

    def kernel(csr: CSRGraph, pdf: pd.DataFrame) -> pd.DataFrame:
        out = []
        for row in pdf.itertuples(index=False):
            rng = np.random.default_rng(int(row.seed))
            met = pair_meet_count(
                csr,
                int(row.node),
                int(row.pairs),
                c=c,
                rng=rng,
                nonstop_steps=int(row.nonstop),
            )
            out.append((int(row.node), int(row.nonstop), met, int(row.pairs)))
        return pd.DataFrame(out, columns=["node", "nonstop", "met", "pairs"])

    res = run_partitioned(
        graph,
        assignments,
        kernel,
        "node long, nonstop long, met long, pairs long",
        engine,
    )
    return (
        res.groupby(["node", "nonstop"], as_index=False)[["met", "pairs"]]
        .sum()
        .astype({"node": "int64", "nonstop": "int64", "met": "int64", "pairs": "int64"})
    )
