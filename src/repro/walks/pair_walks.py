"""√c pair-walk simulation: the sampling that Algorithms 2 and 3 share.

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
short); ``count_meetings`` cuts a batch of nodes' pairs into slices of
:data:`CHUNK` pairs, walks each slice through it on its own random stream,
one thread per core (the kernel's numpy calls release the GIL), and counts
the meetings back per node.  Both algorithms run the same way (§3.2
"Parallelization"): ``simulate_pairs`` deals the nodes into :data:`BATCHES`
batches (``make_assignments``, each batch an array of positions in the
nodes) and runs a per-batch estimator on each, in-process or on Spark
through ``graphs.graph.run_partitioned``; the estimates come back as numpy
arrays aligned with the nodes.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Tuple, Union

import numpy as np

from repro.graphs.graph import CSRGraph, Graph, run_partitioned

#: Hard cap on walk length: the probability a √c-walk pair survives t steps is
#: c^t, so the truncation bias at 300 steps is ~1e-66 — far below ε_min.
MAX_STEPS = 300

#: Most pairs one ``pair_meet_count`` call walks: bounds each thread's walk
#: arrays, however many pairs a batch's nodes hold, while amortizing per-call
#: overhead.  A constant, so the slices, and with them the scores, do not
#: depend on the host's core count.
CHUNK = 50_000

#: Threads that walk one batch's slices: one per core this process may run on
#: (``sched_getaffinity`` is Linux-only; elsewhere, one per core).
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
)

#: Batches of the D estimation.  Nodes sorted by ``R(k)`` are dealt
#: round-robin into this many batches on both engines, so both draw the same
#: streams.
BATCHES = 16

#: ``(D̂(k,k), ℓ(k), pairs simulated)`` per node, as a batch estimator and
#: :func:`simulate_pairs` return them.
Estimates = Tuple[np.ndarray, np.ndarray, np.ndarray]


def pair_meet_count(
    csr: CSRGraph,
    start: np.ndarray,
    pairs: int,
    *,
    c: float,
    rng: np.random.Generator,
    nonstop_steps: Union[int, np.ndarray] = 0,
) -> np.ndarray:
    """Ids (positions in ``start``) of the pairs that meet.

    Pair ``i`` starts both its walks at ``start[i]`` (``pairs`` long).
    ``nonstop_steps`` (one prefix, or one per pair) of 0 gives Algorithm 2's
    meetings; a prefix ``ℓ0 > 0`` counts pairs that complete the non-stop
    prefix un-met and whose √c-continuations then meet (Algorithm 3 lines
    22-27), and the caller scales by ``c^{ℓ0}``.
    """
    if pairs <= 0:
        return np.zeros(0, dtype=np.int64)
    sqrt_c = math.sqrt(c)
    pos_a = np.asarray(start, dtype=np.int64)
    pos_b = pos_a.copy()
    nonstop = np.broadcast_to(np.asarray(nonstop_steps, dtype=np.int64), (pairs,))
    last_nonstop = int(nonstop.max())
    pid = np.arange(pairs)
    hits = [np.zeros(0, dtype=np.int64)]
    for step in range(1, MAX_STEPS + 1):
        k = pid.size
        cont = (rng.random(k) < sqrt_c) & (rng.random(k) < sqrt_c)
        if step <= last_nonstop:  # pairs inside their own non-stop prefix always move
            cont |= nonstop[pid] >= step
        cont &= (csr.din[pos_a] > 0) & (csr.din[pos_b] > 0)
        pos_a, pos_b, pid = pos_a[cont], pos_b[cont], pid[cont]
        k = pid.size
        if k == 0:
            break
        # A uniform in-neighbour as ⌊U·d_in⌋: ``rng.integers`` with per-pair
        # bounds re-validates them on every call and costs ~1.5× as much.
        off_a = (rng.random(k) * csr.din[pos_a]).astype(np.int64)
        off_b = (rng.random(k) * csr.din[pos_b]).astype(np.int64)
        pos_a = csr.in_neighbors[csr.in_indptr[pos_a] + off_a]
        pos_b = csr.in_neighbors[csr.in_indptr[pos_b] + off_b]
        coincide = pos_a == pos_b
        # A coincidence inside the non-stop prefix means first meeting <= ℓ0,
        # already handled deterministically: the pair is discarded (counts 0).
        counted = coincide if step > last_nonstop else coincide & (nonstop[pid] < step)
        hits.append(pid[counted])
        pos_a, pos_b, pid = pos_a[~coincide], pos_b[~coincide], pid[~coincide]
    return np.concatenate(hits)


def count_meetings(
    csr: CSRGraph,
    nodes: np.ndarray,
    pairs: np.ndarray,
    nonstop: Union[int, np.ndarray],
    *,
    c: float,
    rng: np.random.Generator,
    walk: Callable[..., np.ndarray],
) -> np.ndarray:
    """Meetings per node among ``pairs[i]`` pairs from ``nodes[i]``.

    Node ``i``'s pairs walk with the non-stop prefix ``nonstop[i]`` (or
    ``nonstop`` itself when it is one prefix for all), in slices of at most
    :data:`CHUNK` pairs, one ``walk`` (``pair_meet_count`` as the caller's
    module resolves it) call per slice; a slice takes its start nodes and
    prefixes from its pairs' owner indices, so no array spans the whole
    batch.  Slice ``j`` walks child ``j`` of ``rng.spawn``, and the slices
    run on up to :data:`WORKERS` threads (in the calling thread when there
    is one slice or one worker).  The counts are integers, so their sum
    does not depend on the order in which the slices finish.
    """
    ends = np.cumsum(pairs)
    total = int(ends[-1]) if ends.size else 0
    firsts = range(0, total, CHUNK)

    def walk_slice(first: int, stream: np.random.Generator) -> np.ndarray:
        size = min(CHUNK, total - first)
        # The nodes owning the slice's first and last pair, and each one's
        # share of the slice.
        lo, hi = np.searchsorted(ends, [first, first + size - 1], side="right")
        span = np.arange(lo, hi + 1)
        share = np.minimum(ends[span], first + size) - np.maximum(ends[span] - pairs[span], first)
        owner = np.repeat(span, share)
        prefix = nonstop if np.ndim(nonstop) == 0 else nonstop[owner]
        hits = walk(csr, nodes[owner], size, c=c, rng=stream, nonstop_steps=prefix)
        return np.bincount(owner[hits], minlength=nodes.size)

    streams = rng.spawn(len(firsts))
    met = np.zeros(nodes.size, dtype=np.int64)
    workers = min(WORKERS, len(firsts))
    # One slice walks in the calling thread: most IT-lite tails are one
    # slice, and a one-thread pool for them cost it-opt-coarse 8% of its
    # queries per second (4 cores, 10 alternating runs).
    if workers <= 1:
        for counts in map(walk_slice, firsts, streams):
            met += counts
    else:
        with ThreadPoolExecutor(workers) as pool:
            for counts in pool.map(walk_slice, firsts, streams):
                met += counts
    return met


# ---------------------------------------------------------------------------
# Distributed driver
# ---------------------------------------------------------------------------


def make_assignments(pairs: np.ndarray) -> List[np.ndarray]:
    """The batches of the D estimation, as positions in ``pairs``.

    The positions, sorted by ``R(k) = pairs[i]`` descending, are dealt
    round-robin into at most :data:`BATCHES` batches, so every batch gets a
    share of the large and of the small allocations.
    """
    order = np.argsort(pairs, kind="stable")[::-1]
    return [order[b::BATCHES] for b in range(min(BATCHES, order.size))]


def simulate_pairs(
    graph: Graph,
    nodes: np.ndarray,
    counts: np.ndarray,
    estimate: Callable[..., Estimates],
    *,
    seed: int,
    engine: str,
) -> Estimates:
    """Run a per-batch D estimator over ``nodes`` and their ``R(k)`` counts.

    The nodes are dealt into batches by :func:`make_assignments`.
    ``estimate(csr, nodes, r_k, rng=...)`` returns ``(D̂(k,k), ℓ(k), pairs
    simulated)`` arrays aligned with the batch's ``nodes``, and so does this
    function for all of ``nodes`` (float64, int64, int64; empty for no
    nodes).  Batch ``b``'s estimator gets the generator
    ``np.random.default_rng([seed, b])`` (``seed >= 0``), whose children
    ``count_meetings`` hands to the batch's slices: re-running a
    configuration replays the same walks, no two slices share a stream, and
    ``engine='spark'`` (batches spread over the cluster with
    :func:`run_partitioned`) and ``engine='local'`` return identical arrays.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)

    def kernel(csr: CSRGraph, item: Tuple[int, np.ndarray]):
        b, pos = item
        rng = np.random.default_rng([seed, b])
        return pos, estimate(csr, nodes[pos], counts[pos], rng=rng)

    out = (np.zeros(nodes.size), np.zeros(nodes.size, np.int64), np.zeros(nodes.size, np.int64))
    items = list(enumerate(make_assignments(counts)))
    for pos, values in run_partitioned(graph, items, kernel, engine):
        for col, v in zip(out, values):
            col[pos] = v
    return out
