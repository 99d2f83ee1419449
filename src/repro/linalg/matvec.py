"""Sparse matrix–vector products for the (reverse) transition matrix ``P``.

Mat-vecs take and return dense vectors (they live in driver memory,
DESIGN.md §3) and sum with one ``np.bincount`` over edges.  :func:`matvec_PT`
sums only the out-edges of the input's support when its measured price says
that beats the whole edge list, so the backward pass pays for the edges it
uses, not for all ``m``.  :func:`push_blocks` is the one local-push
kernel: its cost scales with the pushed support, and it advances many sparse
vectors at once through ``row·n + node`` keys, in cache-sized blocks of
whole rows that it computes on :data:`PUSH_THREADS` threads and yields one
by one, in order.  Algorithm 3's ``M^t`` rows consume the blocks as they
come; the forward pass pushes one vector, which is one row and so one
block, pushed in the caller's thread.  The push sums through
:func:`accumulate` (a dense bincount, or runs of the stable
``graph.sort_keys``), which Algorithm 3's small ``Z_ℓ`` levels also use.
Every path adds each sum's terms in input order, so blocks, threads, sort
and switch never change a bit of a result.

Conventions (see ``graphs/graph.py``): ``P(i, j) = 1/d_in(j)`` for each edge
``i -> j``.  Hence::

    (P  · v)(i) = Σ_{edges i->j} v(j) / d_in(j)      — "pull" along edges
    (Pᵀ · v)(j) = Σ_{edges i->j} v(i) / d_in(j)      — "push" along edges
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Iterator

import numpy as np

from repro.graphs.graph import CSRGraph, sort_keys

#: Pushed edges per block in :func:`push_blocks`: a block's targets,
#: weights and sort keys (8 bytes each per edge) stay within a core's L2.
BLOCK = 1 << 16

#: Threads that push the blocks of a multi-block :func:`push_blocks` call.
#: On a 4-core x86 host two threads cut DB-lite's heaviest Algorithm-3 head
#: (source 23086, ε = 1e-4) from 0.57 to 0.40 s; four ran no faster than
#: two, and blocks of 2^17 or 2^18 edges were no faster than 2^16.  Each
#: thread costs a glibc malloc arena: an IT-lite query loop's peak RSS rose
#: 7% with two threads and 15-16% with four, whatever the blocks in flight.
PUSH_THREADS = 2

#: Costs of :func:`matvec_PT`'s two paths, in ns, measured on a 4-core x86
#: host over the vectors DB-lite and IT-lite queries pass it: summing the
#: whole edge list costs ~6 ns per edge, summing a support's out-edge ranges
#: ~40 ns per support node plus ~14 ns per support edge.
FULL_EDGE_NS = 6
SUPPORT_NODE_NS = 40
SUPPORT_EDGE_NS = 14

#: A support of more than ``n / DENSE_SUPPORT`` nodes counts its out-edges
#: over the whole ``v != 0`` mask (~2 ns per node) before it gathers its
#: ranges, so that where the whole list wins (dense vectors on graphs of
#: average out-degree above ~6.7, such as IT-lite) nothing is gathered.  On
#: DB- and IT-lite the count and the gathers cost the same at an eighth of
#: the nodes; below that the gathers cost less.
DENSE_SUPPORT = 8


def matvec_P(csr: CSRGraph, v: np.ndarray) -> np.ndarray:
    """``P · v`` via one weighted bincount over the edge list."""
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    d = csr.din[csr.dst].astype(np.float64)
    w = v[csr.dst] / d
    return np.bincount(csr.src, weights=w, minlength=csr.n)


def matvec_PT(csr: CSRGraph, v: np.ndarray) -> np.ndarray:
    """``Pᵀ · v`` via one weighted bincount over the out-edges of ``v``'s support.

    The edge list is sorted by source, so each support node's out-edges are
    one contiguous range.  Gathering those ranges costs about
    :data:`SUPPORT_NODE_NS` per support node and :data:`SUPPORT_EDGE_NS` per
    support edge; when that exceeds :data:`FULL_EDGE_NS` per edge of the
    whole list, the whole list is summed instead.  A support whose nodes
    alone cost more skips the range lookups, and a dense one (see
    :data:`DENSE_SUPPORT`) prices its edges from out-degrees before it
    gathers.  Either way every target adds its terms in increasing source
    order and only zero terms are skipped, so both give the same bits.
    """
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    nz = v != 0
    nnz = int(np.count_nonzero(nz))
    full_ns = FULL_EDGE_NS * csr.m
    nodes_ns = SUPPORT_NODE_NS * nnz
    out = None
    if nodes_ns < full_ns and (
        DENSE_SUPPORT * nnz <= csr.n
        or nodes_ns + SUPPORT_EDGE_NS * int(np.diff(csr.out_indptr) @ nz) < full_ns
    ):
        sup = np.flatnonzero(nz)
        first = csr.out_indptr[sup]
        counts = csr.out_indptr[sup + 1] - first
        if nodes_ns + SUPPORT_EDGE_NS * int(counts.sum()) < full_ns:
            edge = ranges(first, counts)
            out = np.bincount(csr.dst[edge], weights=np.repeat(v[sup], counts), minlength=csr.n)
    if out is None:
        out = np.bincount(csr.dst, weights=v[csr.src], minlength=csr.n)
    # A node without in-edges received no terms: 0 / 1 keeps its 0.
    return out / np.maximum(csr.din, 1)


def push_blocks(
    csr: CSRGraph, keys: np.ndarray, val: np.ndarray, *, prune: float = 0.0
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Sparse ``P · v`` by local push, for one or many vectors at once, one
    block of whole rows at a time.

    ``keys = row·n + node`` names entry ``node`` of vector ``row``; a caller
    pushing a single vector passes plain node ids.  ``P·v`` gathers
    ``v(j)/d_in(j)`` into every ``i ∈ I(j)`` — structurally, each entry is
    *pushed* along the reversed edges, within its own row.  This is the
    local-push primitive of the forward pass and of Algorithm 3's BFS (where
    the same operation realizes ``M^t`` rows, since ``P = Mᵀ`` for the walk
    transition ``M``).  Entries landing at ``|value| <= prune`` are dropped.

    Yields each block's ``(keys, values, edges_traversed)``, keys sorted;
    the traversal count feeds the adaptive budgets, and a caller that folds
    its own work into the blocks (Algorithm 3's ``Z_ℓ``) never holds the
    whole output.  A push of more than :data:`BLOCK` edges runs in blocks of
    whole rows, about ``BLOCK`` edges each and keyed from the block's first
    row, whose temporaries stay in cache.  Its rows must come in ascending
    order, each row's entries together: then a row never spans two blocks,
    each key still adds its terms in input order, and the blocks come out in
    key order.  The blocks of a push of more than one block are computed on
    :data:`PUSH_THREADS` threads, at most ``2·PUSH_THREADS`` of them ahead of
    the caller, and yielded in block order, so the caller sees the same
    sequence, bit for bit, as from one thread; a push of one block starts no
    thread.  Entries at dead ends push nothing; a push with no edges yields
    no block.
    """
    n = csr.n
    node = keys % n
    counts = csr.din[node]
    if not counts.all():  # mass at a dead end vanishes
        keep = counts > 0
        keys, node, val, counts = keys[keep], node[keep], val[keep], counts[keep]
    if keys.size == 0:
        return
    base = keys - node  # row·n
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total <= BLOCK:
        yield *_push(csr, base, node, val, counts, prune), total
        return
    starts = np.flatnonzero(base[1:] != base[:-1]) + 1
    if np.any(base[starts] < base[starts - 1]):
        raise ValueError("rows must come in ascending order")
    # Cut before the first row starting past each multiple of BLOCK edges.
    cuts = starts[np.flatnonzero(np.diff(ends[starts - 1] // BLOCK, prepend=0))]
    bounds = [0, *cuts.tolist(), keys.size]

    def block(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
        first = base[lo]
        k, a = _push(csr, base[lo:hi] - first, node[lo:hi], val[lo:hi], counts[lo:hi], prune)
        k += first
        return k, a, int(ends[hi - 1] - (ends[lo - 1] if lo else 0))

    if len(bounds) == 2:  # one block, such as a forward hop's one row
        yield block(0, keys.size)
        return
    todo = zip(bounds[:-1], bounds[1:])
    pool = ThreadPoolExecutor(PUSH_THREADS)
    try:
        running = deque(pool.submit(block, lo, hi) for lo, hi in islice(todo, 2 * PUSH_THREADS))
        while running:
            done = running.popleft().result()
            for lo, hi in islice(todo, 1):
                running.append(pool.submit(block, lo, hi))
            yield done
    finally:  # also when the caller stops early: drop queued blocks, join threads
        pool.shutdown(cancel_futures=True)


def _push(
    csr: CSRGraph, base: np.ndarray, node: np.ndarray, val: np.ndarray, counts: np.ndarray,
    prune: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`push_blocks`; ``base`` holds each entry's ``row·n``."""
    # Entry e owns in_neighbors[in_indptr[node_e] :][: counts_e].
    edges = ranges(csr.in_indptr[node], counts)
    target = np.repeat(base, counts) + csr.in_neighbors[edges]
    w = np.repeat(val / counts, counts)
    return accumulate(target, w, int(base.max()) + csr.n, prune=prune)


def ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``first[k] .. first[k] + counts[k] - 1``, for every ``k``
    in order: a running counter shifted by each range's offset."""
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(shift.size)


def accumulate(
    keys: np.ndarray, w: np.ndarray, span: int, *, prune: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``w`` per key in ``[0, span)``; sums with ``|sum| <= prune`` drop.

    A dense ``np.bincount`` when there are at least ``span`` terms (so it is
    never larger than the inputs), a sort otherwise: :func:`sort_keys`
    orders the terms by key and, within a key, by input position, and a
    bincount over the sorted run ids sums them.  Both paths add each key's
    terms in input order, so the choice never changes a bit of the result.
    Returns the sorted keys and their sums.
    """
    if keys.size >= span:
        acc = np.bincount(keys, weights=w, minlength=span)
        out = np.flatnonzero(np.abs(acc) > prune)
        return out, acc[out]
    sorted_keys, order = sort_keys(keys, span)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    run = np.cumsum(first)
    run -= 1
    acc = np.bincount(run, weights=w[order])
    keep = np.abs(acc) > prune
    return sorted_keys[first][keep], acc[keep]
