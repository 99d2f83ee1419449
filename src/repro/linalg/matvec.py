"""Sparse matrix–vector products for the (reverse) transition matrix ``P``.

Mat-vecs take and return dense vectors (they live in driver memory,
DESIGN.md §3) and sum with one ``np.bincount`` over edges.  :func:`matvec_PT`
sums only the out-edges of the input's support when its measured price says
that beats the whole edge list, so the backward pass pays for the edges it
uses, not for all ``m``.  :func:`push_blocks` is the one local-push
kernel: its cost scales with the pushed support, and it advances many sparse
vectors at once through ``row·n + node`` keys, in cache-sized blocks of
whole rows that it yields one by one.  :func:`expand_sparse` concatenates
them; the forward pass and the PRSim-lite index use it, and Algorithm 3's
``M^t`` rows consume the blocks as they come.  Its sums go through
:func:`accumulate` (a dense bincount, or a sort: one packed ``np.sort`` for
many terms, ``np.unique`` for few), which Algorithm 3's small ``Z_ℓ`` levels
also use.  Every path adds each sum's terms in input order, so blocks, sort
and switch never change a bit of a result.

Conventions (see ``graphs/graph.py``): ``P(i, j) = 1/d_in(j)`` for each edge
``i -> j``.  Hence::

    (P  · v)(i) = Σ_{edges i->j} v(j) / d_in(j)      — "pull" along edges
    (Pᵀ · v)(j) = Σ_{edges i->j} v(i) / d_in(j)      — "push" along edges
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphs.graph import CSRGraph

#: Pushed edges per block in :func:`push_blocks`: a block's targets,
#: weights and sort keys (8 bytes each per edge) stay within a core's L2.
BLOCK = 1 << 16

#: Below this many terms :func:`accumulate` sorts with ``np.unique``, whose
#: fewer numpy calls cost less than the packed sort's; above it the packed
#: sort wins (1.4× on 6,000 and on 60,000 terms).
SMALL_SORT = 1024

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


def expand_sparse(
    csr: CSRGraph, keys: np.ndarray, val: np.ndarray, *, prune: float = 0.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sparse ``P · v`` by local push, for one or many vectors at once.

    ``keys = row·n + node`` names entry ``node`` of vector ``row``; a caller
    pushing a single vector passes plain node ids.  ``P·v`` gathers
    ``v(j)/d_in(j)`` into every ``i ∈ I(j)`` — structurally, each entry is
    *pushed* along the reversed edges, within its own row.  This is the
    local-push primitive of PRSim, of the forward pass and of Algorithm 3's
    BFS (where the same operation realizes ``M^t`` rows, since ``P = Mᵀ``
    for the walk transition ``M``).  Entries landing at ``|value| <= prune``
    are dropped.  Returns ``(keys, values, edges_traversed)`` with the keys
    sorted; the traversal count feeds the adaptive budgets.  It is the
    concatenation of :func:`push_blocks`' blocks.
    """
    blocks = list(push_blocks(csr, keys, val, prune=prune))
    if not blocks:
        return keys[:0], val[:0], 0
    if len(blocks) == 1:
        return blocks[0]
    out, acc, edges = zip(*blocks)
    return np.concatenate(out), np.concatenate(acc), sum(edges)


def push_blocks(
    csr: CSRGraph, keys: np.ndarray, val: np.ndarray, *, prune: float = 0.0
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """:func:`expand_sparse`'s push, one block of whole rows at a time.

    Yields each block's ``(keys, values, edges_traversed)``, keys sorted;
    a caller that folds its own work into the blocks (Algorithm 3's
    ``Z_ℓ``) never holds the whole output.  A push of more than
    :data:`BLOCK` edges runs in blocks of whole rows, about ``BLOCK`` edges
    each and keyed from the block's first row, whose temporaries stay in
    cache.  Its rows must come in ascending order, each row's entries
    together: then a row never spans two blocks, each key still adds its
    terms in input order, and the blocks come out in key order.  Entries at
    dead ends push nothing; a push with no edges yields no block.
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
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first = base[lo]
        k, a = _push(csr, base[lo:hi] - first, node[lo:hi], val[lo:hi], counts[lo:hi], prune)
        k += first
        yield k, a, int(ends[hi - 1] - (ends[lo - 1] if lo else 0))


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
    never larger than the inputs), a sort otherwise.  The sort packs each
    key with its input position into one ``int64``, ``key << b | i``, so one
    plain ``np.sort`` orders the terms by key and, within a key, by input
    position; a bincount over the sorted run ids then sums them.  Fewer than
    :data:`SMALL_SORT` terms, or keys too wide to pack, take ``np.unique``.
    Every path adds each key's terms in
    input order, so the choice never changes a bit of the result.  Returns
    the sorted keys and their sums.
    """
    if keys.size >= span:
        acc = np.bincount(keys, weights=w, minlength=span)
        out = np.flatnonzero(np.abs(acc) > prune)
        return out, acc[out]
    b = (keys.size - 1).bit_length()
    if keys.size < SMALL_SORT or (span - 1).bit_length() + b > 63:
        uniq, inv = np.unique(keys, return_inverse=True)
        acc = np.bincount(inv, weights=w, minlength=uniq.size)
    else:
        packed = keys << b
        packed |= np.arange(keys.size)
        packed.sort()
        sorted_keys = packed >> b
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        uniq = sorted_keys[first]
        run = np.cumsum(first)
        run -= 1
        packed &= (1 << b) - 1  # each sorted term's input position
        acc = np.bincount(run, weights=w[packed], minlength=uniq.size)
    keep = np.abs(acc) > prune
    return uniq[keep], acc[keep]
