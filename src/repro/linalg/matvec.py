"""Sparse matrix–vector products for the (reverse) transition matrix ``P``.

Mat-vecs take and return dense vectors (they live in driver memory,
DESIGN.md §3) and sum with one ``np.bincount`` over edges.  :func:`matvec_PT`
sums only the out-edges of the input's support, so the backward pass pays
for the edges it uses, not for all ``m``.  :func:`expand_sparse` is the one
local-push kernel: its cost scales with the pushed support, and it advances
many sparse vectors at once through ``row·n + node`` keys.  The forward
pass, the PRSim-lite index and Algorithm 3's ``M^t`` rows all use it.  Its
sums go through :func:`accumulate`, which Algorithm 3's ``Z_ℓ`` also uses.

Conventions (see ``graphs/graph.py``): ``P(i, j) = 1/d_in(j)`` for each edge
``i -> j``.  Hence::

    (P  · v)(i) = Σ_{edges i->j} v(j) / d_in(j)      — "pull" along edges
    (Pᵀ · v)(j) = Σ_{edges i->j} v(i) / d_in(j)      — "push" along edges
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import CSRGraph


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
    one contiguous range.  When those ranges cover at least half the edges,
    the whole list is summed instead.  Either way every target adds its
    terms in increasing source order and only zero terms are skipped, so
    both give the same bits.
    """
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    sup = np.flatnonzero(v)
    first = csr.out_indptr[sup]
    counts = csr.out_indptr[sup + 1] - first
    total = int(counts.sum())
    if 2 * total >= csr.m:
        out = np.bincount(csr.dst, weights=v[csr.src], minlength=csr.n)
    else:
        edge = _ranges(first, counts)
        out = np.bincount(csr.dst[edge], weights=np.repeat(v[sup], counts), minlength=csr.n)
    nz = csr.din > 0
    out[nz] = out[nz] / csr.din[nz]
    return out


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
    sorted; the traversal count feeds the adaptive budgets.
    """
    n = csr.n
    node = keys % n
    counts = csr.din[node]
    keep = counts > 0  # mass at a dead end vanishes
    keys, node, val, counts = keys[keep], node[keep], val[keep], counts[keep]
    if keys.size == 0:
        return keys, val, 0
    # Entry e owns in_neighbors[in_indptr[node_e] :][: counts_e].
    edges = _ranges(csr.in_indptr[node], counts)
    target = np.repeat(keys - node, counts) + csr.in_neighbors[edges]
    w = np.repeat(val / counts, counts)
    out, acc = accumulate(target, w, (int(keys.max()) // n + 1) * n, prune=prune)
    return out, acc, edges.size


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``first[k] .. first[k] + counts[k] - 1``, for every ``k``
    in order: a running counter shifted by each range's offset."""
    shift = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(shift.size)


def accumulate(
    keys: np.ndarray, w: np.ndarray, span: int, *, prune: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``w`` per key in ``[0, span)``; sums with ``|sum| <= prune`` drop.

    A dense ``np.bincount`` when there are at least ``span`` terms (so it is
    never larger than the inputs), ``np.unique`` otherwise.  Both add each
    key's terms in input order, so the choice never changes a bit of the
    result.  Returns the sorted keys and their sums.
    """
    if keys.size >= span:
        acc = np.bincount(keys, weights=w, minlength=span)
        out = np.flatnonzero(np.abs(acc) > prune)
        return out, acc[out]
    uniq, inv = np.unique(keys, return_inverse=True)
    acc = np.bincount(inv, weights=w, minlength=uniq.size)
    keep = np.abs(acc) > prune
    return uniq[keep], acc[keep]
