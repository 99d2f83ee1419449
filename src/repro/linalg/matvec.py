"""Sparse matrix–vector products for the (reverse) transition matrix ``P``.

Dense mat-vecs are one ``np.bincount`` over the edge list (the vectors live
in driver memory, DESIGN.md §3); :func:`expand_sparse` is the local-push
form whose cost scales with the vector's support.

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
    """``Pᵀ · v`` via one weighted bincount over the edge list."""
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    out = np.bincount(csr.dst, weights=v[csr.src], minlength=csr.n)
    nz = csr.din > 0
    out[nz] = out[nz] / csr.din[nz]
    return out


def expand_sparse(
    csr: CSRGraph, idx: np.ndarray, val: np.ndarray, *, prune: float = 0.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sparse ``P · v`` by local push: distribute each entry to in-neighbors.

    ``P·v`` gathers ``v(j)/d_in(j)`` into every ``i ∈ I(j)`` — structurally,
    each nonzero entry is *pushed* along the reversed edges, which is the
    local-push primitive of PRSim and of Algorithm 3's BFS (where the same
    operation realizes ``M^t`` rows, since ``P = Mᵀ`` for the walk transition
    ``M``).  Entries landing at a value ``<= prune`` are dropped.  Returns
    ``(indices, values, edges_traversed)`` — the traversal count feeds the
    adaptive budgets.
    """
    keep = csr.din[idx] > 0
    idx, val = idx[keep], val[keep]
    if idx.size == 0:
        return idx, val, 0
    counts = csr.din[idx]
    total = int(counts.sum())
    rep = np.repeat(np.arange(idx.size), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    nbr = csr.in_neighbors[csr.in_indptr[idx][rep] + offsets]
    w = (val / counts)[rep]
    uniq, inv = np.unique(nbr, return_inverse=True)
    acc = np.bincount(inv, weights=w, minlength=uniq.size)
    keep2 = np.abs(acc) > prune
    return uniq[keep2], acc[keep2], total
