"""Directed-graph substrate shared by every algorithm in the reproduction.

A :class:`Graph` holds its edge set as numpy arrays (edge lists, in-degrees,
in- and out-adjacency CSR) — the vectorized kernel side, broadcast once per
graph to executors for the D-estimation phase (the per-item kernels that
:func:`run_partitioned` runs index into them directly).  ``edges_pdf()`` is
the DuckDB oracle's input.

Edge semantics follow the paper: a directed edge ``u -> v`` makes ``u`` an
*in-neighbor* of ``v`` (``u ∈ I(v)``).  The reverse transition matrix is
``P(i, j) = 1 / d_in(v_j)`` for ``v_i ∈ I(v_j)``, i.e. one weighted entry per
edge ``(i -> j)``.  Undirected graphs are materialized with both directions
present, so ``I(v)`` equals the neighbor set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


@dataclass(frozen=True)
class CSRGraph:
    """Plain-numpy view of a graph, cheap to pickle into a Spark broadcast.

    ``in_indptr``/``in_neighbors`` form a CSR over *in*-adjacency: the
    in-neighbors of node ``v`` are ``in_neighbors[in_indptr[v]:in_indptr[v+1]]``.
    A (√c-)walk step from ``v`` picks uniformly from that slice; ``din[v] == 0``
    forces the walk to stop (the paper's dead-end semantics).

    The edge list is sorted by ``(src, dst)``, so it doubles as the
    out-adjacency: the out-edges of node ``u`` are ``src``/``dst`` positions
    ``out_indptr[u]:out_indptr[u+1]``.
    """

    n: int
    src: np.ndarray  # int64 [m] — edge sources, sorted
    dst: np.ndarray  # int64 [m] — edge destinations, sorted within each source
    din: np.ndarray  # int64 [n] — in-degrees
    in_indptr: np.ndarray  # int64 [n+1]
    in_neighbors: np.ndarray  # int64 [m]
    out_indptr: np.ndarray  # int64 [n+1]

    @property
    def m(self) -> int:
        return int(self.src.shape[0])

    def in_neigh(self, v: int) -> np.ndarray:
        """In-neighbor ids of node ``v`` (possibly empty)."""
        return self.in_neighbors[self.in_indptr[v] : self.in_indptr[v + 1]]

    def csr_bytes(self) -> int:
        """Graph size as int32 CSR adjacency, both directions — the storage
        convention the paper's Table 3 'Graph size' row corresponds to
        (its per-edge byte cost is ~8-10 B)."""
        return 2 * (4 * self.m + 4 * (self.n + 1))


def sort_keys(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort non-negative int64 ``keys`` below ``span``.

    Returns ``(keys[order], order)``, where equal keys keep their input
    order.  When a key fits beside its input position in 63 bits, one plain
    ``np.sort`` of ``key << b | position`` sorts both at once: on IT-lite's
    2.2M edge targets that takes 45 ms, a stable ``argsort`` 250 ms.  Wider
    keys take ``np.argsort(kind="stable")``.  ``keys`` is never written.
    """
    b = (keys.size - 1).bit_length()
    if (span - 1).bit_length() + b > 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << b
    packed |= np.arange(keys.size)
    packed.sort()
    order = packed & ((1 << b) - 1)
    packed >>= b
    return packed, order


def build_csr(n: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Build the in-adjacency CSR and the source-sorted edge list.

    Edges must already be deduplicated and self-loop free; both are validated
    because a duplicate edge silently changes transition probabilities.  Each
    ``in_neighbors`` slice keeps the input order of its edges, which fixes
    the neighbour a walk draw selects.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst length mismatch")
    if src.size and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError("node id out of range")
    if np.any(src == dst):
        raise ValueError("self-loops are not allowed")
    key = np.sort(src * n + dst)
    if np.any(key[1:] == key[:-1]):
        raise ValueError("duplicate edges are not allowed")
    din = np.bincount(dst, minlength=n).astype(np.int64)
    in_neighbors = src[sort_keys(dst, n)[1]]
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(din, out=in_indptr[1:])
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])
    src, dst = np.divmod(key, n)
    return CSRGraph(
        n=n,
        src=src,
        dst=dst,
        din=din,
        in_indptr=in_indptr,
        in_neighbors=in_neighbors,
        out_indptr=out_indptr,
    )


@dataclass
class Graph:
    """A named graph: its numpy CSR and, for the Spark engine, a session."""

    name: str
    directed: bool
    csr: CSRGraph
    spark: Optional[SparkSession] = None
    _bc = None  # pyspark Broadcast of the CSRGraph

    @property
    def n(self) -> int:
        return self.csr.n

    @property
    def m(self) -> int:
        return self.csr.m

    def edges_pdf(self) -> pd.DataFrame:
        """Edge list as pandas — the DuckDB oracle's input table."""
        return pd.DataFrame({"src": self.csr.src, "dst": self.csr.dst})

    def broadcast_csr(self):
        """Broadcast the numpy CSR once; reused by every :func:`run_partitioned`."""
        if self._bc is None:
            if self.spark is None:
                raise RuntimeError("Graph was built without a SparkSession")
            self._bc = self.spark.sparkContext.broadcast(self.csr)
        return self._bc

    # ------------------------------------------------------------------
    # Dense references (small graphs only — test oracles).
    # ------------------------------------------------------------------
    def dense_P(self) -> np.ndarray:
        """Dense reverse transition matrix ``P`` (n×n); small graphs only."""
        if self.n > 5000:
            raise ValueError("dense_P is a small-graph test oracle")
        P = np.zeros((self.n, self.n))
        d = self.csr.din[self.csr.dst].astype(float)
        np.add.at(P, (self.csr.src, self.csr.dst), 1.0 / d)
        return P


def run_partitioned(
    graph: Graph,
    items: list,
    kernel: Callable[[CSRGraph, Any], Any],
    engine: str,
) -> list:
    """``kernel(csr, item)`` for every item, in-process or on Spark.

    ``engine='local'`` calls the kernel on each item in turn.
    ``engine='spark'`` deals the items round-robin into ``par = max(2,
    defaultParallelism)`` groups (at most one per item) and runs them as one
    RDD job of ``par`` tasks: item ``i`` lands in partition ``i % par``, where
    the kernel runs on it against the broadcast CSR graph, and the results
    come back pickled — the paper's parallelization of the D estimation
    (§3.2).  An empty list runs no job.  Result order is unspecified, so a
    result should name its item; a kernel that draws random numbers must seed
    them per item so both engines return the same results.
    """
    if engine not in ("local", "spark"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "local" or not items:
        return [kernel(graph.csr, item) for item in items]
    bc = graph.broadcast_csr()
    sc = graph.spark.sparkContext
    # One task per core: each Python task holds a core for a fixed start-up
    # cost, so one task per item would queue most items behind that cost.
    par = min(max(2, sc.defaultParallelism), len(items))
    groups = [items[i::par] for i in range(par)]
    return (
        sc.parallelize(groups, par)
        .flatMap(lambda group: [kernel(bc.value, item) for item in group])
        .collect()
    )


def from_edges(
    name: str,
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    directed: bool,
    spark: Optional[SparkSession] = None,
) -> Graph:
    """Construct a :class:`Graph`; undirected inputs must already be symmetric."""
    return Graph(name=name, directed=directed, csr=build_csr(n, src, dst), spark=spark)
