"""Deterministic synthetic graph generators + the Table-2 dataset registry.

The paper evaluates on SNAP/LAW graphs that are unavailable offline (and at
billion-edge scale, beyond one container).  These generators produce
deterministic analogs that preserve what the algorithms actually depend on:
directed/undirected type, density ordering, and heavy-tailed (power-law)
degree distributions — the property behind PRSim's and ExactSim's ``‖π‖²``
optimization (see DESIGN.md §4 for the substitution argument).

Every generator is a pure function of its ``seed``; tests rely on that to use
the DuckDB oracle over identical inputs.
"""
from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.graph import Graph, from_edges


def _dedup(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate edges, preserving determinism.

    This stays on ``np.unique`` rather than ``graph.sort_keys``.  On a
    4-core x86 host the packed sort made an IT-lite load 1.2 → 0.87 s, but
    left more heap resident after the build (269 → 395 MB after three
    loads), and the benchmark's it-opt-coarse ``peak_rss_mb``, which starts
    from that residue, read 306 → 347-427 MB, against a 15% bound.
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = src.astype(np.int64) * n + dst
    _, idx = np.unique(key, return_index=True)
    idx.sort()
    return src[idx], dst[idx]


def _symmetrize(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize both directions of an undirected edge set."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    lo, hi = _dedup(n, lo, hi)
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def erdos_renyi(n: int, m_target: int, *, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected G(n, m)-style uniform random graph with ~``m_target`` edges.

    ``m_target`` counts distinct undirected edges; the returned arrays
    contain both directions.
    """
    g = np.random.default_rng(seed)
    # Oversample to survive dedup, then trim deterministically.
    k = int(m_target * 1.3) + 16
    src = g.integers(0, n, k)
    dst = g.integers(0, n, k)
    lo, hi = _dedup(n, np.minimum(src, dst), np.maximum(src, dst))
    lo, hi = lo[:m_target], hi[:m_target]
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def preferential_attachment(
    n: int, m_per_node: int, *, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Barabási–Albert undirected graph: power-law degrees, like the CA-* sets.

    Each arriving node attaches to ``m_per_node`` targets drawn from the
    degree-biased repeated-endpoint list (the standard BA construction).
    Returns a symmetric directed edge list.
    """
    g = np.random.default_rng(seed)
    if n <= m_per_node:
        raise ValueError("need n > m_per_node")
    # Endpoint pool implements degree-proportional sampling.
    pool = list(range(m_per_node + 1)) * 2
    srcs: list[int] = []
    dsts: list[int] = []
    # Seed clique over the first m_per_node+1 nodes.
    for i in range(m_per_node + 1):
        for j in range(i + 1, m_per_node + 1):
            srcs.append(i)
            dsts.append(j)
    for v in range(m_per_node + 1, n):
        targets: set[int] = set()
        while len(targets) < m_per_node:
            targets.add(pool[g.integers(0, len(pool))])
        for t in targets:
            srcs.append(v)
            dsts.append(t)
            pool.append(v)
            pool.append(t)
    src = np.array(srcs, dtype=np.int64)
    dst = np.array(dsts, dtype=np.int64)
    return _symmetrize(n, src, dst)


def powerlaw_directed(
    n: int,
    m_target: int,
    *,
    seed: int,
    alpha_out: float = 0.9,
    alpha_in: float = 0.9,
) -> Tuple[np.ndarray, np.ndarray]:
    """Directed configuration-style graph with zipfian in/out degree skew.

    Endpoints are drawn independently from two zipf(α) rank distributions over
    independently shuffled node orders, mimicking web/social graphs (Wikivote,
    IndoChina, It-2004, Twitter) where hub in-degrees follow a power law.
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)

    def draw(alpha: float, k: int, perm_seed: int) -> np.ndarray:
        w = ranks**-alpha
        w /= w.sum()
        perm = np.random.default_rng(perm_seed).permutation(n)
        return perm[g.choice(n, size=k, p=w)]

    k = int(m_target * 1.25) + 16
    src = draw(alpha_out, k, seed + 101)
    dst = draw(alpha_in, k, seed + 202)
    src, dst = _dedup(n, src, dst)
    return src[:m_target], dst[:m_target]


# ---------------------------------------------------------------------------
# Dataset registry — lite analogs of the paper's Table 2 (see DESIGN.md §4).
# ---------------------------------------------------------------------------

_Gen = Callable[[], Tuple[int, bool, np.ndarray, np.ndarray]]


REGISTRY: Dict[str, _Gen] = {
    "GQ-lite": lambda: (500, False, *preferential_attachment(500, 3, seed=11)),
    "HT-lite": lambda: (1000, False, *erdos_renyi(1000, 2600, seed=12)),
    "WV-lite": lambda: (
        700, True, *powerlaw_directed(700, 10_000, seed=13, alpha_out=0.7, alpha_in=0.9)
    ),
    "HP-lite": lambda: (1200, False, *preferential_attachment(1200, 10, seed=14)),
    "DB-lite": lambda: (40_000, False, *preferential_attachment(40_000, 3, seed=15)),
    "IC-lite": lambda: (
        30_000, True, *powerlaw_directed(30_000, 775_000, seed=16, alpha_out=0.8, alpha_in=0.95)
    ),
    "IT-lite": lambda: (
        80_000, True, *powerlaw_directed(80_000, 2_200_000, seed=17, alpha_out=0.8, alpha_in=0.95)
    ),
    "TW-lite": lambda: (
        80_000, True, *powerlaw_directed(80_000, 2_800_000, seed=18, alpha_out=0.75, alpha_in=1.0)
    ),
}
SMALL_DATASETS = ["GQ-lite", "HT-lite", "WV-lite", "HP-lite"]
LARGE_DATASETS = ["DB-lite", "IC-lite", "IT-lite", "TW-lite"]

_CACHE: Dict[str, Graph] = {}


def load(name: str, spark: Optional[SparkSession] = None) -> Graph:
    """Load a registry graph (process-cached; the CSR build is deterministic)."""
    if name not in REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}")
    if name not in _CACHE:
        n, directed, src, dst = REGISTRY[name]()
        _CACHE[name] = from_edges(name, n, src, dst, directed=directed, spark=spark)
    g = _CACHE[name]
    if spark is not None and g.spark is None:
        g.spark = spark
    return g


def tiny_cycle(k: int = 4) -> Graph:
    """Directed k-cycle — hand-analyzable test graph."""
    src = np.arange(k, dtype=np.int64)
    dst = (src + 1) % k
    return from_edges(f"cycle{k}", k, src, dst, directed=True)


def tiny_star(k: int = 5) -> Graph:
    """Undirected star with center 0 and k leaves — hand-analyzable."""
    leaves = np.arange(1, k + 1, dtype=np.int64)
    src = np.concatenate([np.zeros(k, dtype=np.int64), leaves])
    dst = np.concatenate([leaves, np.zeros(k, dtype=np.int64)])
    return from_edges(f"star{k}", k + 1, src, dst, directed=False)
