"""Graph substrate: CSR construction, transition matrix, DuckDB oracle
parity, the local/Spark per-row executor."""
import time

import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext

from repro.graphs import generators as gen
from repro.graphs.graph import build_csr, from_edges, run_partitioned
from repro.oracle import assert_equivalent
from tests.helpers import TRANSITION_SQL

SMALL = gen.SMALL_DATASETS


# ---------------------------------------------------------------------------
# CSR construction and validation
# ---------------------------------------------------------------------------


def test_build_csr_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_csr(3, np.array([0, 1]), np.array([1, 1]))


def test_build_csr_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        build_csr(3, np.array([0, 0]), np.array([1, 1]))
    # Apart in the input, together once the edges are sorted.
    with pytest.raises(ValueError, match="duplicate"):
        build_csr(3, np.array([0, 2, 1, 0]), np.array([1, 0, 2, 1]))


def test_build_csr_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_csr(2, np.array([0]), np.array([5]))


def test_build_csr_rejects_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        build_csr(3, np.array([0, 1]), np.array([1]))


def test_csr_empty_graph():
    csr = build_csr(4, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert csr.m == 0
    assert csr.din.tolist() == [0, 0, 0, 0]
    assert csr.in_neigh(2).size == 0


@pytest.mark.parametrize("name", SMALL)
def test_csr_in_degree_consistency(name):
    g = gen.load(name)
    csr = g.csr
    assert csr.din.sum() == csr.m
    assert csr.in_indptr[-1] == csr.m
    recomputed = np.bincount(csr.dst, minlength=csr.n)
    np.testing.assert_array_equal(csr.din, recomputed)


@pytest.mark.parametrize("name", SMALL)
def test_csr_edges_sorted_with_out_indptr(name):
    """The edge list is sorted by ``(src, dst)`` and ``out_indptr`` delimits
    each source's run, while ``in_neighbors`` keeps the input edge order
    within each target (the order walk draws index into)."""
    n, _, src, dst = gen.REGISTRY[name]()
    csr = build_csr(n, src, dst)
    key = csr.src * n + csr.dst
    assert (np.diff(key) > 0).all()
    np.testing.assert_array_equal(np.sort(key), np.sort(np.asarray(src) * n + dst))
    np.testing.assert_array_equal(np.diff(csr.out_indptr), np.bincount(src, minlength=n))
    assert csr.out_indptr[0] == 0
    np.testing.assert_array_equal(csr.in_neighbors, src[np.argsort(dst, kind="stable")])


@pytest.mark.parametrize("name", SMALL)
def test_csr_in_neighbors_match_edges(name):
    g = gen.load(name)
    csr = g.csr
    # Every CSR slice must hold exactly the sources of edges into that node.
    rng = np.random.default_rng(0)
    for v in rng.choice(g.n, size=20, replace=False):
        expected = sorted(csr.src[csr.dst == v].tolist())
        assert sorted(csr.in_neigh(int(v)).tolist()) == expected


@pytest.mark.parametrize("name", ["GQ-lite", "HT-lite", "HP-lite"])
def test_undirected_graphs_are_symmetric(name):
    g = gen.load(name)
    assert not g.directed
    fwd = set(zip(g.csr.src.tolist(), g.csr.dst.tolist()))
    assert all((d, s) in fwd for s, d in fwd)


def test_dense_P_column_stochastic():
    g = gen.load("GQ-lite")
    P = g.dense_P()
    sums = P.sum(axis=0)
    has_in = g.csr.din > 0
    np.testing.assert_allclose(sums[has_in], 1.0, atol=1e-12)
    np.testing.assert_allclose(sums[~has_in], 0.0, atol=0)


def test_dense_P_entries_match_definition():
    g = gen.tiny_star(3)
    P = g.dense_P()
    # Leaves have in-degree 1 (the center); center has in-degree 3.
    for leaf in (1, 2, 3):
        assert P[0, leaf] == 1.0  # P(center, leaf) = 1/d_in(leaf)
        assert P[leaf, 0] == pytest.approx(1.0 / 3.0)


def test_dense_P_guard_on_large_graph():
    g = gen.load("DB-lite")
    with pytest.raises(ValueError, match="small-graph"):
        g.dense_P()


# ---------------------------------------------------------------------------
# DuckDB oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["GQ-lite", "WV-lite"])
def test_transition_weights_oracle(name):
    g = gen.load(name)
    src, dst = g.csr.src, g.csr.dst
    got = pd.DataFrame({"src": src, "dst": dst, "w": g.dense_P()[src, dst]})
    assert_equivalent(got, TRANSITION_SQL, edges=g.edges_pdf())


def test_transition_df_weights_sum_to_one():
    """Grouped per target, ``P``'s weighted edges ``(src, dst, w)`` sum to one."""
    g = gen.load("GQ-lite")
    src, dst = g.csr.src, g.csr.dst
    weighted = pd.DataFrame({"dst": dst, "w": g.dense_P()[src, dst]})
    sums = weighted.groupby("dst")["w"].sum().to_numpy()
    assert sums.size == np.count_nonzero(g.csr.din)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_indegree_oracle():
    g = gen.load("HT-lite")
    has_in = np.flatnonzero(g.csr.din)
    assert_equivalent(
        pd.DataFrame({"dst": has_in, "din": g.csr.din[has_in]}),
        "SELECT dst, COUNT(*) AS din FROM edges GROUP BY dst",
        edges=g.edges_pdf(),
    )


def test_graph_without_spark_session_raises():
    g = from_edges("t", 3, np.array([0]), np.array([1]), directed=True)
    with pytest.raises(RuntimeError, match="SparkSession"):
        g.broadcast_csr()


# ---------------------------------------------------------------------------
# run_partitioned
# ---------------------------------------------------------------------------


def _degree_kernel(csr, node: int) -> tuple:
    """Toy per-item kernel: a node's in-degree, tagged with the node and
    with the Spark partition that computed it (-1 in-process)."""
    ctx = TaskContext.get()
    return node, csr.din[node], ctx.partitionId() if ctx is not None else -1


def _group_jobs(sc, group: str) -> list:
    """Task count of every stage of every job run under ``group``, once the
    status store (fed asynchronously by Spark's listener bus) reports each
    job finished."""
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 30
    while True:
        jobs = [tracker.getJobInfo(j) for j in sorted(tracker.getJobIdsForGroup(group))]
        done = jobs and all(j is not None and j.status == "SUCCEEDED" for j in jobs)
        if done or time.monotonic() > deadline:
            return [[tracker.getStageInfo(s).numTasks for s in j.stageIds] for j in jobs]
        time.sleep(0.05)


def test_run_partitioned_engines_agree_and_fill_every_partition(spark):
    g = gen.load("GQ-lite", spark)
    items = list(range(40))
    local = run_partitioned(g, items, _degree_kernel, "local")
    assert local == [(node, g.csr.din[node], -1) for node in items]
    sc = spark.sparkContext
    sc.setJobGroup("run_partitioned", "one call")
    try:
        dist = run_partitioned(g, items, _degree_kernel, "spark")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # Each result names its item, whatever order the partitions come back in.
    assert sorted(r[:2] for r in dist) == [r[:2] for r in local]
    assert all(type(din) is np.int64 for _, din, _ in dist)
    par = max(2, sc.defaultParallelism)
    assert sorted({part for *_, part in dist}) == list(range(par))
    # Item i is node i and is dealt to partition i % par.
    assert all(part == node % par for node, _, part in dist)
    assert _group_jobs(sc, "run_partitioned") == [[par]]
    with pytest.raises(ValueError, match="unknown engine"):
        run_partitioned(g, [], _degree_kernel, "dask")


@pytest.mark.parametrize("count", [1, 3])
def test_run_partitioned_maps_few_items_back(spark, count):
    """Fewer items than cores: one task per item, and every numpy item comes
    back with its own result, as in-process."""
    g = gen.load("GQ-lite", spark)
    items = [np.arange(5 * i, 5 * i + i + 2) for i in range(count)]

    def kernel(csr, item):
        return item, csr.din[item]

    local = run_partitioned(g, items, kernel, "local")
    sc = spark.sparkContext
    group = f"run_partitioned_{count}"
    sc.setJobGroup(group, "few items")
    try:
        dist = run_partitioned(g, items, kernel, "spark")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(dist) == len(local) == count
    dist.sort(key=lambda r: r[0][0])
    for (item, din), (want_item, want_din) in zip(dist, local):
        np.testing.assert_array_equal(item, want_item)
        np.testing.assert_array_equal(din, g.csr.din[item])
        np.testing.assert_array_equal(din, want_din)
    assert _group_jobs(sc, group) == [[min(max(2, sc.defaultParallelism), count)]]
