"""DuckDB-oracle checks for the SQL-expressible graph dataflows.

Each test states a dataflow used somewhere in the reproduction — a Spark
query or a numpy kernel — and has DuckDB replay it independently, catching a
wrong join key or aggregation, not just "it ran" (DESIGN.md §3, correctness
strategy).  The last tests check the oracle itself.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.graphs import generators as gen
from repro.linalg import matvec as mv
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def gq(spark):
    return gen.load("GQ-lite", spark)


def test_out_degree(spark, gq):
    q = gq.edges_df().groupBy("src").agg(F.count("*").alias("dout"))
    assert_equivalent(
        q, "SELECT src, COUNT(*) AS dout FROM edges GROUP BY src", edges=gq.edges_pdf()
    )


def test_degree_distribution(spark, gq):
    din = gq.edges_df().groupBy("dst").agg(F.count("*").alias("din"))
    q = din.groupBy("din").agg(F.count("*").alias("nodes"))
    assert_equivalent(
        q,
        """
        SELECT din, COUNT(*) AS nodes FROM
          (SELECT dst, COUNT(*) AS din FROM edges GROUP BY dst)
        GROUP BY din
        """,
        edges=gq.edges_pdf(),
    )


def test_two_hop_transition_mass(spark, gq):
    """P² column masses via a self-join — the 2-hop dataflow the forward
    phase implements iteratively."""
    t = gq.transition_df()
    t2 = (
        t.alias("a")
        .join(t.alias("b"), F.col("a.dst") == F.col("b.src"))
        .groupBy(F.col("a.src").alias("i"), F.col("b.dst").alias("j"))
        .agg(F.sum(F.col("a.w") * F.col("b.w")).alias("w2"))
    )
    q = t2.groupBy("j").agg(F.sum("w2").alias("mass"))
    tp = t.toPandas()
    assert_equivalent(
        q,
        """
        SELECT b.dst AS j, SUM(a.w * b.w) AS mass
        FROM t a JOIN t b ON a.dst = b.src
        GROUP BY b.dst
        """,
        t=tp,
    )


def test_matvec_PT_as_sql(spark, gq):
    """``Pᵀ · v`` (the backward phase's step) from the numpy kernel equals the
    message-passing join DuckDB runs over the transition table."""
    v = np.random.default_rng(3).random(gq.n)
    ids = np.unique(gq.csr.dst)
    out = pd.DataFrame({"id": ids, "val": mv.matvec_PT(gq.csr, v)[ids]})
    assert_equivalent(
        spark.createDataFrame(out),
        """
        SELECT t.dst AS id, SUM(t.w * v.val) AS val
        FROM t JOIN v ON t.src = v.id
        GROUP BY t.dst
        """,
        t=gq.transition_df().toPandas(),
        v=pd.DataFrame({"id": np.arange(gq.n), "val": v}),
    )


def test_top_k_selection(spark, gq):
    """Top-k extraction (the Precision@k inputs) as a window query."""
    rng = np.random.default_rng(4)
    pdf = pd.DataFrame({"id": np.arange(gq.n), "s": rng.random(gq.n)})
    scores = spark.createDataFrame(pdf)
    w = Window.orderBy(F.desc("s"), F.asc("id"))
    q = scores.withColumn("rk", F.row_number().over(w)).filter(F.col("rk") <= 10)
    assert_equivalent(
        q,
        """
        SELECT id, s, rk FROM (
          SELECT id, s, ROW_NUMBER() OVER (ORDER BY s DESC, id ASC) AS rk
          FROM scores
        ) WHERE rk <= 10
        """,
        scores=pdf,
    )


def test_meeting_join_counts_distinct_pairs(spark):
    """Distinct-(node, r) counting — the MC estimator's core — replayed in
    DuckDB on a handcrafted trace table with duplicate meetings."""
    traces = pd.DataFrame(
        {
            "node": [1, 1, 1, 2, 0, 0, 0],
            "r": [0, 0, 1, 0, 0, 0, 1],
            "step": [1, 2, 1, 1, 1, 2, 1],
            "pos": [5, 6, 7, 5, 5, 6, 9],
        }
    )
    tdf = spark.createDataFrame(traces)
    ti = tdf.filter(F.col("node") == 0).select("r", "step", "pos")
    q = (
        tdf.filter(F.col("node") != 0)
        .join(ti, ["r", "step", "pos"])
        .select("node", "r")
        .distinct()
        .groupBy("node")
        .agg(F.count("*").alias("meets"))
    )
    # Node 1 walk 0 meets walk 0 of node 0 at both steps -> counted once.
    got = {row["node"]: row["meets"] for row in q.collect()}
    assert got == {1: 1, 2: 1}
    assert_equivalent(
        q,
        """
        SELECT t.node AS node, COUNT(DISTINCT t.r) AS meets
        FROM traces t
        JOIN (SELECT r, step, pos FROM traces WHERE node = 0) s
          ON t.r = s.r AND t.step = s.step AND t.pos = s.pos
        WHERE t.node <> 0
        GROUP BY t.node
        """,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# The oracle itself: it must compare values, joins and aggregates, and reject
# a wrong result.
# ---------------------------------------------------------------------------


def test_oracle_catches_aggregation(spark, gq):
    q = gq.edges_df().groupBy("src").agg(
        F.sum("dst").alias("sum_dst"),
        F.count("*").alias("cnt"),
    )
    assert_equivalent(
        q,
        """
        SELECT src, SUM(dst) AS sum_dst, COUNT(*) AS cnt
        FROM edges GROUP BY src
        """,
        edges=gq.edges_pdf(),
    )


def test_oracle_join_path(spark, gq):
    nodes = pd.DataFrame({"id": np.arange(gq.n), "bucket": np.arange(gq.n) % 7})
    e = gq.edges_df()
    nd = spark.createDataFrame(nodes)
    q = (
        e.join(nd, e["dst"] == nd["id"])
        .groupBy("bucket")
        .agg(F.sum("src").alias("sum_src"))
    )
    assert_equivalent(
        q,
        """
        SELECT bucket, SUM(src) AS sum_src
        FROM edges JOIN nodes ON dst = id
        GROUP BY bucket
        """,
        edges=gq.edges_pdf(),
        nodes=nodes,
    )


def test_oracle_detects_mismatch(spark, gq):
    wrong = gq.edges_df().groupBy("src").agg((F.count("*") + 1).alias("dout"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT src, COUNT(*) AS dout FROM edges GROUP BY src",
            edges=gq.edges_pdf(),
        )
