"""DuckDB-oracle checks for the SQL-expressible graph dataflows.

Each test takes a result the system computes — a CSR array, a numpy kernel
or a query — and has DuckDB derive it independently from the edge table,
catching a wrong join key or aggregation, not just "it ran" (DESIGN.md §3,
correctness strategy).  The last tests check the oracle itself.
"""
import numpy as np
import pandas as pd
import pytest

from repro import metrics
from repro.baselines import mc
from repro.graphs import generators as gen
from repro.linalg import matvec as mv
from repro.oracle import assert_equivalent
from tests.helpers import TRANSITION_SQL


@pytest.fixture(scope="module")
def gq():
    return gen.load("GQ-lite")


def _out_degrees(gq) -> pd.DataFrame:
    dout = np.diff(gq.csr.out_indptr)
    src = np.flatnonzero(dout)
    return pd.DataFrame({"src": src, "dout": dout[src]})


def test_out_degree(gq):
    assert_equivalent(
        _out_degrees(gq),
        "SELECT src, COUNT(*) AS dout FROM edges GROUP BY src",
        edges=gq.edges_pdf(),
    )


def test_degree_distribution(gq):
    din, nodes = np.unique(gq.csr.din[gq.csr.din > 0], return_counts=True)
    assert_equivalent(
        pd.DataFrame({"din": din, "nodes": nodes}),
        """
        SELECT din, COUNT(*) AS nodes FROM
          (SELECT dst, COUNT(*) AS din FROM edges GROUP BY dst)
        GROUP BY din
        """,
        edges=gq.edges_pdf(),
    )


def test_two_hop_transition_mass(gq):
    """P² column masses ``(Pᵀ)² · 1`` from two backward-phase mat-vecs equal
    the self-join of the transition table — the 2-hop dataflow the forward
    phase implements iteratively."""
    mass = mv.matvec_PT(gq.csr, mv.matvec_PT(gq.csr, np.ones(gq.n)))
    j = np.flatnonzero(mass)
    assert_equivalent(
        pd.DataFrame({"j": j, "mass": mass[j]}),
        f"""
        WITH t AS ({TRANSITION_SQL})
        SELECT b.dst AS j, SUM(a.w * b.w) AS mass
        FROM t a JOIN t b ON a.dst = b.src
        GROUP BY b.dst
        """,
        edges=gq.edges_pdf(),
    )


def test_matvec_PT_as_sql(gq):
    """``Pᵀ · v`` (the backward phase's step) from the numpy kernel equals the
    message-passing join DuckDB runs over the transition table."""
    v = np.random.default_rng(3).random(gq.n)
    ids = np.unique(gq.csr.dst)
    assert_equivalent(
        pd.DataFrame({"id": ids, "val": mv.matvec_PT(gq.csr, v)[ids]}),
        f"""
        WITH t AS ({TRANSITION_SQL})
        SELECT t.dst AS id, SUM(t.w * v.val) AS val
        FROM t JOIN v ON t.src = v.id
        GROUP BY t.dst
        """,
        edges=gq.edges_pdf(),
        v=pd.DataFrame({"id": np.arange(gq.n), "val": v}),
    )


def test_top_k_selection(gq):
    """Top-k extraction (the Precision@k inputs) as a window query."""
    s = np.round(np.random.default_rng(4).random(gq.n), 2)  # ties, broken by id
    top = metrics.top_k(s, 10, exclude=2)
    assert_equivalent(
        pd.DataFrame({"id": top, "s": s[top], "rk": np.arange(1, 11)}),
        """
        SELECT id, s, rk FROM (
          SELECT id, s, ROW_NUMBER() OVER (ORDER BY s DESC, id ASC) AS rk
          FROM scores WHERE id <> 2
        ) WHERE rk <= 10
        """,
        scores=pd.DataFrame({"id": np.arange(gq.n), "s": s}),
    )


def test_meeting_join_counts_distinct_pairs():
    """Distinct-(node, r) counting — the MC estimator's core — in
    ``mc.query`` and in DuckDB, on a handcrafted trace table with duplicate
    meetings."""
    traces = pd.DataFrame(
        {
            "node": [1, 1, 1, 2, 0, 0, 0],
            "r": [0, 0, 1, 0, 0, 0, 1],
            "step": [1, 2, 1, 1, 1, 2, 1],
            "pos": [5, 6, 7, 5, 5, 6, 9],
        }
    )
    idx = mc.MCIndex(r_per_node=2, trace_pdf=traces, seconds_preprocess=0.0, rows=7)
    s = mc.query(gen.tiny_star(2), idx, 0).scores
    # Node 1 walk 0 meets walk 0 of node 0 at both steps -> counted once.
    meets = np.rint(s[1:] * idx.r_per_node).astype(np.int64)
    assert meets.tolist() == [1, 1]
    assert_equivalent(
        pd.DataFrame({"node": [1, 2], "meets": meets}),
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


def test_oracle_catches_aggregation(gq):
    """Per-source sums over the out-adjacency CSR slices."""
    csr = gq.csr
    got = _out_degrees(gq).rename(columns={"dout": "cnt"})
    got["sum_dst"] = np.add.reduceat(csr.dst, csr.out_indptr[got["src"]])
    assert_equivalent(
        got,
        """
        SELECT src, SUM(dst) AS sum_dst, COUNT(*) AS cnt
        FROM edges GROUP BY src
        """,
        edges=gq.edges_pdf(),
    )


def test_oracle_join_path(gq):
    """Per-bucket sums over the in-adjacency CSR slices, against a join."""
    csr = gq.csr
    bucket = np.arange(gq.n) % 7
    owner = np.repeat(np.arange(gq.n), csr.din)
    sums = np.bincount(bucket[owner], weights=csr.in_neighbors, minlength=7)
    assert_equivalent(
        pd.DataFrame({"bucket": np.arange(7), "sum_src": sums}),
        """
        SELECT bucket, SUM(src) AS sum_src
        FROM edges JOIN nodes ON dst = id
        GROUP BY bucket
        """,
        edges=gq.edges_pdf(),
        nodes=pd.DataFrame({"id": np.arange(gq.n), "bucket": bucket}),
    )


def test_oracle_detects_mismatch(gq):
    wrong = _out_degrees(gq)
    wrong["dout"] += 1
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT src, COUNT(*) AS dout FROM edges GROUP BY src",
            edges=gq.edges_pdf(),
        )
