"""MC baseline: estimator correctness, accounting, the oracle-replayed join."""
import numpy as np
import pandas as pd

from repro.baselines import mc
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent
from tests.helpers import power_truth

C = 0.6


def test_mc_estimates_cycle_exactly_zero():
    # On a directed cycle S(i,j)=0 for i != j and walks from different
    # starts can never collide (positions differ by a constant offset).
    g = gen.tiny_cycle(6)
    idx = mc.preprocess(g, r_per_node=200, c=C, seed=1)
    res = mc.query(g, idx, 0)
    truth = np.zeros(6)
    truth[0] = 1.0
    np.testing.assert_array_equal(res.scores, truth)


def test_mc_close_to_truth_on_star():
    g = gen.tiny_star(4)
    from repro.baselines.power_method import simrank_power

    S = simrank_power(g, c=C, tol=1e-12)
    idx = mc.preprocess(g, r_per_node=20_000, c=C, seed=2)
    res = mc.query(g, idx, 1)
    # Binomial std at R=2e4 ≈ 0.0035; 5σ.
    np.testing.assert_allclose(res.scores, S[:, 1], atol=0.02)


def test_mc_error_shrinks_with_r():
    g = gen.load("GQ-lite")
    S = power_truth("GQ-lite")
    errs = []
    for r_per_node in (20, 500):
        idx = mc.preprocess(g, r_per_node=r_per_node, c=C, seed=3)
        res = mc.query(g, idx, 0)
        errs.append(np.abs(res.scores - S[:, 0]).max())
    assert errs[1] < errs[0]


def test_mc_index_accounting():
    g = gen.load("GQ-lite")
    idx = mc.preprocess(g, r_per_node=5, c=C, seed=4)
    assert idx.rows == len(idx.trace_pdf)
    assert idx.index_bytes() == 32 * idx.rows
    assert idx.seconds_preprocess > 0


def test_mc_query_oracle():
    """Replay the meeting-count join in DuckDB over the same trace table."""
    g = gen.load("GQ-lite")
    idx = mc.preprocess(g, r_per_node=20, c=C, seed=6)
    source = 7
    s = mc.query(g, idx, source).scores
    met = np.flatnonzero(s)
    met = met[met != source]
    assert_equivalent(
        pd.DataFrame({"node": met, "meets": np.rint(s[met] * idx.r_per_node).astype(np.int64)}),
        f"""
        SELECT t.node AS node, COUNT(DISTINCT t.r) AS meets
        FROM traces t
        JOIN (SELECT r, step, pos FROM traces WHERE node = {source}) s
          ON t.r = s.r AND t.step = s.step AND t.pos = s.pos
        WHERE t.node <> {source}
        GROUP BY t.node
        """,
        traces=idx.trace_pdf,
    )
