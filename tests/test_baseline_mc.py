"""MC baseline: estimator correctness, accounting, the oracle-replayed join."""
import numpy as np
import pandas as pd

from repro.baselines import mc
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent
from tests.helpers import power_truth, trace_frame

C = 0.6


def test_mc_estimates_cycle_exactly_zero():
    # On a directed cycle S(i,j)=0 for i != j and walks from different
    # starts can never collide (positions differ by a constant offset).
    g = gen.tiny_cycle(6)
    idx = mc.preprocess(g, r_per_node=200, c=C, seed=1)
    res = mc.query(g, idx, 0)
    truth = np.zeros(6)
    truth[0] = 1.0
    np.testing.assert_array_equal(res, truth)


def test_mc_close_to_truth_on_star():
    g = gen.tiny_star(4)
    from repro.baselines.power_method import simrank_power

    S = simrank_power(g, c=C, tol=1e-12)
    idx = mc.preprocess(g, r_per_node=20_000, c=C, seed=2)
    res = mc.query(g, idx, 1)
    # Binomial std at R=2e4 ≈ 0.0035; 5σ.
    np.testing.assert_allclose(res, S[:, 1], atol=0.02)


def test_mc_error_shrinks_with_r():
    g = gen.load("GQ-lite")
    S = power_truth("GQ-lite")
    errs = []
    for r_per_node in (20, 500):
        idx = mc.preprocess(g, r_per_node=r_per_node, c=C, seed=3)
        res = mc.query(g, idx, 0)
        errs.append(np.abs(res - S[:, 0]).max())
    assert errs[1] < errs[0]


def test_mc_index_accounting():
    """``index_bytes()`` is what the index holds: its two arrays, one int64
    key and one int64 walk id per trace row."""
    g = gen.load("GQ-lite")
    idx = mc.preprocess(g, r_per_node=5, c=C, seed=4)
    assert idx.index_bytes() == idx.key.nbytes + idx.walk.nbytes == 16 * idx.key.size > 0


def test_mc_index_sorts_wide_keys_with_argsort(monkeypatch):
    """Positions too wide to pack each key with its row in 63 bits take the
    ``argsort`` path: its keys and each key's walks equal the packed
    sort's, and every source's scores are equal."""
    g = gen.load("GQ-lite")
    from repro.walks import traces

    node, r, step, pos = traces.trace_rows(g, r_per_node=20, c=C, seed=6)
    narrow = mc.from_traces(node, r, step, pos, r_per_node=20)
    calls = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    wide = mc.from_traces(node, r, step, pos + (1 << 45), r_per_node=20)
    assert calls == [1]
    assert np.array_equal(wide.key % wide.span - (1 << 45), narrow.key % narrow.span)
    assert np.array_equal(wide.key // wide.span, narrow.key // narrow.span)
    bounds = np.flatnonzero(np.diff(narrow.key)) + 1
    for w, n_ in zip(np.split(wide.walk, bounds), np.split(narrow.walk, bounds)):
        assert np.array_equal(np.sort(w), np.sort(n_))
    for source in range(0, g.n, 37):
        assert np.array_equal(mc.query(g, wide, source), mc.query(g, narrow, source))


def test_mc_query_oracle():
    """Replay the meeting-count join in DuckDB over the same trace table."""
    g = gen.load("GQ-lite")
    idx = mc.preprocess(g, r_per_node=20, c=C, seed=6)
    source = 7
    s = mc.query(g, idx, source)
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
        traces=trace_frame(idx),
    )
