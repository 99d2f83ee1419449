"""Experiment harness + table producers (tiny configurations)."""
import time

import numpy as np
import pytest

from repro.experiments import harness, tables
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def gq_truth():
    g = gen.load("GQ-lite")
    sources = harness.pick_sources(g, 2)
    return g, sources, harness.ground_truth_small(g, sources)


def test_pick_sources_deterministic_and_valid():
    g = gen.load("WV-lite")
    a = harness.pick_sources(g, 5)
    b = harness.pick_sources(g, 5)
    np.testing.assert_array_equal(a, b)
    assert np.all(g.csr.din[a] > 0)
    assert len(set(a.tolist())) == 5


def test_ground_truth_small_columns(gq_truth):
    g, sources, truth = gq_truth
    for s in sources:
        assert truth[int(s)].shape == (g.n,)
        assert truth[int(s)][int(s)] == pytest.approx(1.0)


def test_ground_truth_large_is_exactsim():
    g = gen.load("GQ-lite")
    sources = harness.pick_sources(g, 1)
    truth_pm = harness.ground_truth_small(g, sources)
    truth_es = harness.ground_truth_large(
        g, sources, eps_min=1e-3, max_pairs=500_000
    )
    s = int(sources[0])
    assert np.abs(truth_pm[s] - truth_es[s]).max() < 1e-3


def test_sweep_rows_time_every_build_and_query(gq_truth):
    """The harness times each build and query itself: stand-ins that sleep
    read at least their sleep times, and a real MC build reads above 0."""
    g, sources, truth = gq_truth

    class Index:
        def index_bytes(self):
            return 0

    def build(param):
        time.sleep(0.05)
        return Index()

    def query(index, source):
        time.sleep(0.02)
        return truth[source]

    [row] = harness._sweep_index(g, sources, truth, harness.SweepConfig(), "Sleep",
                                 "p={}", [1], build, query)
    assert row.preprocess_s >= 0.05 and row.query_s >= 0.02
    assert row.max_error == 0.0 and row.note == ""
    cfg = harness.SweepConfig(mc_r=(5,))
    assert harness.sweep_mc(g, sources, truth, cfg)[0].preprocess_s > 0


def test_sweep_exactsim_rows(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(max_pairs=100_000, exactsim_eps=(1e-1, 1e-2))
    rows = harness.sweep_exactsim(g, sources, truth, cfg)
    assert [r.param for r in rows] == ["eps=1e-01", "eps=1e-02"]
    assert rows[1].max_error < rows[0].max_error
    assert all(r.method == "ExactSim" for r in rows)
    assert all(np.isfinite(r.query_s) for r in rows)


def test_sweep_parsim_rows(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(parsim_L=(2, 10))
    rows = harness.sweep_parsim(g, sources, truth, cfg)
    assert rows[0].max_error > rows[1].max_error
    assert rows[0].index_bytes == 0


def test_sweep_mc_budget_omission(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(max_pairs=1000, mc_r=(10, 10_000))
    rows = harness.sweep_mc(g, sources, truth, cfg)
    assert rows[1].note == "omitted (budget)"
    assert np.isnan(rows[1].max_error)


def test_sweep_linearization_omission(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(max_pairs=1_000_000, linearization_eps=(1e-1, 1e-3))
    rows = harness.sweep_linearization(g, sources, truth, cfg)
    assert rows[0].note == ""
    assert rows[1].note == "omitted (budget)"


def test_sweep_prsim_rows(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(
        max_pairs=200_000, max_index_entries=2_000_000, prsim_eps=(1e-1,)
    )
    rows = harness.sweep_prsim(g, sources, truth, cfg)
    assert rows[0].index_bytes > 0
    assert rows[0].max_error <= 1e-1
    assert rows[0].note == "capped"  # ε=1e-1 asks for ~2e6 pairs on GQ-lite


def test_sweep_all_rows_and_omissions(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(
        max_pairs=1_000_000, max_index_entries=2_000_000,
        exactsim_eps=(1e-1,), exactsim_basic_eps=(1e-1,), parsim_L=(2,),
        mc_r=(10, 1_000_000), linearization_eps=(1e-1, 1e-3), prsim_eps=(1e-1,),
    )
    rows = harness.sweep_all(g, sources, truth, cfg)
    assert [(r.method, r.param) for r in rows] == [
        ("ExactSim", "eps=1e-01"),
        ("ExactSim-basic", "eps=1e-01"),
        ("ParSim", "L=2"),
        ("MC", "r=10"),
        ("MC", "r=1000000"),
        ("Linearization", "eps=1e-01"),
        ("Linearization", "eps=1e-03"),
        ("PRSim-lite", "eps=1e-01"),
    ]
    assert all(r.dataset == g.name for r in rows)
    omitted = [r for r in rows if r.note == "omitted (budget)"]
    assert [(r.method, r.param) for r in omitted] == [
        ("MC", "r=1000000"), ("Linearization", "eps=1e-03"),
    ]
    for r in rows:
        fields = [r.preprocess_s, r.query_s, r.max_error, r.precision_at_k]
        if r.note == "omitted (budget)":
            assert np.all(np.isnan(fields)) and r.index_bytes == 0
        else:
            assert np.all(np.isfinite(fields)), r.fmt()


def test_row_formatting(gq_truth):
    g, sources, truth = gq_truth
    cfg = harness.SweepConfig(parsim_L=(5,))
    row = harness.sweep_parsim(g, sources, truth, cfg)[0]
    s = row.fmt()
    assert "ParSim" in s and "L=5" in s
    # An omitted point prints "-" for its times too, in the same columns.
    cfg = harness.SweepConfig(max_pairs=1000, mc_r=(10_000,))
    omitted = harness.sweep_mc(g, sources, truth, cfg)[0].fmt()
    assert "nan" not in omitted
    assert omitted.split()[3:7] == ["pre=", "-", "q=", "-"]
    assert [omitted.index(f) for f in ("q=", "idx=")] == [s.index(f) for f in ("q=", "idx=")]


# ---------------------------------------------------------------------------
# table producers
# ---------------------------------------------------------------------------


def test_table2_rows_complete():
    rows = tables.table2_rows()
    assert len(rows) == 8
    for r in rows:
        assert r["n"] < r["paper_n"]  # lite analogs are strictly smaller
        assert r["type"] == r["paper_type"]


def test_table3_rows_shape():
    rows = tables.table3_rows(datasets=["DB-lite"])
    r = rows[0]
    # The Table-3 shape: basic > optimized, basic >= graph-size scale,
    # several-fold reduction from sparsification.
    assert r["basic_mb"] > r["exactsim_mb"]
    assert r["reduction"] > 1.5
    assert r["paper_reduction"] > 4
    # The measured peak holds every stored entry and the dense π vector.
    n = gen.load("DB-lite").n
    assert r["exactsim_traced_mb"] >= r["exactsim_mb"] + 8 * n / 1e6


def test_ablation_rows_shape():
    # At ε = 1e-3 the basic variant is hard-capped by the pair budget while
    # the optimized one is not — the regime where Figure 9's gap is large.
    # One draw of each variant can still land either way, so the errors are
    # compared as medians over walk seeds 0-11 on one source, as
    # benchmarks/bench_ablation.py does.
    g = gen.load("GQ-lite")
    truth = harness.ground_truth_small(g, harness.pick_sources(g, 1, seed=11))
    errors = {"basic": [], "opt": []}
    for seed in range(12):
        rows = tables.ablation_rows(
            dataset="GQ-lite", eps_grid=(1e-3,), max_pairs=200_000, seed=seed, truth=truth,
        )
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["opt"]["pairs_simulated"] < by_variant["basic"]["pairs_simulated"]
        for variant, r in by_variant.items():
            errors[variant].append(r["max_error"])
    assert np.median(errors["opt"]) < np.median(errors["basic"])

