"""√c-walk kernels: exact meeting probabilities, traces, Spark/local parity."""
import math

import numpy as np
import pytest

from repro.core import diagonal
from repro.graphs import generators as gen
from repro.walks import pair_walks, traces

C = 0.6
SQC = math.sqrt(C)


# ---------------------------------------------------------------------------
# pair walks (Algorithm 2 kernel)
# ---------------------------------------------------------------------------


def test_pair_meet_cycle_probability():
    """On a cycle both walks move in lockstep: meet iff both continue at
    step 1, i.e. with probability exactly c."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(0)
    n = 200_000
    met = pair_walks.pair_meet_count(g.csr, 0, n, c=C, rng=rng)
    # Binomial std ≈ 0.0011; 5σ tolerance.
    assert met / n == pytest.approx(C, abs=0.006)


@pytest.mark.parametrize("g", [gen.tiny_star(3), gen.tiny_star(5)], ids=lambda g: g.name)
def test_pair_meet_matches_exact_diagonal(g):
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    rng = np.random.default_rng(1)
    n = 150_000
    met = pair_walks.pair_meet_count(g.csr, 0, n, c=C, rng=rng)
    assert 1 - met / n == pytest.approx(d[0], abs=0.008)


def test_pair_meet_zero_pairs():
    g = gen.tiny_cycle(4)
    rng = np.random.default_rng(0)
    assert pair_walks.pair_meet_count(g.csr, 0, 0, c=C, rng=rng) == 0


def test_pair_meet_dead_end_never_meets():
    from repro.graphs.graph import from_edges

    g = from_edges("dead", 2, np.array([1]), np.array([0]), directed=True)
    rng = np.random.default_rng(0)
    # Walks from node 1 cannot move (d_in = 0): no pair ever meets.
    assert pair_walks.pair_meet_count(g.csr, 1, 10_000, c=C, rng=rng) == 0


def test_nonstop_tail_on_cycle_is_zero():
    """Non-stop walks on a cycle coincide at step 1, so every pair is
    excluded from the tail: the tail estimate for ℓ0 >= 1 must be 0 — which
    matches the exact tail (first meeting always happens at step 1)."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(2)
    met = pair_walks.pair_meet_count(
        g.csr, 0, 50_000, c=C, rng=rng, nonstop_steps=2
    )
    assert met == 0


def test_nonstop_tail_unbiased_on_star():
    """Tail estimator check: c^ℓ0 · E[tail indicator] must equal the exact
    tail mass Σ_{ℓ>ℓ0} Z_ℓ(k) (head computed exactly by Lemma 4)."""
    from repro.core import local_push

    g = gen.tiny_star(4)
    d = diagonal.exact_diagonal(g, c=C, tol=1e-14)
    ell0 = 2
    # Exact head at depth 2 via a huge-budget run capped at max_level=2.
    hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=10**8, max_level=ell0)
    exact_tail = (1.0 - hr.z_sum) - d[0]
    rng = np.random.default_rng(3)
    n = 300_000
    met = pair_walks.pair_meet_count(
        g.csr, 0, n, c=C, rng=rng, nonstop_steps=ell0
    )
    est_tail = (C**ell0) * met / n
    assert est_tail == pytest.approx(exact_tail, abs=3e-4)


def test_make_assignments_chunks_and_determinism():
    nodes = np.array([0, 1], dtype=np.int64)
    pairs = np.array([pair_walks.CHUNK + 10, 5], dtype=np.int64)
    a = pair_walks.make_assignments(nodes, pairs)
    b = pair_walks.make_assignments(nodes, pairs)
    assert a.equals(b)
    assert a["pairs"].sum() == pairs.sum()
    assert (a[a["node"] == 0]["pairs"]).tolist() == [pair_walks.CHUNK, 10]
    # Different chunk -> different stream key (walks are not replayed).
    assert len(a.groupby(["node", "chunk"])) == len(a)


def test_simulate_pairs_streams_distinct_across_nodes(monkeypatch):
    """A node split into 98 chunks and its id neighbour walk pairwise-distinct
    streams (a seed linear in node and chunk index repeats at chunk 97).
    The kernel's generator seeds are recorded as it builds them."""
    g = gen.load("GQ-lite")
    monkeypatch.setattr(pair_walks, "CHUNK", 10)
    seeds = []
    real = np.random.default_rng

    def recording_rng(seed):
        seeds.append(tuple(np.atleast_1d(seed).tolist()))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    nodes = np.array([40, 41], dtype=np.int64)
    asg = pair_walks.make_assignments(nodes, np.full(2, 98 * 10, dtype=np.int64))
    res = pair_walks.simulate_pairs(g, asg, c=C, seed=5, engine="local")
    assert res["pairs"].tolist() == [980, 980]
    assert len(seeds) == 2 * 98
    assert len(set(seeds)) == len(seeds)


def test_pair_meet_count_multi_start_counts_per_pair():
    """A start array runs many nodes' walks in one call and returns the ids
    of the pairs that meet, so meetings count back to each start node; a
    prefix array gives each pair its own non-stop steps."""
    g = gen.tiny_star(4)  # centre 0, leaves 1..4
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    n = 150_000
    start = np.repeat(np.array([0, 1], dtype=np.int64), n)
    hits = pair_walks.pair_meet_count(g.csr, start, 2 * n, c=C, rng=np.random.default_rng(4))
    assert hits.dtype == np.int64 and np.unique(hits).size == hits.size
    met = np.bincount(hits // n, minlength=2)
    assert 1 - met / n == pytest.approx(d[:2], abs=0.008)
    # From the centre with a 1-step prefix, the quarter of pairs that pick
    # the same leaf is discarded and the rest meet back at the centre iff
    # both continue; from a leaf without prefix, pairs meet iff both continue.
    ns = np.repeat(np.array([1, 0], dtype=np.int64), n)
    hits = pair_walks.pair_meet_count(
        g.csr, start, 2 * n, c=C, rng=np.random.default_rng(5), nonstop_steps=ns
    )
    met = np.bincount(hits // n, minlength=2)
    assert met / n == pytest.approx([0.75 * C, C], abs=0.008)
    empty = pair_walks.pair_meet_count(g.csr, start[:0], 0, c=C, rng=np.random.default_rng(6))
    assert empty.size == 0


def test_simulate_pairs_local_aggregates():
    g = gen.load("GQ-lite")
    nodes = np.array([3, 3, 9], dtype=np.int64)
    pairs = np.array([100, 50, 70], dtype=np.int64)
    res = pair_walks.simulate_pairs(
        g, pair_walks.make_assignments(nodes, pairs), c=C, seed=1, engine="local"
    )
    assert res[res["node"] == 3]["pairs"].item() == 150
    assert res[res["node"] == 9]["pairs"].item() == 70
    assert (res["met"] <= res["pairs"]).all()


def test_simulate_pairs_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(10, dtype=np.int64)
    pairs = np.full(10, 2000, dtype=np.int64)
    asg = pair_walks.make_assignments(nodes, pairs)
    a = pair_walks.simulate_pairs(g, asg, c=C, seed=11, engine="local")
    b = pair_walks.simulate_pairs(g, asg, c=C, seed=11, engine="spark")
    a = a.sort_values("node").reset_index(drop=True)
    b = b.sort_values("node").reset_index(drop=True).astype(a.dtypes)
    assert a.equals(b)


# ---------------------------------------------------------------------------
# trace index (MC baseline substrate)
# ---------------------------------------------------------------------------


def test_walk_traces_deterministic_on_cycle():
    """Cycle walks are deterministic in position: step t lands at (start - t)
    mod n; only the lengths are random."""
    g = gen.tiny_cycle(8)
    rng = np.random.default_rng(4)
    starts = np.full(500, 3, dtype=np.int64)
    widx, step, pos = traces.walk_trace_arrays(g.csr, starts, c=C, rng=rng)
    np.testing.assert_array_equal(pos, (3 - step) % 8)


def test_walk_trace_length_distribution():
    # Walk length is geometric(1-√c): mean √c/(1-√c) ≈ 3.44.
    g = gen.tiny_cycle(8)
    rng = np.random.default_rng(5)
    starts = np.zeros(100_000, dtype=np.int64)
    widx, step, pos = traces.walk_trace_arrays(g.csr, starts, c=C, rng=rng)
    mean_len = len(step) / 100_000
    assert mean_len == pytest.approx(SQC / (1 - SQC), abs=0.05)


def test_trace_rows_local_deterministic():
    g = gen.load("GQ-lite")
    a = traces.trace_rows(g, r_per_node=3, c=C, seed=6)
    b = traces.trace_rows(g, r_per_node=3, c=C, seed=6)
    assert a.equals(b)
    assert set(a.columns) == {"node", "r", "step", "pos"}
    assert a["r"].max() <= 2
