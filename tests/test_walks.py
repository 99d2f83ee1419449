"""√c-walk kernels: exact meeting probabilities, traces, Spark/local parity."""
import math

import numpy as np
import pytest

from repro.core import diagonal
from repro.core.exactsim import exactsim
from repro.graphs import generators as gen
from repro.graphs.graph import from_edges
from repro.walks import pair_walks, traces

C = 0.6
SQC = math.sqrt(C)


# ---------------------------------------------------------------------------
# pair walks (the kernel of Algorithm 2 and of Algorithm 3's tails)
# ---------------------------------------------------------------------------


def _met(csr, node, pairs, **kw):
    """Meetings among ``pairs`` pairs that all start at ``node``."""
    hits = pair_walks.pair_meet_count(csr, np.full(pairs, node, dtype=np.int64), pairs, **kw)
    return hits.size


def test_pair_meet_cycle_probability():
    """On a cycle both walks move in lockstep: meet iff both continue at
    step 1, i.e. with probability exactly c."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(0)
    n = 200_000
    met = _met(g.csr, 0, n, c=C, rng=rng)
    # Binomial std ≈ 0.0011; 5σ tolerance.
    assert met / n == pytest.approx(C, abs=0.006)


@pytest.mark.parametrize("g", [gen.tiny_star(3), gen.tiny_star(5)], ids=lambda g: g.name)
def test_pair_meet_matches_exact_diagonal(g):
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    rng = np.random.default_rng(1)
    n = 150_000
    met = _met(g.csr, 0, n, c=C, rng=rng)
    assert 1 - met / n == pytest.approx(d[0], abs=0.008)


def test_pair_meet_zero_pairs():
    g = gen.tiny_cycle(4)
    rng = np.random.default_rng(0)
    hits = pair_walks.pair_meet_count(g.csr, np.zeros(0, dtype=np.int64), 0, c=C, rng=rng)
    assert hits.dtype == np.int64 and hits.size == 0


def test_pair_meet_dead_end_never_meets():
    from repro.graphs.graph import from_edges

    g = from_edges("dead", 2, np.array([1]), np.array([0]), directed=True)
    rng = np.random.default_rng(0)
    # Walks from node 1 cannot move (d_in = 0): no pair ever meets.
    assert _met(g.csr, 1, 10_000, c=C, rng=rng) == 0


def test_nonstop_tail_on_cycle_is_zero():
    """Non-stop walks on a cycle coincide at step 1, so every pair is
    excluded from the tail: the tail estimate for ℓ0 >= 1 must be 0 — which
    matches the exact tail (first meeting always happens at step 1)."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(2)
    met = _met(g.csr, 0, 50_000, c=C, rng=rng, nonstop_steps=2)
    assert met == 0


def test_nonstop_tail_unbiased_on_star(monkeypatch):
    """Tail estimator check: c^ℓ0 · E[tail indicator] must equal the exact
    tail mass Σ_{ℓ>ℓ0} Z_ℓ(k) (head computed exactly by Lemma 4)."""
    from repro.core import local_push

    g = gen.tiny_star(4)
    d = diagonal.exact_diagonal(g, c=C, tol=1e-14)
    ell0 = 2
    # Exact head at depth 2 via a huge-budget run capped at MAX_LEVEL = 2.
    monkeypatch.setattr(local_push, "MAX_LEVEL", ell0)
    hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=10**8)
    exact_tail = (1.0 - hr.z_sum) - d[0]
    rng = np.random.default_rng(3)
    n = 300_000
    met = _met(g.csr, 0, n, c=C, rng=rng, nonstop_steps=ell0)
    est_tail = (C**ell0) * met / n
    assert est_tail == pytest.approx(exact_tail, abs=3e-4)


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


def _dead_ends_and_chains(groups):
    """``a_i = 3i`` has no in-neighbour (``D = 1``: its walks never move);
    ``b_i = 3i+1`` has the single in-neighbour ``3i+2`` (``D = 1-c``)."""
    src = 3 * np.arange(groups) + 2
    g = from_edges("dead-ends", 3 * groups, src, src - 1, directed=True)
    return g, 3 * np.arange(groups), 3 * np.arange(groups) + 1


def test_count_meetings_attributes_meetings_across_slice_boundaries(monkeypatch):
    """Dead-end nodes alternate with one-in-neighbour nodes, and a tiny
    ``CHUNK`` splits nodes across kernel calls: a meeting credited to the
    wrong node shows on a dead-end node, whose pairs can never meet.  One
    worker keeps the calls in slice order for the spy."""
    monkeypatch.setattr(pair_walks, "CHUNK", 7)
    monkeypatch.setattr(pair_walks, "WORKERS", 1)
    g, a, b = _dead_ends_and_chains(200)
    nodes = np.stack([a, b], axis=1).ravel()  # a0, b0, a1, b1, ...
    pairs = 1 + np.arange(nodes.size) % 11
    calls, starts = [], []

    def walk(csr, start, n, **kw):
        calls.append(n)
        starts.append(start)
        return pair_walks.pair_meet_count(csr, start, n, **kw)

    met = pair_walks.count_meetings(
        g.csr, nodes, pairs, 0, c=C, rng=np.random.default_rng(3), walk=walk
    )
    assert max(calls) == 7 and sum(calls) == pairs.sum()
    # Every node starts exactly its own pairs, in node order.
    np.testing.assert_array_equal(np.concatenate(starts), np.repeat(nodes, pairs))
    assert (met[0::2] == 0).all()
    assert (met <= pairs).all()
    # Pairs from b_i meet iff both walks take their first step: probability c.
    assert met[1::2].sum() / pairs[1::2].sum() == pytest.approx(C, abs=0.05)
    # The same through Algorithm 2's batches: D̂ is exactly 1 on dead ends,
    # and the b_i's pooled D̂ (weighted by their pairs) is 1 - c.  Pooled,
    # it has standard error √(c(1-c)/Σ pairs) ≈ 0.014; 5σ tolerance.
    d = diagonal.estimate_D_mc(g, nodes, pairs, c=C, seed=2)
    tol = 5 * math.sqrt(C * (1 - C) / pairs[1::2].sum())
    np.testing.assert_array_equal(d[a], 1.0)
    assert np.average(d[b], weights=pairs[1::2]) == pytest.approx(1 - C, abs=tol)


def test_count_meetings_slices_skip_zero_pair_nodes(monkeypatch):
    """Nodes without pairs, also at slice edges, own no pair, and each pair
    walks with its own node's prefix.  One worker keeps the calls in slice
    order for the spy."""
    monkeypatch.setattr(pair_walks, "CHUNK", 5)
    monkeypatch.setattr(pair_walks, "WORKERS", 1)
    g = gen.load("GQ-lite")
    nodes = np.arange(30, dtype=np.int64)
    pairs = np.array([0, 3, 0, 0, 2, 5, 0, 1, 4, 0] * 3, dtype=np.int64)
    prefix = nodes % 4
    starts, prefixes = [], []

    def walk(csr, start, n, **kw):
        starts.append(start)
        prefixes.append(kw["nonstop_steps"])
        return pair_walks.pair_meet_count(csr, start, n, **kw)

    pair_walks.count_meetings(
        g.csr, nodes, pairs, prefix, c=C, rng=np.random.default_rng(1), walk=walk
    )
    np.testing.assert_array_equal(np.concatenate(starts), np.repeat(nodes, pairs))
    np.testing.assert_array_equal(np.concatenate(prefixes), np.repeat(prefix, pairs))


@pytest.mark.parametrize("per_node_prefix", [False, True], ids=["prefix0", "per-node-prefix"])
def test_count_meetings_does_not_depend_on_workers(monkeypatch, per_node_prefix):
    """Each slice walks its own child stream, so one worker and a pool of
    four count the same meetings per node as a plain loop that walks slice
    ``j`` of the batch's pairs on child ``j``, over a dozen slices whose
    edges split nodes and skip zero-pair ones."""
    chunk = 1000
    monkeypatch.setattr(pair_walks, "CHUNK", chunk)
    g = gen.load("GQ-lite")
    nodes = np.arange(40, dtype=np.int64)
    pairs = np.random.default_rng(0).integers(0, 600, nodes.size)
    pairs[::7] = 0
    prefix = nodes % 4 if per_node_prefix else 0
    owner = np.repeat(np.arange(nodes.size), pairs)
    assert owner.size >= 5 * chunk
    ref = np.zeros(nodes.size, dtype=np.int64)
    for j, stream in enumerate(np.random.default_rng(8).spawn(-(-owner.size // chunk))):
        own = owner[j * chunk:(j + 1) * chunk]
        hits = pair_walks.pair_meet_count(
            g.csr, nodes[own], own.size, c=C, rng=stream,
            nonstop_steps=np.broadcast_to(prefix, nodes.shape)[own],
        )
        np.add.at(ref, own[hits], 1)
    assert ref.sum() > 0
    for workers in (1, 4):
        monkeypatch.setattr(pair_walks, "WORKERS", workers)
        met = pair_walks.count_meetings(
            g.csr, nodes, pairs, prefix, c=C, rng=np.random.default_rng(8),
            walk=pair_walks.pair_meet_count,
        )
        np.testing.assert_array_equal(met, ref)


def test_exactsim_scores_do_not_depend_on_workers(monkeypatch):
    """A capped GQ-lite basic query, whose batches hold several slices,
    scores the same bits on one worker and on a pool of four."""
    g = gen.load("GQ-lite")
    runs = []
    for workers in (1, 4):
        monkeypatch.setattr(pair_walks, "WORKERS", workers)
        runs.append(exactsim(g, 3, eps=1e-2, variant="basic", seed=1, max_pairs=2_000_000))
    assert runs[0].effective_eps > runs[0].eps
    assert runs[0].pairs_simulated > 2 * pair_walks.BATCHES * pair_walks.CHUNK
    np.testing.assert_array_equal(runs[0].scores, runs[1].scores)


def test_make_assignments_deals_batches_and_determinism():
    """Positions sorted by R(k), largest first, are dealt round-robin into at
    most BATCHES batches: every position lands in exactly one batch, the
    largest allocations open one batch each, and batch sizes differ by at
    most one."""
    pairs = (np.arange(40, dtype=np.int64) * 37) % 41 + 1  # distinct
    a = pair_walks.make_assignments(pairs)
    b = pair_walks.make_assignments(pairs)
    assert len(a) == len(b) == pair_walks.BATCHES
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert sorted(np.concatenate(a).tolist()) == list(range(40))
    for pos in a:
        assert pairs[pos].tolist() == sorted(pairs[pos].tolist(), reverse=True)
    firsts = sorted(pairs[pos[0]] for pos in a)
    assert firsts == sorted(pairs)[-pair_walks.BATCHES:]
    assert [pos.size for pos in a] == [3] * 8 + [2] * 8
    few = pair_walks.make_assignments(pairs[:3])
    assert [pos.size for pos in few] == [1, 1, 1]


def test_make_assignments_breaks_ties_like_stable_argsort():
    """Tied ``R(k)``, zeros included, are dealt as the reversed stable
    argsort deals them."""
    pairs = np.random.default_rng(8).integers(0, 4, 100)
    order = np.argsort(pairs, kind="stable")[::-1]
    got = pair_walks.make_assignments(pairs)
    assert len(got) == pair_walks.BATCHES
    for b, pos in enumerate(got):
        np.testing.assert_array_equal(pos, order[b :: pair_walks.BATCHES])


def test_simulate_pairs_streams_distinct_across_batches(monkeypatch):
    """Every batch walks its own stream ``[seed, batch]``, and slice ``j``
    of a batch walks child ``j`` of it: the generator keys built while
    estimating D for 40 nodes are the 16 batch keys, every slice walks a
    distinct child of its batch's stream, and a re-run replays every slice."""
    monkeypatch.setattr(pair_walks, "CHUNK", 250)
    g = gen.load("GQ-lite")
    seeds = []
    real_rng, real_walk = np.random.default_rng, pair_walks.pair_meet_count

    def recording_rng(seed):
        seeds.append(tuple(np.atleast_1d(seed).tolist()))
        return real_rng(seed)

    def recording_walk(csr, start, n, *, rng, **kw):
        hits = real_walk(csr, start, n, rng=rng, **kw)
        seq = rng.bit_generator.seed_seq
        walked.append((tuple(seq.entropy), seq.spawn_key, tuple(start), tuple(hits)))
        return hits

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(pair_walks, "pair_meet_count", recording_walk)
    nodes = np.arange(40, 80, dtype=np.int64)
    counts = np.full(40, 300, dtype=np.int64)
    runs = []
    for _ in range(2):
        walked = []
        d = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=5)
        runs.append((d, sorted(walked)))
    assert sorted(seeds) == sorted(2 * [(5, b) for b in range(pair_walks.BATCHES)])
    # Batch b holds 3 or 2 nodes: 900 or 600 pairs, in 4 or 3 slices of 250;
    # slice j starts the batch's pairs j·250 onwards and walks child j.
    expected = []
    for b, pos in enumerate(pair_walks.make_assignments(counts)):
        starts = np.repeat(nodes[pos], 300)
        expected += [
            ((5, b), (j,), tuple(starts[first:first + 250]))
            for j, first in enumerate(range(0, starts.size, 250))
        ]
    assert [w[:3] for w in runs[0][1]] == sorted(expected)
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_simulate_pairs_local_aggregates():
    """Every batch's estimates come back aligned with the input nodes, in
    their (unsorted) order, also when a batch holds several nodes."""
    g = gen.load("GQ-lite")
    nodes = np.array([9, 3, 40, 7], dtype=np.int64)
    pairs = np.array([100, 50, 70, 5], dtype=np.int64)

    def estimate(csr, members, r, *, rng):
        return members / 100.0, members % 2, r

    d_hat, ell, sim = pair_walks.simulate_pairs(g, nodes, pairs, estimate, seed=1, engine="local")
    assert d_hat.tolist() == [0.09, 0.03, 0.4, 0.07]
    assert ell.tolist() == [1, 1, 0, 1]
    assert sim.tolist() == [100, 50, 70, 5]
    # 40 nodes: every batch holds 2-3 of them, dealt in R(k) order.
    nodes = np.random.default_rng(0).permutation(200)[:40]
    pairs = (np.arange(40) * 37) % 41 + 1
    d_hat, ell, sim = pair_walks.simulate_pairs(g, nodes, pairs, estimate, seed=1, engine="local")
    np.testing.assert_array_equal(d_hat, nodes / 100.0)
    np.testing.assert_array_equal(ell, nodes % 2)
    np.testing.assert_array_equal(sim, pairs)


def test_simulate_pairs_spark_matches_local(spark):
    """One node holds more than CHUNK pairs, so its batch spans kernel calls
    and walks its slices on up to WORKERS threads, in-process and in a
    Spark task."""
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(10, dtype=np.int64)
    pairs = np.full(10, 2000, dtype=np.int64)
    pairs[4] = pair_walks.CHUNK + 5000

    def estimate(csr, members, r, *, rng):
        met = pair_walks.count_meetings(
            csr, members, r, np.zeros_like(r), c=C, rng=rng, walk=pair_walks.pair_meet_count
        )
        return 1.0 - met / r, np.zeros_like(r), r

    a = pair_walks.simulate_pairs(g, nodes, pairs, estimate, seed=11, engine="local")
    b = pair_walks.simulate_pairs(g, nodes, pairs, estimate, seed=11, engine="spark")
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def test_traced_walk_calls_stay_within_chunk(monkeypatch):
    """Capped GQ-lite queries: no Algorithm-2 walk call (``walks``) or
    Algorithm-3 tail call (``tail``) walks more than CHUNK pairs, and the
    calls add up to the pairs the query simulated."""
    from perfbench import tracer

    g = gen.load("GQ-lite")
    tr = tracer.Tracer()
    with tr.query(0):
        basic = exactsim(g, 3, eps=1e-2, variant="basic", seed=1, max_pairs=1_000_000)
    walks = [s.counts["pairs"] for s in tr.spans if s.name == "walks"]
    assert max(walks) == pair_walks.CHUNK and sum(walks) == basic.pairs_simulated
    # Opt's tails are short: a smaller CHUNK makes them span calls too.
    monkeypatch.setattr(pair_walks, "CHUNK", 500)
    with tr.query(1):
        opt = exactsim(g, 3, eps=1e-2, variant="opt", seed=1, max_pairs=1_000_000)
    tails = [s.counts["pairs"] for s in tr.spans if s.name == "tail"]
    assert max(tails) == 500 and sum(tails) == opt.pairs_simulated


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
    assert len(a) == 4 and all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(x.dtype == np.int64 for x in a)
    assert a[1].max() <= 2  # r
