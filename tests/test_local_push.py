"""Algorithm 3: Lemma-4 heads, adaptive budgets, tail sampling, Spark driver."""
import functools
import math

import numpy as np
import pytest

from repro.core import diagonal, local_push
from tests.helpers import exact_d
from repro.graphs import generators as gen
from repro.graphs.graph import from_edges
from repro.linalg import matvec as mv
from repro.walks import pair_walks

C = 0.6
TINY = [gen.tiny_cycle(4), gen.tiny_star(3), gen.tiny_star(5)]


@pytest.mark.parametrize("g", TINY, ids=lambda g: g.name)
def test_meeting_head_exact_on_tiny_graphs(g):
    """With an ample budget the deterministic head converges to 1 - D."""
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    for k in range(g.n):
        hr = local_push.meeting_head(g.csr, k, c=C, budget_edges=10**7)
        assert abs((1.0 - hr.z_sum) - d[k]) < 1e-8, (k, hr)


def test_meeting_head_matches_exact_on_gq():
    g = gen.load("GQ-lite")
    d = exact_d("GQ-lite")
    for k in [0, 17, 250, 499]:
        hr = local_push.meeting_head(g.csr, k, c=C, budget_edges=4_000_000)
        # The head over-estimates D by exactly the (positive) tail mass,
        # which is bounded by c^ell.
        tail = (1.0 - hr.z_sum) - d[k]
        assert -1e-9 <= tail <= C**hr.ell + 1e-9, (k, tail, hr.ell)


def test_meeting_head_budget_zero_levels():
    g = gen.load("GQ-lite")
    hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=1)
    assert hr.ell == 0 and hr.z_sum == 0.0 and hr.edges == 0


def test_meeting_head_respects_budget():
    g = gen.load("GQ-lite")
    for budget in [100, 10_000, 1_000_000]:
        hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=budget)
        assert hr.edges <= budget


def test_meeting_head_monotone_depth_in_budget():
    g = gen.load("GQ-lite")
    ells = [
        local_push.meeting_head(g.csr, 0, c=C, budget_edges=b).ell
        for b in [100, 10_000, 1_000_000]
    ]
    assert ells == sorted(ells)


def test_meeting_head_cycle_first_meeting():
    # Both walks march in lockstep: Z_1 = c, Z_ℓ = 0 for ℓ > 1.
    g = gen.tiny_cycle(6)
    hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=10**6)
    assert hr.z_sum == pytest.approx(C, abs=1e-12)


def test_meeting_head_matches_dense_lemma4_recursion():
    """Every GQ-lite head equals the dense matrix form of Lemma 4,
    ``Z_ℓ = S_ℓ − Σ_{t<ℓ} Z_t S_{ℓ-t}`` with ``S_j = c^j (M^j)∘(M^j)`` and
    ``M = Pᵀ``, summed over ``ℓ <= ℓ(k)`` — at a budget that reaches
    ``max_level`` and at one that stops mid-depth."""
    g = gen.load("GQ-lite")
    depth = 5
    m = g.dense_P().T
    s, m_pow = [], np.eye(g.n)
    for j in range(1, depth + 1):
        m_pow = m_pow @ m
        s.append(C**j * m_pow * m_pow)
    z = []
    for ell in range(1, depth + 1):
        z.append(s[ell - 1] - sum(z[t - 1] @ s[ell - t - 1] for t in range(1, ell)))
    # head[ℓ, k] = Σ_{ℓ' <= ℓ} Z_ℓ'(k, ·).sum()
    head = np.cumsum([np.zeros(g.n)] + [zl.sum(axis=1) for zl in z], axis=0)
    for budget, ells in [(10**9, {depth}), (3000, {2, 3, 4})]:
        seen = set()
        for k in range(g.n):
            hr = local_push.meeting_head(
                g.csr, k, c=C, budget_edges=budget, max_level=depth
            )
            assert abs(hr.z_sum - head[hr.ell, k]) <= 1e-12, (budget, k, hr)
            assert hr.edges <= budget
            seen.add(hr.ell)
        assert seen == ells, budget


def test_z_recursion_vs_brute_force_paths():
    """Enumerate all walk-pair paths on a tiny graph and aggregate exact
    first-meeting probabilities per level; Lemma 4 must reproduce them."""
    g = gen.tiny_star(3)  # center 0, leaves 1..3
    # Brute force over pair trajectories up to depth T.
    T = 12
    csr = g.csr

    def step_probs(v):
        nbrs = csr.in_neigh(v)
        return [(int(u), 1.0 / len(nbrs)) for u in nbrs] if len(nbrs) else []

    # first_meet[ℓ] = prob first meeting exactly at step ℓ
    first = np.zeros(T + 1)
    frontier = {(0, 0): 1.0}  # both walks at node 0 (pair state), unmet
    for ell in range(1, T + 1):
        nxt = {}
        for (a, b), p in frontier.items():
            for a2, pa in step_probs(a):
                for b2, pb in step_probs(b):
                    q = p * pa * pb * C  # both continue: prob c
                    if a2 == b2:
                        first[ell] += q
                    else:
                        nxt[(a2, b2)] = nxt.get((a2, b2), 0.0) + q
        frontier = nxt
    hr = local_push.meeting_head(g.csr, 0, c=C, budget_edges=10**7, max_level=T)
    assert hr.z_sum == pytest.approx(first.sum(), abs=1e-9)


def _whole_level_head(csr, k, *, c, budget_edges, max_level=local_push.MAX_LEVEL):
    """The Lemma-4 loop before levels were streamed: each level is built
    whole by one ``expand_sparse`` push and summed by one ``accumulate``."""
    n = csr.n
    c_pow = np.array([c**j for j in range(max_level + 1)])
    keys = np.array([k], dtype=np.int64)
    node = keys
    val = np.ones(1)
    birth = np.zeros(1, dtype=np.int64)
    coef = np.full(1, -1.0)
    z_sum, edges, ell_done = 0.0, 0, 0
    for ell in range(1, max_level + 1):
        cost = int(csr.din[node].sum())
        if edges + cost > budget_edges:
            break
        keys, val, actual = mv.expand_sparse(csr, keys, val, prune=local_push.PRUNE)
        edges += actual
        rid = keys // n
        node = keys - rid * n
        scale = -c_pow[ell - birth]
        zi, zv = mv.accumulate(node, scale[rid] * val**2 * coef[rid], n,
                               prune=local_push.PRUNE)
        z_sum += float(zv.sum())
        ell_done = ell
        new_rid = coef.size + np.arange(zi.size, dtype=np.int64)
        keys = np.concatenate([keys, new_rid * n + zi])
        node = np.concatenate([node, zi])
        val = np.concatenate([val, np.ones(zi.size)])
        birth = np.concatenate([birth, np.full(zi.size, ell, dtype=np.int64)])
        coef = np.concatenate([coef, zv])
        if c**ell < local_push.PRUNE or not keys.size:
            break
    return local_push.HeadResult(node=k, ell=ell_done, z_sum=z_sum, edges=edges)


def _head_graph(name):
    """``name``'s CSR; for ``GQ-dead`` GQ-lite with nodes 0-4 stripped of
    their in-edges, so that heads carry dead-end entries; for ``tiny`` a
    directed 6-cycle, where every ``Z_ℓ`` past level 1 is empty (a level
    costs exactly what its pushed entries do), next to a node whose
    in-neighbours are all dead ends (its head runs out of entries)."""
    from repro.graphs.graph import build_csr

    if name == "tiny":
        # A 6-cycle, and leaves 6-8 pointing at 9.
        src = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8])
        return from_edges("tiny", 10, src, np.array([1, 2, 3, 4, 5, 0, 9, 9, 9]),
                          directed=True).csr
    if name != "GQ-dead":
        return gen.load(name).csr
    csr = gen.load("GQ-lite").csr
    keep = csr.dst > 4
    return build_csr(csr.n, csr.src[keep], csr.dst[keep])


def _boundary_budgets(csr, k, levels):
    """Budgets one edge below, at and one edge above the edges a head
    spends through each of its first ``levels`` levels."""
    out = []
    for ell in range(1, levels + 1):
        spent = _whole_level_head(csr, k, c=C, budget_edges=10**12, max_level=ell).edges
        out += [spent - 1, spent, spent + 1]
    return out


def _spy_pushes(monkeypatch):
    """Record the edges of every ``push_blocks`` call ``meeting_head`` makes."""
    real, pushed = mv.push_blocks, []

    def spy(*a, **kw):
        total = 0
        for block in real(*a, **kw):
            total += block[2]
            yield block
        pushed.append(total)

    monkeypatch.setattr(mv, "push_blocks", spy)
    return pushed


@pytest.mark.parametrize("name", ["GQ-lite", "GQ-dead", "DB-lite", "tiny"])
def test_meeting_head_streamed_matches_whole_levels(monkeypatch, name):
    """The streamed head returns the ``HeadResult`` of the whole-level loop
    for 200 random (node, budget) cases and, for up to 10 nodes, budgets one
    edge below, at and one edge above each level's spend, so the next
    level's storage cut falls on both sides of the budget break.  Levels on
    both ``Z_ℓ`` paths (at least ``n`` pushed edges, and fewer) occur, but
    on ``tiny`` only the small one."""
    csr = _head_graph(name)
    rng = np.random.default_rng(21)
    heads = np.flatnonzero(csr.din > 0)
    cases = [(int(k), int(b)) for k, b in zip(
        rng.choice(heads, 200), np.exp(rng.uniform(0, math.log(4e5), 200)))]
    for k in rng.choice(heads, min(10, heads.size), replace=False):
        cases += [(int(k), b) for b in _boundary_budgets(csr, int(k), 4)]
    pushed = _spy_pushes(monkeypatch)
    for k, budget in cases:
        got = local_push.meeting_head(csr, k, c=C, budget_edges=budget)
        assert got == _whole_level_head(csr, k, c=C, budget_edges=budget), (k, budget)
    pushed = np.array(pushed)
    assert (pushed < csr.n).any()
    assert (pushed >= csr.n).any() or name == "tiny"  # its rows hold one node each


@pytest.mark.parametrize("block", [7, 64])
def test_meeting_head_streamed_across_small_blocks(monkeypatch, block):
    """With ``BLOCK`` at 7 or 64 edges every level spans many blocks, and the
    storage cut can fall inside a level; the heads still equal the
    whole-level loop's at the default block size.  On HP-lite, 64-edge
    blocks hold several small rows that reach the same node on the dense
    ``Z_ℓ`` path, where a per-block sum would change bits."""
    rng = np.random.default_rng(5)
    cases = []
    csr = _head_graph("GQ-dead")
    for k in rng.choice(np.flatnonzero(csr.din > 1), 8, replace=False):
        budgets = _boundary_budgets(csr, int(k), 3)
        cases += [(csr, int(k), b) for b in budgets + list(rng.integers(1, budgets[-1], 4))]
    hp = _head_graph("HP-lite")
    cases += [(hp, int(k), int(b)) for k in np.random.default_rng(1).choice(hp.n, 10, replace=False)
              for b in [1e4, 3e4, 1e5, 3e5]]
    want = [_whole_level_head(g, k, c=C, budget_edges=b) for g, k, b in cases]
    monkeypatch.setattr(mv, "BLOCK", block)
    pushed = _spy_pushes(monkeypatch)
    got = [local_push.meeting_head(g, k, c=C, budget_edges=b) for g, k, b in cases]
    assert got == want
    assert max(pushed) > 20 * block


def test_meeting_head_memory_stays_below_its_last_level():
    """The benchmark panel's heaviest DB-lite head (node 23086 at the budget
    a db-opt-local query gives it) pushes 11.8M edges at its last level,
    ℓ = 7.  Its tracemalloc peak stays below 8 bytes per edge of that level,
    at that budget and at one that ends exactly after level 7, where not
    one entry of level 8 is stored.  The whole-level loop holds several
    arrays of that level's size (~35 bytes per edge)."""
    import tracemalloc

    csr = gen.load("DB-lite").csr
    k, budget = 23086, 20_453_171
    for b in [budget, 13_528_136]:
        tracemalloc.start()
        try:
            head = local_push.meeting_head(csr, k, c=C, budget_edges=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (head.ell, head.edges) == (7, 13_528_136)
        last = head.edges - _whole_level_head(csr, k, c=C, budget_edges=b, max_level=6).edges
        assert last >= 1_000_000
        assert peak < 8 * last, (b, peak / last)


# ---------------------------------------------------------------------------
# estimate_batch / Algorithm 3 end to end
# ---------------------------------------------------------------------------


def _one_node(csr, k, r_k, **kw):
    """``estimate_batch`` on a batch of one node, as ``(D̂, ℓ, pairs)``."""
    d, ell, pairs = local_push.estimate_batch(csr, np.array([k]), np.array([r_k]), c=C, **kw)
    return float(d[0]), int(ell[0]), int(pairs[0])


def test_estimate_batch_one_node_trivial_cases():
    g = from_edges("chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True)
    rng = np.random.default_rng(0)
    assert _one_node(g.csr, 0, 100, rng=rng) == (1.0, 0, 0)
    d, ell, pairs = _one_node(g.csr, 1, 100, rng=rng)
    assert d == pytest.approx(1 - C) and pairs == 0


def test_estimate_batch_one_node_generous_budget_is_nearly_exact():
    g = gen.tiny_star(4)
    d_exact = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    rng = np.random.default_rng(1)
    d, ell, pairs = _one_node(g.csr, 0, 100_000, rng=rng)
    assert abs(d - d_exact[0]) < 1e-6


def test_estimate_batch_one_node_small_budget_falls_back_to_sampling():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    rng = np.random.default_rng(2)
    # Hub node with a tiny budget: shallow head, tail mostly sampled.
    d, ell, pairs = _one_node(g.csr, 0, 2000, rng=rng)
    assert pairs > 0
    assert abs(d - d_exact[0]) < 0.05


@pytest.mark.parametrize("name", ["GQ-lite", "WV-lite"])
def test_estimate_batch_matches_per_node_heads(name):
    """Every node's ℓ(k) and tail pair count equal those of a per-node
    ``meeting_head`` call at the budget ``⌈2R(k)/√c⌉``, for R(k) = 0, for
    R(k) whose budget equals d_in(k) (level 1 just affordable), and for
    R(k) of 40 and 3000 pairs — though the batch skips the heads it cannot afford."""
    g = gen.load(name)
    din = g.csr.din
    nodes = np.arange(g.n, dtype=np.int64)
    # Largest R with ⌈2R/√c⌉ <= d_in: its budget is d_in or just below it.
    r_edge = np.floor(din * math.sqrt(C) / 2.0).astype(np.int64)
    while True:
        bump = np.ceil(2.0 * (r_edge + 1) / math.sqrt(C)) <= din
        if not bump.any():
            break
        r_edge += bump
    exact_budget = np.ceil(2.0 * r_edge / math.sqrt(C)) == din
    assert np.count_nonzero(exact_budget & (din > 1)) > 10
    for r in [np.zeros(g.n, dtype=np.int64), r_edge, r_edge + 1,
              np.full(g.n, 40), np.full(g.n, 3000)]:
        d_hat, ell, pairs = local_push.estimate_batch(
            g.csr, nodes, r, c=C, rng=np.random.default_rng(0)
        )
        for k in range(g.n):
            r_k = int(r[k])
            want_ell, want_pairs = 0, 0
            if din[k] > 1:
                budget = int(math.ceil(2.0 * r_k / math.sqrt(C)))
                want_ell = local_push.meeting_head(g.csr, k, c=C, budget_edges=budget).ell
                want_pairs = int(math.ceil(r_k * C**want_ell))
            assert (ell[k], pairs[k]) == (want_ell, want_pairs), (k, r_k)
        # Nodes whose budget is exactly d_in afford level 1.
        if r is r_edge:
            assert (ell[exact_budget & (din > 1)] >= 1).all()


def _level_two_cost(csr, nodes):
    """``d_in(k) + 2·Σ_{q ∈ I(k)} d_in(q)``: the edges a head spends by the end of level 2."""
    return np.array([csr.din[k] + 2 * csr.din[csr.in_neigh(k)].sum() for k in nodes])


@pytest.mark.parametrize("name", ["GQ-lite", "DB-lite"])
def test_estimate_batch_bulk_level_one_matches_meeting_head(monkeypatch, name):
    """Heads settled at ℓ(k) = 1 without a ``meeting_head`` call give the
    same ``(D̂, ℓ, pairs)`` bits as a batch that calls ``meeting_head`` for
    every head.  Budgets sit one edge below, at and one edge above the
    level-2 cost, and at random sizes."""
    g = gen.load(name)
    rng = np.random.default_rng(9)
    nodes = np.sort(rng.choice(g.n, size=min(g.n, 600), replace=False)).astype(np.int64)
    cost2 = _level_two_cost(g.csr, nodes)
    # The smallest R(k) whose budget ⌈2R/√c⌉ reaches a target edge count.
    def r_for(edges):
        r = np.floor(edges * math.sqrt(C) / 2.0).astype(np.int64)
        while True:
            short = np.ceil(2.0 * r / math.sqrt(C)) < edges
            if not short.any():
                return r
            r += short
    r = np.where(nodes % 4 == 0, r_for(cost2 - 1), r_for(cost2))
    r = np.where(nodes % 4 == 1, r_for(cost2 + 1), r)
    r = np.where(nodes % 4 == 3, rng.integers(0, 3000, nodes.size), r)
    budget = np.ceil(2.0 * r / math.sqrt(C))
    heads = (g.csr.din[nodes] > 1) & (g.csr.din[nodes] <= budget)
    below = heads & (budget < cost2)
    assert np.count_nonzero(below) > 50 and np.count_nonzero(heads & ~below) > 50
    assert np.count_nonzero(heads & (budget == cost2)) > 20

    calls = []
    real = local_push.meeting_head
    def counted(*a, **kw):
        calls.append(1)
        return real(*a, **kw)
    monkeypatch.setattr(local_push, "meeting_head", counted)
    got = local_push.estimate_batch(g.csr, nodes, r, c=C, rng=np.random.default_rng(3))
    assert len(calls) == np.count_nonzero(heads & ~below)
    monkeypatch.setattr(local_push, "_level_one_heads",
                        lambda csr, nodes, budget, c: (np.zeros(nodes.size, bool), np.zeros(0)))
    want = local_push.estimate_batch(g.csr, nodes, r, c=C, rng=np.random.default_rng(3))
    assert len(calls) == np.count_nonzero(heads) + np.count_nonzero(heads & ~below)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    np.testing.assert_array_equal(got[1][below], 1)
    assert (got[1][heads & ~below] >= 2).all()


def test_level_one_heads_leave_pruned_terms_to_meeting_head():
    """With ``c`` so small that ``c/d²`` falls below ``PRUNE`` for ``d > 12``,
    only the heads with ``d <= 12`` are settled in bulk, with the bits of
    ``meeting_head``'s ``z_sum``; for the others the prune leaves
    ``meeting_head`` a zero level-1 sum."""
    g = gen.load("GQ-lite")
    c = 1.5e-13
    nodes = np.flatnonzero(g.csr.din > 1).astype(np.int64)
    d = g.csr.din[nodes]
    assert (d <= 12).any() and (d > 12).any()
    budget = d.astype(np.float64)  # level 1 affordable, level 2 not
    one, z1 = local_push._level_one_heads(g.csr, nodes, budget, c=c)
    np.testing.assert_array_equal(one, d <= 12)
    heads = [local_push.meeting_head(g.csr, int(k), c=c, budget_edges=int(b))
             for k, b in zip(nodes, budget)]
    assert all(h.ell == 1 for h in heads)
    assert np.array_equal(z1, [h.z_sum for h, o in zip(heads, one) if o])
    assert all(h.z_sum == 0.0 for h, o in zip(heads, one) if not o)


def test_estimate_batch_counts_meetings_to_their_own_node():
    """Batch of alternating node kinds.  ``k`` has two dead-end
    in-neighbours: its head is exact (``D = 1 - c/2``) and its tail walks can
    never meet, so any meeting credited to it belongs to another node.  ``m``
    has four dead-end in-neighbours, one pair (``R = 1``) and no head; its
    pair meets with probability ``c/4``."""
    groups = 60
    src, dst = [], []
    for i in range(groups):
        k, m = 8 * i, 8 * i + 3
        src += [k + 1, k + 2, m + 1, m + 2, m + 3, m + 4]
        dst += [k, k, m, m, m, m]
    g = from_edges("dead-ends", 8 * groups, np.array(src), np.array(dst), directed=True)
    nodes = np.arange(8 * groups).reshape(groups, 8)[:, [0, 3]].ravel()  # k0, m0, k1, ...
    r = np.tile([5, 1], groups)
    d, ell, pairs = local_push.estimate_batch(
        g.csr, nodes, r, c=C, rng=np.random.default_rng(7)
    )
    k, m = slice(0, None, 2), slice(1, None, 2)
    assert (ell[k] >= 1).all() and (pairs[k] >= 1).all()
    assert (ell[m] == 0).all() and (pairs[m] == 1).all()
    np.testing.assert_array_equal(d[k], np.full(groups, 1.0 - C / 2))
    assert 0 < np.count_nonzero(d[m] == 0.0) < groups  # some m pairs met
    assert set(d[m]) <= {0.0, 1.0}


def test_estimate_batch_tail_is_unbiased():
    """Mean D̂ over 6 seeds against the exact D on every GQ-lite node, with
    budgets small enough that most tails are sampled and R(k) alternating
    between neighbouring nodes.  Per seed a node's
    D̂ has variance <= c^{2ℓ}/(4·pairs), which bounds each node's error and
    the summed error over all nodes (a bias in the tail walks or in how
    meetings are counted back to nodes shows in the sum)."""
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    r = np.where(nodes % 2 == 0, 300, 3000)
    seeds = range(6)
    runs = [
        local_push.estimate_batch(g.csr, nodes, r, c=C, rng=np.random.default_rng(s))
        for s in seeds
    ]
    d_mean = np.mean([d for d, _, _ in runs], axis=0)
    ell, pairs = runs[0][1], runs[0][2]
    sampled = pairs > 0
    assert np.count_nonzero(sampled) > 400 and len(set(ell[sampled])) > 1
    sd = C**ell[sampled] / (2.0 * np.sqrt(len(seeds) * pairs[sampled]))
    err = d_mean[sampled] - d_exact[sampled]
    assert np.all(np.abs(err) <= 5.0 * sd)
    assert abs(err.sum()) <= 4.0 * np.sqrt(np.sum(sd**2))
    # Nodes without samples (d_in <= 1) are exact.
    np.testing.assert_allclose(d_mean[~sampled], d_exact[~sampled], atol=1e-12)


def test_estimate_D_local_push_close_to_exact():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    counts = np.full(g.n, 3000, dtype=np.int64)
    d_hat, stats = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=5
    )
    assert np.abs(d_hat - d_exact).max() < 0.02
    assert set(stats.columns) == {"node", "d_hat", "ell", "pairs"}
    assert len(stats) == g.n


def test_estimate_D_local_push_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(60, dtype=np.int64)
    counts = np.linspace(10, 5000, 60).astype(np.int64)
    d_a, st_a = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=7, engine="local"
    )
    d_b, st_b = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=7, engine="spark"
    )
    np.testing.assert_array_equal(d_a, d_b)
    assert st_a.equals(st_b)


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_estimate_D_local_push_no_nodes(spark, monkeypatch, engine):
    """An empty node set gives the default ``1-c`` everywhere, an empty,
    typed stats frame and empty, typed ``simulate_pairs`` arrays; Spark runs
    no job for it."""
    g = gen.load("GQ-lite", spark)

    def no_job(*args, **kwargs):
        raise AssertionError("parallelize called without work rows")

    monkeypatch.setattr(spark.sparkContext, "parallelize", no_job)
    empty = np.zeros(0, dtype=np.int64)
    d, stats = local_push.estimate_D_local_push(g, empty, empty, c=C, seed=1, engine=engine)
    np.testing.assert_array_equal(d, np.full(g.n, 1 - C))
    assert len(stats) == 0
    assert stats.dtypes.to_dict() == {
        "node": np.int64, "d_hat": np.float64, "ell": np.int64, "pairs": np.int64
    }
    estimate = functools.partial(local_push.estimate_batch, c=C)
    arrays = pair_walks.simulate_pairs(g, empty, empty, estimate, seed=1, engine=engine)
    assert [(a.size, a.dtype) for a in arrays] == [
        (0, np.float64), (0, np.int64), (0, np.int64)
    ]
