"""Algorithm 3: Lemma-4 heads, adaptive budgets, tail sampling, Spark driver."""
import numpy as np
import pytest

from repro.core import diagonal, local_push
from tests.helpers import exact_d
from repro.graphs import generators as gen
from repro.graphs.graph import from_edges

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


# ---------------------------------------------------------------------------
# estimate_node / Algorithm 3 end to end
# ---------------------------------------------------------------------------


def test_estimate_node_trivial_cases():
    g = from_edges("chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True)
    rng = np.random.default_rng(0)
    assert local_push.estimate_node(g.csr, 0, 100, c=C, rng=rng) == (1.0, 0, 0)
    d, ell, pairs = local_push.estimate_node(g.csr, 1, 100, c=C, rng=rng)
    assert d == pytest.approx(1 - C) and pairs == 0


def test_estimate_node_with_generous_budget_is_nearly_exact():
    g = gen.tiny_star(4)
    d_exact = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    rng = np.random.default_rng(1)
    d, ell, pairs = local_push.estimate_node(
        g.csr, 0, 100_000, c=C, rng=rng, skip_tol=1e-9
    )
    assert abs(d - d_exact[0]) < 1e-6


def test_estimate_node_skip_tol_skips_sampling():
    g = gen.tiny_star(4)
    rng = np.random.default_rng(1)
    d, ell, pairs = local_push.estimate_node(
        g.csr, 0, 100_000, c=C, rng=rng, skip_tol=0.9
    )
    assert pairs == 0  # c^ell <= 0.9 already after one level


def test_estimate_node_small_budget_falls_back_to_sampling():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    rng = np.random.default_rng(2)
    # Hub node with a tiny budget: shallow head, tail mostly sampled.
    d, ell, pairs = local_push.estimate_node(g.csr, 0, 2000, c=C, rng=rng)
    assert pairs > 0
    assert abs(d - d_exact[0]) < 0.05


def test_estimate_D_local_push_close_to_exact():
    g = gen.load("GQ-lite")
    d_exact = exact_d("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    counts = np.full(g.n, 3000, dtype=np.int64)
    d_hat, stats = local_push.estimate_D_local_push(
        g, nodes, counts, c=C, seed=5, skip_tol=1e-7
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

