"""Diagonal correction matrix D: exact oracles, budgets, MC estimator."""
import numpy as np
import pytest

from repro.core import diagonal
from repro.graphs import generators as gen
from tests.helpers import exact_d, exact_d_power
from repro.graphs.graph import from_edges

C = 0.6


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
def test_exact_oracles_agree(name):
    """Power-Method identity vs the dense linear system — two independent
    derivations of D must coincide."""
    d1 = exact_d_power(name)
    d2 = exact_d(name)
    np.testing.assert_allclose(d1, d2, atol=1e-9)


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
def test_exact_diagonal_range(name):
    d = exact_d_power(name)
    assert d.min() >= 1.0 - C - 1e-9
    assert d.max() <= 1.0 + 1e-9


def test_exact_diagonal_trivial_cases():
    # Node 0: d_in = 0 -> D = 1.  Node 2: d_in = 1 -> D = 1-c.
    g = from_edges(
        "chain", 3, np.array([0, 1]), np.array([1, 2]), directed=True
    )
    d = diagonal.exact_diagonal(g, c=C, tol=1e-12)
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(1.0 - C)
    assert d[2] == pytest.approx(1.0 - C)


def test_exact_diagonal_cycle():
    # d_in = 1 everywhere on a cycle: D = (1-c)I.
    g = gen.tiny_cycle(5)
    np.testing.assert_allclose(
        diagonal.exact_diagonal(g, c=C, tol=1e-12), (1 - C) * np.ones(5), atol=1e-10
    )


def test_linsys_guard_on_large_graph():
    with pytest.raises(ValueError, match="small graphs"):
        diagonal.exact_diagonal_linsys(gen.load("DB-lite"))


# ---------------------------------------------------------------------------
# sample budgets and allocation
# ---------------------------------------------------------------------------


def test_total_samples_formula():
    import math

    n, eps = 1000, 1e-2
    expected = math.ceil(6 * math.log(n) / ((1 - math.sqrt(C)) ** 4 * eps**2))
    assert diagonal.total_samples(n, eps, C) == expected


def test_total_samples_monotone_in_eps():
    assert diagonal.total_samples(1000, 1e-3, C) > diagonal.total_samples(1000, 1e-2, C)


def test_allocate_pi_mode_covers_support():
    pi = np.array([0.5, 0.0, 0.25, 0.25])
    nodes, counts, total, theory = diagonal.allocate(pi, 100, mode="pi")
    assert nodes.tolist() == [0, 2, 3]
    assert counts.tolist() == [50, 25, 25]
    assert total == theory == 100


def test_allocate_pi_ceil_gives_every_support_node_a_sample():
    pi = np.array([0.999, 0.001])
    nodes, counts, _, _ = diagonal.allocate(pi, 10, mode="pi")
    assert counts.min() >= 1 and nodes.size == 2


def test_allocate_pi2_scales_by_norm():
    pi = np.array([0.9, 0.1])
    norm2 = 0.81 + 0.01
    R = 1000
    nodes, counts, total, _ = diagonal.allocate(pi, R, mode="pi2")
    r_eff = int(np.ceil(R * norm2))
    assert counts[0] == int(np.ceil(r_eff * 0.81 / norm2))
    # π²-allocation needs far fewer pairs than the basic scheme overall.
    _, _, total_basic, _ = diagonal.allocate(pi, R, mode="pi")
    assert total < total_basic


def test_allocate_cap_scales_down_and_reports_theory():
    pi = np.full(10, 0.1)
    nodes, counts, total, theory = diagonal.allocate(pi, 10_000, mode="pi", cap=100)
    assert theory == 10_000
    assert total <= 100  # proportional scale-down with a min of 1 per node
    assert counts.min() >= 1
    # Ten nodes whose scaled share rounds to 0 still get their one pair, and
    # the total stays within the cap, or at |support| when the cap is smaller.
    pi = np.array([0.99] + [0.001] * 10)
    _, counts, total, theory = diagonal.allocate(pi, 10_000, mode="pi", cap=100)
    assert theory == 10_000 and counts.min() == 1
    assert total == counts.sum() <= 100
    _, counts, total, _ = diagonal.allocate(pi, 10_000, mode="pi", cap=5)
    assert counts.tolist() == [1] * 11 and total == 11


def test_allocate_empty_support():
    nodes, counts, total, theory = diagonal.allocate(np.zeros(4), 100, mode="pi")
    assert nodes.size == 0 and total == 0 and theory == 0


def test_allocate_unknown_mode():
    with pytest.raises(ValueError, match="unknown allocation"):
        diagonal.allocate(np.array([1.0]), 10, mode="bogus")


# ---------------------------------------------------------------------------
# Algorithm 2 Monte-Carlo estimator
# ---------------------------------------------------------------------------


def test_estimate_D_mc_close_to_exact():
    g = gen.tiny_star(4)
    d_exact = diagonal.exact_diagonal(g, c=C, tol=1e-12)
    nodes = np.arange(g.n, dtype=np.int64)
    counts = np.full(g.n, 40_000, dtype=np.int64)
    d_hat = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=3)
    # Bernoulli std at R = 4e4 is ~2.5e-3; 4σ tolerance keeps flake < 1e-4
    # (and the seed is fixed anyway).
    np.testing.assert_allclose(d_hat, d_exact, atol=0.01)


def test_estimate_D_mc_default_fill():
    g = gen.tiny_star(4)
    d_hat = diagonal.estimate_D_mc(g, np.array([0]), np.array([100]), c=C, seed=1)
    assert np.all(d_hat[1:] == 1 - C)


def test_estimate_D_mc_deterministic_in_seed():
    g = gen.load("GQ-lite")
    nodes = np.arange(50, dtype=np.int64)
    counts = np.full(50, 200, dtype=np.int64)
    a = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=9)
    b = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=9)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_estimate_D_mc_no_nodes(spark, engine):
    g = gen.load("GQ-lite", spark)
    empty = np.zeros(0, dtype=np.int64)
    d_hat = diagonal.estimate_D_mc(g, empty, empty, c=C, seed=1, engine=engine)
    np.testing.assert_array_equal(d_hat, np.full(g.n, 1 - C))


def test_estimate_D_mc_spark_engine_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(30, dtype=np.int64)
    counts = np.full(30, 500, dtype=np.int64)
    a = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=4, engine="local")
    b = diagonal.estimate_D_mc(g, nodes, counts, c=C, seed=4, engine="spark")
    np.testing.assert_array_equal(a, b)
