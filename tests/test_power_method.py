"""Power Method ground truth: axioms, direct-solve agreement."""
import numpy as np
import pytest

from repro.baselines import power_method as pm
from repro.graphs import generators as gen

TINY = [gen.tiny_cycle(4), gen.tiny_cycle(7), gen.tiny_star(3), gen.tiny_star(5)]


@pytest.mark.parametrize("g", TINY, ids=lambda g: g.name)
def test_power_matches_direct_solve(g):
    """Fixed-point iteration vs the exact n²×n² linear system (eq. 2)."""
    S = pm.simrank_power(g, c=0.6, tol=1e-13)
    Sd = pm.simrank_direct_solve(g, c=0.6)
    np.testing.assert_allclose(S, Sd, atol=1e-10)


def test_direct_solve_guard():
    with pytest.raises(ValueError, match="tiny"):
        pm.simrank_direct_solve(gen.load("GQ-lite"))


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
def test_simrank_axioms(name):
    from tests.helpers import power_truth

    g = gen.load(name)
    S = power_truth(name)
    n = g.n
    np.testing.assert_allclose(np.diag(S), 1.0)
    assert np.abs(S - S.T).max() < 1e-12  # SimRank is symmetric
    assert S.min() >= 0.0 and S.max() <= 1.0 + 1e-12


def test_simrank_zero_for_dead_end_nodes():
    # Node with d_in = 0 has similarity 0 to everything else.
    from repro.graphs.graph import from_edges

    g = from_edges(
        "dag", 4, np.array([0, 0, 1]), np.array([1, 2, 3]), directed=True
    )
    S = pm.simrank_power(g, c=0.6, tol=1e-12)
    assert np.all(S[0, 1:] == 0) and np.all(S[1:, 0] == 0)


def test_directed_cycle_simrank_is_identity():
    """On a directed cycle the two walks never meet: S = I exactly."""
    g = gen.tiny_cycle(6)
    S = pm.simrank_power(g, c=0.6, tol=1e-13)
    np.testing.assert_allclose(S, np.eye(6), atol=1e-12)


def test_star_leaf_similarity_is_c():
    """Two leaves of a star share the single in-neighbor (the center):
    S(l1,l2) = c·S(center,center) = c."""
    g = gen.tiny_star(4)
    S = pm.simrank_power(g, c=0.6, tol=1e-13)
    for a in range(1, 5):
        for b in range(1, 5):
            if a != b:
                assert S[a, b] == pytest.approx(0.6, abs=1e-10)


def test_power_iterations_bound():
    assert 0.6 ** pm.power_iterations(0.6, 1e-8) <= 1e-8
    assert pm.power_iterations(0.6, 0.5) >= 1


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_power_truncation_error_bound(tol):
    g = gen.tiny_star(4)
    S_ref = pm.simrank_power(g, c=0.6, tol=1e-14)
    S = pm.simrank_power(g, c=0.6, tol=tol)
    assert np.abs(S - S_ref).max() <= tol
