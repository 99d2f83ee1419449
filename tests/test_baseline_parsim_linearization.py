"""ParSim and Linearization baselines: convergence shapes from the paper."""
import numpy as np
import pytest

from repro import metrics
from repro.baselines import linearization, parsim
from repro.graphs import generators as gen
from tests.helpers import exact_d, power_truth

C = 0.6


# ---------------------------------------------------------------------------
# ParSim
# ---------------------------------------------------------------------------


def test_parsim_error_plateaus_at_D_approximation():
    """ParSim's D=(1-c)I shortcut converges to the *wrong* fixed point: its
    MaxError stops improving once c^L is below the D-approximation error —
    the Figure-1 plateau the paper highlights."""
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")[:, 0]
    e20 = np.abs(parsim.parsim(g, 0, L=20, c=C) - truth).max()
    e60 = np.abs(parsim.parsim(g, 0, L=60, c=C) - truth).max()
    assert e20 > 1e-4  # plateau well above exactness
    assert abs(e20 - e60) < 1e-4  # ... and flat in L
    # The plateau equals the best achievable with D=(1-c)I: compare against
    # the exact-D error decomposition.
    d_gap = np.abs(exact_d("GQ-lite") - (1 - C)).max()
    assert d_gap > 1e-3  # the approximation really is wrong on this graph


def test_parsim_truncation_decays_before_plateau():
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")[:, 0]
    errs = [
        np.abs(parsim.parsim(g, 0, L=L, c=C) - truth).max()
        for L in (1, 3, 6)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_parsim_ranks_well_despite_error():
    """§4.1: ParSim achieves high Precision@k on small graphs even though its
    MaxError is large."""
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")
    r = parsim.parsim(g, 0, L=30, c=C)
    p = metrics.precision_at_k(r, truth[:, 0], 50, source=0)
    assert p >= 0.85


def test_parsim_on_cycle_is_exact():
    # On a cycle D really is (1-c)I, so ParSim is exact there.
    g = gen.tiny_cycle(5)
    r = parsim.parsim(g, 0, L=40, c=C)
    truth = np.zeros(5)
    truth[0] = 1.0
    np.testing.assert_allclose(r, truth, atol=1e-8)


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


def test_linearization_budget_cliff():
    """The O(n log n/ε²) preprocessing wall: small ε must be omitted."""
    g = gen.load("GQ-lite")
    with pytest.raises(linearization.BudgetExceeded):
        linearization.preprocess(g, eps=1e-3, c=C, max_pairs=1_000_000)


def test_linearization_total_cost_scales_with_n():
    assert (
        linearization.samples_per_node(500, 1e-2)
        == linearization.samples_per_node(500, 1e-2)
    )
    n_cost = 500 * linearization.samples_per_node(500, 1e-2)
    assert n_cost > 20 * linearization.samples_per_node(500, 1e-2)


def test_linearization_accuracy_and_index():
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")[:, 0]
    idx = linearization.preprocess(g, eps=1e-1, c=C, seed=1, max_pairs=5_000_000)
    assert idx.index_bytes() == g.n * 8  # the index is just D (Figure 4)
    res = linearization.query(g, idx, 0, c=C)
    assert np.abs(res - truth).max() <= 1e-1
    # D̂ itself is entrywise close at this budget.
    assert np.abs(idx.d_hat - exact_d("GQ-lite")).max() < 0.05


def test_linearization_query_uses_given_D():
    """With the exact D the query reduces to pure linearization: error is
    only the c^L truncation."""
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")[:, 5]
    idx = linearization.LinearizationIndex(d_hat=exact_d("GQ-lite"), eps=1e-6)
    res = linearization.query(g, idx, 5, c=C)
    assert np.abs(res - truth).max() < 1e-5
