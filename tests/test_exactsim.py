"""ExactSim end-to-end: error guarantees, variants, budgets, engines."""
import numpy as np
import pytest

from repro import metrics
from repro.core.exactsim import exactsim
from repro.graphs import generators as gen
from tests.helpers import power_truth

C = 0.6


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_opt_error_within_eps(name, eps):
    g = gen.load(name)
    truth = power_truth(name)
    src = 3
    r = exactsim(g, src, eps=eps, variant="opt", seed=2, max_pairs=2_000_000)
    assert np.abs(r.scores - truth[:, src]).max() <= eps


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_opt_error_within_fine_eps_over_seeds_and_sources(name, eps):
    """The additive-ε guarantee at fine ε: MaxError <= ε for every one of
    sources 0-2 × seeds 0-4 under the experiments' 1e7-pair cap."""
    g = gen.load(name)
    truth = power_truth(name)
    for src in range(3):
        for seed in range(5):
            r = exactsim(g, src, eps=eps, variant="opt", seed=seed, max_pairs=10_000_000)
            err = np.abs(r.scores - truth[:, src]).max()
            assert err <= eps, (src, seed, err)


@pytest.mark.parametrize("name", ["GQ-lite", "WV-lite"])
def test_basic_error_within_eps(name):
    g = gen.load(name)
    truth = power_truth(name)
    src = 3
    eps = 1e-1
    r = exactsim(g, src, eps=eps, variant="basic", seed=2, max_pairs=4_000_000)
    assert r.effective_eps == eps  # budget not capped at this eps
    assert np.abs(r.scores - truth[:, src]).max() <= eps


def test_opt_much_more_accurate_than_basic_at_same_budget():
    """The Figure-9 shape: same pair cap, the optimized variant lands orders
    of magnitude closer to the truth."""
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")[:, 0]
    cap = 1_000_000
    basic = exactsim(g, 0, eps=1e-4, variant="basic", seed=3, max_pairs=cap)
    opt = exactsim(g, 0, eps=1e-4, variant="opt", seed=3, max_pairs=cap)
    err_b = np.abs(basic.scores - truth).max()
    err_o = np.abs(opt.scores - truth).max()
    assert err_o < err_b / 3


def test_opt_uses_fewer_pairs_and_less_memory():
    g = gen.load("GQ-lite")
    cap = 500_000
    basic = exactsim(g, 0, eps=1e-3, variant="basic", seed=4, max_pairs=cap)
    opt = exactsim(g, 0, eps=1e-3, variant="opt", seed=4, max_pairs=cap)
    assert opt.pairs_simulated < basic.pairs_simulated
    assert opt.memory_bytes() < basic.memory_bytes()
    assert basic.memory_bytes() == basic.dense_bytes


def test_precision_at_k_is_one_at_small_eps():
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")
    for src in (0, 11):
        r = exactsim(g, src, eps=1e-3, variant="opt", seed=5, max_pairs=2_000_000)
        p = metrics.precision_at_k(r.scores, truth[:, src], 50, source=src)
        assert p == 1.0


def test_deterministic_in_seed():
    g = gen.load("WV-lite")
    a = exactsim(g, 1, eps=1e-2, variant="opt", seed=6, max_pairs=200_000)
    b = exactsim(g, 1, eps=1e-2, variant="opt", seed=6, max_pairs=200_000)
    np.testing.assert_array_equal(a.scores, b.scores)
    c_ = exactsim(g, 1, eps=1e-2, variant="opt", seed=7, max_pairs=200_000)
    assert np.any(a.scores != c_.scores)


def test_effective_eps_reported_when_capped():
    g = gen.load("GQ-lite")
    r = exactsim(g, 0, eps=1e-5, variant="basic", seed=1, max_pairs=10_000)
    assert r.effective_eps > 1e-5
    assert r.total_pairs_allocated <= 10_000


@pytest.mark.parametrize("variant, sampling_share", [("basic", 1.0), ("opt", 0.5)])
def test_effective_eps_follows_the_variants_budget(monkeypatch, variant, sampling_share):
    """A capped query reports ε from its own variant's budget: the sampling
    share of ε (all of it for basic, ε/2 for opt) times √(theoretical /
    allocated pairs), plus opt's deterministic ε/2 — never the basic
    formula applied to opt's far smaller π²-budget."""
    from repro.core import diagonal

    seen = []
    real = diagonal.allocate
    monkeypatch.setattr(
        diagonal, "allocate", lambda *a, **kw: seen.append(real(*a, **kw)) or seen[-1]
    )
    g = gen.load("GQ-lite")
    eps, cap = 1e-3, 20_000
    r = exactsim(g, 0, eps=eps, variant=variant, seed=1, max_pairs=cap)
    (_nodes, _counts, total, theory), = seen
    assert total == r.total_pairs_allocated <= cap < theory
    share = sampling_share * eps
    assert r.effective_eps == pytest.approx(eps - share + share * np.sqrt(theory / total))
    if variant == "opt":
        basic = exactsim(g, 0, eps=eps, variant="basic", seed=1, max_pairs=cap)
        assert eps < r.effective_eps < basic.effective_eps


def test_effective_eps_equals_eps_when_not_capped():
    g = gen.load("GQ-lite")
    r = exactsim(g, 0, eps=1e-1, variant="basic", seed=1, max_pairs=10_000_000)
    assert r.effective_eps == 1e-1


def test_result_accounting_fields():
    g = gen.load("GQ-lite")
    r = exactsim(g, 0, eps=1e-2, variant="opt", seed=1, max_pairs=100_000)
    assert r.L >= 1
    assert r.seconds_total == pytest.approx(
        r.seconds_forward + r.seconds_diagonal + r.seconds_backward
    )
    assert r.stored_entries > 0
    assert r.variant == "opt"


def test_invalid_args():
    g = gen.load("GQ-lite")
    with pytest.raises(ValueError, match="variant"):
        exactsim(g, 0, eps=1e-2, variant="bogus")
    with pytest.raises(ValueError, match="source"):
        exactsim(g, 10**6, eps=1e-2)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        pytest.param({"eps": 0.0}, "eps", id="eps=0"),
        pytest.param({"eps": 1.0}, "eps", id="eps=1"),
        pytest.param({"eps": -1e-2}, "eps", id="eps<0"),
        pytest.param({"eps": 1e-2, "c": 0.0}, "c must", id="c=0"),
        pytest.param({"eps": 1e-2, "c": 1.0}, "c must", id="c=1"),
        pytest.param({"eps": 1e-1, "walk_engine": "sparkk"}, "engine", id="engine-opt"),
        pytest.param(
            {"eps": 1e-1, "variant": "basic", "walk_engine": "sparkk"},
            "engine",
            id="engine-basic",
        ),
        pytest.param({"eps": 1e-1, "seed": -1}, "seed", id="seed<0"),
        pytest.param(
            {"eps": 1e-1, "seed": -1, "walk_engine": "spark"}, "seed", id="seed<0-spark"
        ),
        pytest.param({"eps": 1e-1, "max_pairs": 0}, "max_pairs", id="max_pairs=0"),
        pytest.param(
            {"eps": 1e-1, "variant": "basic", "max_pairs": -5}, "max_pairs",
            id="max_pairs<0-basic",
        ),
    ],
)
def test_rejects_out_of_range_inputs(kwargs, match):
    g = gen.load("GQ-lite")
    with pytest.raises(ValueError, match=match):
        exactsim(g, 0, **kwargs)


def test_walk_engine_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    a = exactsim(g, 2, eps=1e-2, variant="opt", seed=8, max_pairs=100_000,
                 walk_engine="local")
    b = exactsim(g, 2, eps=1e-2, variant="opt", seed=8, max_pairs=100_000,
                 walk_engine="spark")
    np.testing.assert_array_equal(a.scores, b.scores)


def test_basic_walk_engine_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    a = exactsim(g, 2, eps=1e-1, variant="basic", seed=8, max_pairs=200_000,
                 walk_engine="local")
    b = exactsim(g, 2, eps=1e-1, variant="basic", seed=8, max_pairs=200_000,
                 walk_engine="spark")
    np.testing.assert_array_equal(a.scores, b.scores)


def test_source_similarity_close_to_one():
    """s(i) estimates S(i,i) = 1; with a decent budget it must be close."""
    g = gen.load("GQ-lite")
    r = exactsim(g, 0, eps=1e-2, variant="opt", seed=9, max_pairs=1_000_000)
    assert r.scores[0] == pytest.approx(1.0, abs=1e-2)


def test_scores_nonnegative_and_bounded():
    g = gen.load("WV-lite")
    r = exactsim(g, 5, eps=1e-2, variant="opt", seed=10, max_pairs=500_000)
    assert r.scores.min() >= -1e-2  # sampling noise only
    assert r.scores.max() <= 1.0 + 1e-2
