"""Benchmark: Figure-9 ablation — basic vs optimized ExactSim.

Matched ε and pair cap; the assertions pin the paper's qualitative result
(the optimized variant is strictly more accurate under the same budget and
simulates far fewer pairs thanks to the c^ℓ(k) variance reduction).  The
accuracy comparison uses the median MaxError over fixed seeds: one draw of
each variant can land either way (at seed 5 basic once drew 7.3e-5 against
opt's 1.17e-4), while opt's median stays below basic's.
"""
import numpy as np
import pytest

from repro.baselines.power_method import simrank_power
from repro.core.exactsim import exactsim
from repro.graphs import generators as gen

C = 0.6
EPS = 1e-3
CAP = 500_000
SEEDS = range(12)


@pytest.fixture(scope="module")
def gq():
    return gen.load("GQ-lite")


@pytest.fixture(scope="module")
def truth(gq):
    return simrank_power(gq, c=C, tol=1e-10)[:, 0]


@pytest.fixture(scope="module")
def results(gq):
    return {
        v: [exactsim(gq, 0, eps=EPS, variant=v, seed=s, max_pairs=CAP) for s in SEEDS]
        for v in ("basic", "opt")
    }


@pytest.mark.parametrize("variant", ["basic", "opt"])
def test_bench_ablation_variant(benchmark, gq, truth, results, variant):
    r = benchmark.pedantic(
        lambda: exactsim(gq, 0, eps=EPS, variant=variant, seed=5, max_pairs=CAP),
        rounds=2,
        iterations=1,
    )
    median = {
        v: float(np.median([np.abs(x.scores - truth).max() for x in runs]))
        for v, runs in results.items()
    }
    if variant == "opt":
        assert median["opt"] < median["basic"]
        assert r.pairs_simulated < results["basic"][0].pairs_simulated
    else:
        assert median["basic"] > median["opt"]
