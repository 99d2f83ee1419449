"""Benchmark: single-source query time per method (Figures 1/5 x-axis).

One benchmark per algorithm at a matched moderate setting on GQ-lite, with
the accuracy asserted against the Power-Method ground truth so a regression
in either speed or correctness fails the bench.
"""
import numpy as np
import pytest

from repro.baselines import linearization, mc, parsim, prsim
from repro.baselines.power_method import simrank_power
from repro.core.exactsim import exactsim
from repro.graphs import generators as gen

C = 0.6
SRC = 0
CAP = 500_000


@pytest.fixture(scope="module")
def gq():
    return gen.load("GQ-lite")


@pytest.fixture(scope="module")
def truth(gq):
    return simrank_power(gq, c=C, tol=1e-10)[:, SRC]


def test_bench_exactsim_opt(benchmark, gq, truth):
    r = benchmark.pedantic(
        lambda: exactsim(gq, SRC, eps=1e-2, variant="opt", seed=1, max_pairs=CAP),
        rounds=3,
        iterations=1,
    )
    assert np.abs(r.scores - truth).max() <= 1e-2


def test_bench_exactsim_basic(benchmark, gq, truth):
    r = benchmark.pedantic(
        lambda: exactsim(gq, SRC, eps=1e-2, variant="basic", seed=1, max_pairs=CAP),
        rounds=3,
        iterations=1,
    )
    assert np.abs(r.scores - truth).max() <= 1e-2


def test_bench_parsim(benchmark, gq, truth):
    r = benchmark.pedantic(
        lambda: parsim.parsim(gq, SRC, L=20, c=C), rounds=3, iterations=1
    )
    # ParSim's error floor on GQ-lite sits above 1e-3 (wrong D) — that IS
    # the expected behaviour.
    assert 1e-4 < np.abs(r.scores - truth).max() < 5e-2


def test_bench_mc_query(benchmark, gq, truth):
    idx = mc.preprocess(gq, r_per_node=200, c=C, seed=2)
    r = benchmark.pedantic(
        lambda: mc.query(gq, idx, SRC), rounds=3, iterations=1
    )
    assert np.abs(r.scores - truth).max() < 0.3


def test_bench_linearization_query(benchmark, gq, truth):
    idx = linearization.preprocess(gq, eps=1e-1, c=C, seed=3, max_pairs=2_000_000)
    r = benchmark.pedantic(
        lambda: linearization.query(gq, idx, SRC, c=C), rounds=3, iterations=1
    )
    assert np.abs(r.scores - truth).max() <= 1e-1


def test_bench_prsim_query(benchmark, gq, truth):
    idx = prsim.preprocess(gq, eps=1e-1, c=C, seed=4, max_pairs=1_000_000)
    r = benchmark.pedantic(
        lambda: prsim.query(gq, idx, SRC, c=C), rounds=3, iterations=1
    )
    assert np.abs(r.scores - truth).max() <= 1e-1


def test_bench_exactsim_spark_walks(benchmark, spark, truth):
    """The distributed walk engine end to end (one RDD job + broadcast)."""
    g = gen.load("GQ-lite", spark)
    r = benchmark.pedantic(
        lambda: exactsim(
            g, SRC, eps=1e-2, variant="opt", seed=1, max_pairs=CAP,
            walk_engine="spark",
        ),
        rounds=1,
        iterations=1,
    )
    assert np.abs(r.scores - truth).max() <= 1e-2
