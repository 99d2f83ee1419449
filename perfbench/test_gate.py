"""Self-test of the benchmark's correctness gate: ``pytest perfbench``.

The gate must pass a real ExactSim result and reject the same vector once a
score is perturbed past ``eps``.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402

EPS = 0.1
SRC = 3


@pytest.fixture(scope="module")
def query():
    from repro.baselines.power_method import simrank_power
    from repro.core.exactsim import exactsim
    from repro.graphs import generators

    g = generators.load("GQ-lite")
    res = exactsim(g, SRC, eps=EPS, variant="basic", seed=1)
    return res.scores, simrank_power(g, c=0.6, tol=1e-10)[:, SRC]


def test_gate_passes_real_query(query):
    scores, truth = query
    r = gate.check(scores, SRC, EPS, truth)
    assert r.ok, r.problems
    assert r.self_err <= r.max_error <= EPS


@pytest.mark.parametrize(
    "node, delta, needs_truth",
    [
        (SRC, -2 * EPS, False),  # S(i,i) = 1 violated, score still in range
        (SRC + 1, 1.5, False),  # score above 1 + eps
        (SRC + 1, -1.5, False),  # score below -eps
        (SRC + 1, 2 * EPS, True),  # in range, but MaxError > eps
        (SRC + 1, np.nan, False),  # non-finite
    ],
)
def test_gate_rejects_perturbed_scores(query, node, delta, needs_truth):
    scores, truth = query
    bad = scores.copy()
    bad[node] += delta
    assert not gate.check(bad, SRC, EPS, truth).ok
    if not needs_truth:
        assert not gate.check(bad, SRC, EPS).ok
