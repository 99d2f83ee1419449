"""PRSim-lite baseline: index build, eq.-7 query, budgets, oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import prsim
from repro.core import linearized
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent
from tests.helpers import exact_d, power_truth

C = 0.6


def test_pagerank_ppr_sums_to_walk_mass():
    g = gen.tiny_cycle(5)
    pr = prsim.pagerank_ppr(g, c=C, L=20)
    # No dead ends: total mass 1 - (√c)^{L+1}.
    assert pr.sum() == pytest.approx(1 - C ** ((20 + 1) / 2), abs=1e-10)


def test_pagerank_ppr_uniform_on_cycle():
    g = gen.tiny_cycle(5)
    pr = prsim.pagerank_ppr(g, c=C, L=20)
    np.testing.assert_allclose(pr, pr[0], atol=1e-12)


def test_preprocess_entries_accounting():
    g = gen.tiny_cycle(6)
    idx = prsim.preprocess(g, eps=1e-2, c=C, seed=1, max_pairs=10**6)
    # Each source's level vectors on a cycle have exactly one entry.
    L = linearized.iterations_for(1e-2, C)
    assert idx.key.size == idx.j.size == idx.val.size == 6 * (L + 1)
    # index_bytes() is what the index holds: its three arrays and D̂.
    assert idx.index_bytes() == (
        idx.key.nbytes + idx.j.nbytes + idx.val.nbytes + idx.d_hat.nbytes
    ) == 6 * (L + 1) * 24 + 6 * 8


def test_preprocess_rows_within_a_key_ascend_in_j():
    """The index is sorted by key, and the rows sharing a key come in
    ascending ``j``: the order the per-node vectors were built in."""
    g = gen.load("GQ-lite")
    idx = prsim.preprocess(g, eps=5e-2, c=C, seed=1, max_pairs=10**4)
    assert (np.diff(idx.key) >= 0).all()
    tie = idx.key[1:] == idx.key[:-1]
    assert tie.sum() > idx.key.size // 2
    assert (idx.j[1:][tie] > idx.j[:-1][tie]).all()


def test_preprocess_flags_a_capped_pair_budget():
    """D̂'s theoretical PageRank allocation (~4e5 pairs here) is walked in
    full without a cap and flagged ``capped`` when ``max_pairs`` cuts it."""
    g = gen.tiny_cycle(6)
    assert not prsim.preprocess(g, eps=1e-1, c=C, seed=1).capped
    assert prsim.preprocess(g, eps=1e-1, c=C, seed=1, max_pairs=1000).capped


def test_preprocess_budget_exceeded():
    g = gen.load("GQ-lite")
    with pytest.raises(prsim.BudgetExceeded):
        prsim.preprocess(g, eps=1e-3, c=C, max_entries=1000, max_pairs=10**6)


def test_query_close_to_truth_with_exact_D():
    """With the exact D injected, the eq.-7 join reproduces SimRank up to
    the truncation thresholds — isolates the join from the D estimation."""
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")
    idx = prsim.preprocess(g, eps=1e-2, c=C, seed=2, max_pairs=2_000_000)
    idx.d_hat = exact_d("GQ-lite")
    res = prsim.query(g, idx, 0, c=C)
    assert np.abs(res - truth[:, 0]).max() < 1e-2


def test_query_end_to_end_error_within_eps_scale():
    g = gen.load("GQ-lite")
    truth = power_truth("GQ-lite")
    idx = prsim.preprocess(g, eps=1e-1, c=C, seed=3, max_pairs=5_000_000)
    res = prsim.query(g, idx, 4, c=C)
    assert np.abs(res - truth[:, 4]).max() <= 1e-1


def test_query_join_oracle():
    """The eq.-7 aggregation is SQL: DuckDB replays the index⋈source join."""
    g = gen.load("GQ-lite")
    idx = prsim.preprocess(g, eps=1e-1, c=C, seed=5, max_pairs=500_000)
    source = 9
    fwd = linearized.forward(
        g.csr, source, c=C, L=idx.L, threshold=linearized.sparse_threshold(idx.eps, C)
    )
    srows = pd.DataFrame(
        [(ell, k, v * idx.d_hat[k]) for ell, (ks, vs) in enumerate(fwd.levels)
         for k, v in zip(ks, vs)],
        columns=["ell", "k", "w"],
    )
    s = prsim.query(g, idx, source, c=C)
    j = np.flatnonzero(s)
    assert_equivalent(
        pd.DataFrame({"j": j, "score": s[j]}),
        f"""
        SELECT i.j AS j, SUM(i.val * s.w) / POWER(1 - SQRT({C}), 2) AS score
        FROM index_pdf i JOIN srows s ON i.ell = s.ell AND i.k = s.k
        GROUP BY i.j
        """,
        index_pdf=pd.DataFrame(
            {"ell": idx.key // g.n, "k": idx.key % g.n, "j": idx.j, "val": idx.val}
        ),
        srows=srows,
    )
