"""Linearized engine: forward/backward phases, Lemma-2 sparsification."""
import math

import numpy as np
import pytest

from repro.core import linearized
from repro.linalg import matvec as mv
from tests.helpers import exact_d, expand_sparse, power_truth
from repro.graphs import generators as gen

C = 0.6
SQC = math.sqrt(C)


def _query(g, source, d, *, eps, threshold=0.0, L=None):
    """Forward then backward, as every linearized caller runs them."""
    L = linearized.iterations_for(eps, C) if L is None else L
    fwd = linearized.forward(g.csr, source, c=C, L=L, threshold=threshold)
    return linearized.backward(g.csr, fwd, d, c=C), fwd


def test_iterations_for_bound():
    for eps in [1e-2, 1e-5, 1e-7]:
        L = linearized.iterations_for(eps, C)
        assert C**L <= eps / 2
        assert C ** (L - 1) > eps / 2 or L == 1


def test_sparse_threshold_formula():
    assert linearized.sparse_threshold(1e-3, C) == pytest.approx(
        (1 - SQC) ** 2 * 1e-3
    )


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
def test_forward_hop_vectors_match_dense(name):
    g = gen.load(name)
    fwd = linearized.forward(g.csr, 0, c=C, L=6)
    P = g.dense_P()
    e0 = np.zeros(g.n)
    e0[0] = 1.0
    expect = (1 - SQC) * e0
    total = np.zeros(g.n)
    assert len(fwd.levels) == 7
    for idx, val in fwd.levels:
        got = np.zeros(g.n)
        got[idx] = val
        np.testing.assert_allclose(got, expect, atol=1e-12)
        total += expect
        expect = SQC * (P @ expect)
    np.testing.assert_allclose(fwd.pi, total, atol=1e-12)


def test_forward_mass_on_cycle():
    # No dead ends: Σ_ℓ Σ_k π^ℓ(k) = 1 - (√c)^{L+1} exactly.
    g = gen.tiny_cycle(5)
    fwd = linearized.forward(g.csr, 0, c=C, L=10)
    assert fwd.pi.sum() == pytest.approx(1 - SQC**11, abs=1e-12)


@pytest.mark.parametrize("name", gen.SMALL_DATASETS)
@pytest.mark.parametrize("source", [0, 7])
def test_linearized_with_exact_D_matches_power_method(name, source):
    """The paper's central identity (eq. 3/8): linearization with the true D
    reproduces SimRank exactly (up to truncation c^L)."""
    g = gen.load(name)
    S = power_truth(name)
    d = exact_d(name)
    s, _ = _query(g, source, d, eps=1e-8)
    assert np.abs(s - S[:, source]).max() < 1e-7


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_sparse_linearization_error_bound(eps):
    """Lemma 2: sparsification adds at most ε extra error."""
    g = gen.load("GQ-lite")
    d = exact_d("GQ-lite")
    L = linearized.iterations_for(eps, C)
    thr = linearized.sparse_threshold(eps, C)
    dense, _ = _query(g, 0, d, eps=eps, L=L)
    sparse, fwd = _query(g, 0, d, eps=eps, threshold=thr, L=L)
    assert np.abs(dense - sparse).max() <= eps
    assert fwd.threshold > 0


def test_sparse_reduces_stored_entries():
    g = gen.load("HP-lite")
    d = np.full(g.n, 1 - C)
    thr = linearized.sparse_threshold(1e-3, C)
    _, fwd_dense = _query(g, 0, d, eps=1e-3)
    _, fwd_sparse = _query(g, 0, d, eps=1e-3, threshold=thr)
    assert fwd_sparse.stored_entries < fwd_dense.stored_entries
    assert fwd_sparse.sparse_bytes() < fwd_dense.dense_bytes()


def test_forward_result_accounting():
    g = gen.tiny_cycle(4)
    fwd = linearized.forward(g.csr, 0, c=C, L=5)
    # On a cycle each hop vector has exactly one nonzero entry.
    assert fwd.stored_entries == 6
    assert fwd.L == 5
    assert fwd.dense_bytes() == 6 * 4 * 8
    assert fwd.sparse_bytes() == 6 * 16


def test_backward_cycle_closed_form():
    """Directed cycle: S·e_0 = e_0, and with D = (1-c)I the linearized
    backward phase reproduces it exactly."""
    g = gen.tiny_cycle(5)
    d = np.full(5, 1 - C)
    s, _ = _query(g, 0, d, eps=1e-9)
    truth = np.zeros(5)
    truth[0] = 1.0
    np.testing.assert_allclose(s, truth, atol=1e-8)


def test_forward_threshold_matches_dense_reference():
    """Lemma-2 forward against dense ``P`` hops, each zeroed at the threshold."""
    g = gen.load("WV-lite")
    eps = 1e-3
    L = linearized.iterations_for(eps, C)
    thr = linearized.sparse_threshold(eps, C)
    fwd = linearized.forward(g.csr, 3, c=C, L=L, threshold=thr)
    P = g.dense_P()
    cur = np.zeros(g.n)
    cur[3] = 1 - SQC
    total = cur.copy()
    stored, edges, dropped = 1, 0, 0
    assert fwd.L == L
    for ell, (idx, val) in enumerate(fwd.levels):
        if ell:
            edges += int(g.csr.din[np.flatnonzero(cur)].sum())
            cur = SQC * (P @ cur)
            dropped += int(np.count_nonzero((cur > 0) & (cur <= thr)))
            cur[cur <= thr] = 0.0
            stored += int(np.count_nonzero(cur))
            total += cur
        np.testing.assert_array_equal(idx, np.flatnonzero(cur))
        np.testing.assert_allclose(val, cur[idx], rtol=0, atol=1e-12)
    assert dropped > 0  # the threshold did cut entries
    assert fwd.stored_entries == stored
    assert fwd.edges == edges
    np.testing.assert_allclose(fwd.pi, total, rtol=0, atol=1e-12)


def _forward_every_hop(csr, source, *, c, L, threshold):
    """The forward pass pushing on every one of its ``L`` hops, empty or not."""
    sqrt_c = math.sqrt(c)
    idx, val = np.array([source], dtype=np.int64), np.array([1.0 - sqrt_c])
    levels, pi, edges = [(idx, val)], np.zeros(csr.n), 0
    pi[idx] = val
    for _ in range(L):
        idx, val, cost = expand_sparse(csr, idx, val)
        val = sqrt_c * val
        keep = val > threshold
        idx, val = idx[keep], val[keep]
        levels.append((idx, val))
        pi[idx] += val
        edges += cost
    return levels, pi, edges


def test_forward_stops_pushing_an_empty_frontier(monkeypatch):
    """At ε = 0.1 the Lemma-2 threshold empties IT-lite source 0's frontier
    after three hops: the forward pass pushes three times, not L = 6, and
    its result equals, bit for bit and dtype for dtype, a pass that pushes
    on every hop."""
    g = gen.load("IT-lite")
    L = linearized.iterations_for(0.1, C)
    thr = linearized.sparse_threshold(0.1, C)
    want_levels, want_pi, want_edges = _forward_every_hop(g.csr, 0, c=C, L=L, threshold=thr)
    sizes = [idx.size for idx, _ in want_levels]
    assert L == 6 and sizes[3:] == [0] * 4 and min(sizes[:3]) > 0
    pushes = []
    real = mv.push_blocks
    monkeypatch.setattr(mv, "push_blocks", lambda *a, **kw: pushes.append(1) or real(*a, **kw))
    fwd = linearized.forward(g.csr, 0, c=C, L=L, threshold=thr)
    assert len(pushes) == 3
    assert len(fwd.levels) == L + 1
    for (idx, val), (w_idx, w_val) in zip(fwd.levels, want_levels):
        assert idx.dtype == w_idx.dtype and val.dtype == w_val.dtype
        assert np.array_equal(idx, w_idx) and np.array_equal(val, w_val)
    assert np.array_equal(fwd.pi, want_pi)
    assert (fwd.stored_entries, fwd.edges, fwd.threshold) == (sum(sizes), want_edges, thr)


@pytest.mark.parametrize("name", ["DB-lite", "IT-lite"])
def test_forward_takes_one_block_per_hop(monkeypatch, name):
    """``forward`` keeps only the first block of each hop's push, which is
    the whole hop because a hop is one row and ``push_blocks`` never splits
    a row.  With ``BLOCK`` at one edge, every push of an ε = 1e-5 pass
    yields at most one block, and the levels equal the default ``BLOCK``'s
    bit for bit."""
    g = gen.load(name)
    L = linearized.iterations_for(1e-5, C)
    thr = linearized.sparse_threshold(1e-5, C)
    want = linearized.forward(g.csr, 0, c=C, L=L, threshold=thr)
    real, blocks = mv.push_blocks, []

    def spy(*a, **kw):
        blocks.append(0)
        for block in real(*a, **kw):
            blocks[-1] += 1
            yield block

    monkeypatch.setattr(mv, "BLOCK", 1)
    monkeypatch.setattr(mv, "push_blocks", spy)
    got = linearized.forward(g.csr, 0, c=C, L=L, threshold=thr)
    assert blocks and max(blocks) == 1
    assert got.edges == want.edges > len(blocks)  # pushes of many edges
    for (idx, val), (w_idx, w_val) in zip(got.levels, want.levels, strict=True):
        assert np.array_equal(idx, w_idx) and np.array_equal(val, w_val)
    assert np.array_equal(got.pi, want.pi)
