"""Mat-vec kernels: numpy vs dense reference vs DuckDB."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.linalg import matvec as mv
from repro.oracle import assert_equivalent
from tests.helpers import TRANSITION_SQL, expand_sparse

SMALL = gen.SMALL_DATASETS


def _rand_vec(n, seed):
    return np.random.default_rng(seed).random(n)


# ---------------------------------------------------------------------------
# numpy kernels vs dense reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_matvec_P_matches_dense(name, seed):
    g = gen.load(name)
    v = _rand_vec(g.n, seed)
    np.testing.assert_allclose(
        mv.matvec_P(g.csr, v), g.dense_P() @ v, atol=1e-12
    )


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("seed", [0, 1])
def test_matvec_PT_matches_dense(name, seed):
    g = gen.load(name)
    v = _rand_vec(g.n, seed)
    np.testing.assert_allclose(
        mv.matvec_PT(g.csr, v), g.dense_P().T @ v, atol=1e-12
    )


def _matvec_PT_full(csr, v):
    """``Pᵀ · v`` summed over the whole edge list: the dense reference."""
    out = np.bincount(csr.dst, weights=v[csr.src], minlength=csr.n)
    nz = csr.din > 0
    out[nz] = out[nz] / csr.din[nz]
    return out


class _GatherSpy(np.ndarray):
    """An index array that counts the gathers made from it."""

    gathers = 0

    def __getitem__(self, idx):
        if isinstance(idx, np.ndarray):
            _GatherSpy.gathers += 1
        return super().__getitem__(idx)


@pytest.mark.parametrize("name", ["GQ-lite", "DB-lite", "IT-lite"])
def test_matvec_PT_support_push_matches_full_sum_bitwise(name):
    """Summing only the support's out-edges gives the same bits as the whole
    edge list: for an empty support, one node, a node with no out-edges,
    supports just below and just above the priced switch, and a dense
    support.  The dense one gathers no out-edge range: on GQ- and DB-lite
    its nodes alone price above the whole list, and on IT-lite (average
    out-degree 27.5) its edges are counted from the out-degrees first.
    Node 0's out-edges are dropped so that the graph has a node without
    any."""
    from dataclasses import replace

    from repro.graphs.graph import build_csr

    g = gen.load(name)
    keep = g.csr.src != 0
    csr = build_csr(g.n, g.csr.src[keep], g.csr.dst[keep])
    rng = np.random.default_rng(4)
    dout = np.diff(csr.out_indptr)
    assert dout[0] == 0
    order = np.append(rng.permutation(np.flatnonzero(dout > 0)), 0)
    # Price of the support path for each prefix of ``order``.
    price = (mv.SUPPORT_NODE_NS * np.arange(1, order.size + 1)
             + mv.SUPPORT_EDGE_NS * np.cumsum(dout[order]))
    full = mv.FULL_EDGE_NS * csr.m
    below = int(np.searchsorted(price, full))  # order[:below] prices below
    assert price[below - 1] < full <= price[below]
    # Whether a dense support's nodes alone price above the whole list.
    assert (mv.SUPPORT_NODE_NS * csr.n >= full) == (name != "IT-lite")
    supports = {
        "empty": [],
        "one": order[:1],
        "no out-edges": [0],
        "below": np.append(order[: below - 1], 0),
        "above": order[: below + 1],
        "dense": np.arange(csr.n),
    }
    spied = replace(csr, out_indptr=csr.out_indptr.view(_GatherSpy))
    for label, sup in supports.items():
        v = np.zeros(csr.n)
        v[np.asarray(sup, dtype=np.int64)] = rng.random(len(sup))
        _GatherSpy.gathers = 0
        out = mv.matvec_PT(spied, v)
        assert type(out) is np.ndarray and out.dtype == np.float64, label
        assert np.array_equal(out, _matvec_PT_full(csr, v)), label
        if label in ("one", "below", "dense"):
            assert (_GatherSpy.gathers == 0) == (label == "dense"), label


def test_matvec_rejects_wrong_length():
    g = gen.tiny_cycle(4)
    with pytest.raises(ValueError, match="length"):
        mv.matvec_P(g.csr, np.ones(5))
    with pytest.raises(ValueError, match="length"):
        mv.matvec_PT(g.csr, np.ones(5))


def test_matvec_linearity():
    g = gen.load("GQ-lite")
    x, y = _rand_vec(g.n, 1), _rand_vec(g.n, 2)
    np.testing.assert_allclose(
        mv.matvec_P(g.csr, 2.0 * x + y),
        2.0 * mv.matvec_P(g.csr, x) + mv.matvec_P(g.csr, y),
        atol=1e-12,
    )


def test_matvec_preserves_mass_without_dead_ends():
    # P is column-stochastic when every node has in-degree > 0, so Pᵀ·v
    # preserves total mass (the walk distribution never leaks).
    g = gen.tiny_cycle(7)
    v = _rand_vec(g.n, 3)
    assert mv.matvec_PT(g.csr, v).sum() == pytest.approx(v.sum())


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_matvec_PT_mass_property(seed):
    g = gen.tiny_cycle(5)
    v = np.random.default_rng(seed).random(5)
    assert mv.matvec_PT(g.csr, v).sum() == pytest.approx(v.sum())


# ---------------------------------------------------------------------------
# sparse local-push expansion: push_blocks' blocks, joined by expand_sparse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_expand_sparse_equals_matvec(name):
    g = gen.load(name)
    v = np.zeros(g.n)
    rng = np.random.default_rng(5)
    nz = rng.choice(g.n, size=10, replace=False)
    v[nz] = rng.random(10)
    idx, val, edges = expand_sparse(g.csr, nz.astype(np.int64), v[nz])
    dense = mv.matvec_P(g.csr, v)
    out = np.zeros(g.n)
    out[idx] = val
    np.testing.assert_allclose(out, dense, atol=1e-12)
    assert edges == int(g.csr.din[nz].sum())


def test_expand_sparse_accumulators_agree():
    """Pushed as row 0 the GQ-lite vector takes the bincount side (m >= n);
    pushed together with a copy in row 20 the key span 21·n exceeds the 2m
    terms and it takes the sort side."""
    g = gen.load("GQ-lite")
    assert g.n <= g.m and 2 * g.m < 21 * g.n
    nodes = np.arange(g.n, dtype=np.int64)
    val = np.random.default_rng(3).random(g.n)
    k0, v0, e0 = expand_sparse(g.csr, nodes, val)
    keys = np.concatenate([nodes, 20 * g.n + nodes])
    k2, v2, e2 = expand_sparse(g.csr, keys, np.concatenate([val, val]))
    np.testing.assert_array_equal(k2, np.concatenate([k0, 20 * g.n + k0]))
    np.testing.assert_array_equal(v2, np.concatenate([v0, v0]))
    assert e0 == g.m and e2 == 2 * g.m


def test_expand_sparse_packed_rows_match_per_row():
    """Rows packed under ``row·n + node`` keys advance in one push exactly as
    they do one at a time."""
    g = gen.load("WV-lite")
    rng = np.random.default_rng(8)
    rows = [
        (np.sort(rng.choice(g.n, size=8, replace=False)).astype(np.int64), rng.random(8))
        for _ in range(5)
    ]
    keys = np.concatenate([r * g.n + idx for r, (idx, _) in enumerate(rows)])
    val = np.concatenate([v for _, v in rows])
    bk, bv, total = expand_sparse(g.csr, keys, val, prune=1e-15)
    row, node = np.divmod(bk, g.n)
    expected_total = 0
    for r, (idx, v) in enumerate(rows):
        si, sv, cost = expand_sparse(g.csr, idx, v, prune=1e-15)
        expected_total += cost
        np.testing.assert_array_equal(node[row == r], si)
        np.testing.assert_array_equal(bv[row == r], sv)
    assert total == expected_total


def _rows_with_dead_ends(name):
    """``name``'s CSR with nodes 0-2 made dead ends, and 40 packed rows of
    random entries in ascending row order: rows 0-2 and 9 empty, row 5
    holding every node (so larger than any test block), row 39 only the dead
    ends, values spread over ten decades."""
    from repro.graphs.graph import build_csr

    g = gen.load(name)
    keep = g.csr.dst > 2
    csr = build_csr(g.n, g.csr.src[keep], g.csr.dst[keep])
    rng = np.random.default_rng(11)
    keys = []
    for r in range(3, 40):
        if r == 9:
            continue
        if r == 5:
            idx = np.arange(g.n)
        elif r == 39:
            idx = np.arange(3)
        else:
            idx = np.sort(rng.choice(g.n, size=int(rng.integers(1, 40)), replace=False))
            idx[0] = r % 3  # a dead end in every row
        keys.append(r * g.n + idx)
    keys = np.concatenate(keys).astype(np.int64)
    val = 10.0 ** rng.uniform(-10, 0, keys.size)
    return csr, keys, val


@pytest.mark.parametrize("name", ["GQ-lite", "DB-lite"])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_expand_sparse_blocks_match_one_block(monkeypatch, name, block):
    """Small blocks give the same keys, bits and edge count as one block
    over the whole input: rows larger than a block, dead-end entries,
    entries dropped by the prune, and an empty input."""
    csr, keys, val = _rows_with_dead_ends(name)
    whole = expand_sparse(csr, keys, val)
    prune = float(np.median(np.abs(whole[1])))
    assert csr.m > 64  # row 5 pushes every edge
    cases = [(keys, val, 0.0), (keys, val, prune), (keys[:0], val[:0], 0.0)]
    monkeypatch.setattr(mv, "BLOCK", 1 << 40)
    want = [expand_sparse(csr, k, v, prune=p) for k, v, p in cases]
    assert 0 < want[1][0].size < want[0][0].size  # the prune dropped entries
    monkeypatch.setattr(mv, "BLOCK", block)
    for (k, v, p), (wk, wv, we) in zip(cases, want):
        gk, gv, ge = expand_sparse(csr, k, v, prune=p)
        np.testing.assert_array_equal(gk, wk)
        assert np.array_equal(gv, wv) and ge == we
    assert want[2][0].size == 0 and want[2][2] == 0


def test_expand_sparse_rejects_descending_rows(monkeypatch):
    g = gen.load("GQ-lite")
    monkeypatch.setattr(mv, "BLOCK", 1)
    keys = np.array([2 * g.n + 5, 7], dtype=np.int64)
    with pytest.raises(ValueError, match="ascending"):
        expand_sparse(g.csr, keys, np.ones(2))


def _spy_pools(monkeypatch):
    """Record the thread count of every ``ThreadPoolExecutor`` that
    ``matvec`` constructs."""
    real, pools = mv.ThreadPoolExecutor, []

    def spy(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(mv, "ThreadPoolExecutor", spy)
    return pools


def test_threaded_blocks_match_one_thread(monkeypatch):
    """A multi-row push of many 64-edge blocks yields the same sequence of
    ``(keys, values, edges)``, bits and dtypes, on ``PUSH_THREADS`` threads
    as on one, with and without the prune."""
    csr, keys, val = _rows_with_dead_ends("DB-lite")
    monkeypatch.setattr(mv, "BLOCK", 64)
    pools = _spy_pools(monkeypatch)
    for prune in (0.0, 1e-4):
        got = list(mv.push_blocks(csr, keys, val, prune=prune))
        with monkeypatch.context() as m:
            m.setattr(mv, "PUSH_THREADS", 1)
            want = list(mv.push_blocks(csr, keys, val, prune=prune))
        assert len(got) == len(want) > 1 + 2 * mv.PUSH_THREADS
        for (gk, gv, ge), (wk, wv, we) in zip(got, want):
            assert gk.dtype == wk.dtype and gv.dtype == wv.dtype
            assert np.array_equal(gk, wk) and np.array_equal(gv, wv) and ge == we
    assert pools == [mv.PUSH_THREADS, 1] * 2


def test_one_block_pushes_start_no_thread(monkeypatch):
    """A push that fits in one block, and every hop of a forward pass (one
    row, larger than a 64-edge block), run in the caller's thread."""
    from repro.core import linearized

    g = gen.load("DB-lite")
    monkeypatch.setattr(mv, "BLOCK", 64)
    pools = _spy_pools(monkeypatch)
    a, b = np.flatnonzero((g.csr.din > 0) & (g.csr.din <= 20))[:2]
    two_rows = np.array([a, g.n + b], dtype=np.int64)
    assert len(list(mv.push_blocks(g.csr, two_rows, np.ones(2)))) == 1
    fwd = linearized.forward(g.csr, 0, c=0.6, L=linearized.iterations_for(1e-5, 0.6),
                             threshold=linearized.sparse_threshold(1e-5, 0.6))
    assert fwd.edges > 64 * len(fwd.levels)  # hops of many blocks' edges
    assert pools == []


def test_threaded_blocks_run_at_most_two_per_thread_ahead(monkeypatch):
    """A consumer that has taken one block has started at most
    ``1 + 2·PUSH_THREADS`` block pushes, and closing the generator there
    (as ``next()`` leaves it) leaves no pool thread alive."""
    import threading

    csr, keys, val = _rows_with_dead_ends("DB-lite")
    monkeypatch.setattr(mv, "BLOCK", 64)
    blocks = len(list(mv.push_blocks(csr, keys, val)))
    assert blocks > 2 + 2 * mv.PUSH_THREADS
    real, calls = mv._push, []
    monkeypatch.setattr(mv, "_push", lambda *a: calls.append(1) or real(*a))
    submitted = []

    class Counted(mv.ThreadPoolExecutor):
        def submit(self, *a, **kw):
            submitted.append(1)
            return super().submit(*a, **kw)

    monkeypatch.setattr(mv, "ThreadPoolExecutor", Counted)
    before = set(threading.enumerate())
    gen_ = mv.push_blocks(csr, keys, val)
    next(gen_)
    assert 1 <= len(calls) <= len(submitted) <= 1 + 2 * mv.PUSH_THREADS
    assert set(threading.enumerate()) - before  # the pool's threads run
    gen_.close()
    assert set(threading.enumerate()) <= before
    assert len(calls) <= len(submitted) <= 1 + 2 * mv.PUSH_THREADS


def _accumulate_unique(keys, w, prune):
    """The ``np.unique`` reference for :func:`mv.accumulate`'s sort side."""
    uniq, inv = np.unique(keys, return_inverse=True)
    acc = np.bincount(inv, weights=w, minlength=uniq.size)
    keep = np.abs(acc) > prune
    return uniq[keep], acc[keep]


def test_accumulate_packed_sort_matches_unique(monkeypatch):
    """The sort side returns ``np.unique``'s keys and bits: duplicate-heavy
    keys with terms of mixed sign and magnitude, the prune drop, one term,
    1,023 and 1,024 terms, and spans at and past the packing limit.  Only
    the span past the limit calls ``np.argsort``."""
    rng = np.random.default_rng(6)
    size = 5000
    dup = rng.integers(0, 300, size) * 1_000_003  # ~17 terms per key
    w = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3, size)
    b = (size - 1).bit_length()
    limit = 1 << (63 - b)  # the widest span the packing takes
    wide = rng.integers(limit - 10**6, limit, size)
    prune = float(np.median(np.abs(_accumulate_unique(dup, w, 0.0)[1])))
    cases = [(dup, 1 << 40, 0.0), (dup, 1 << 40, prune), (dup[:1024], 1 << 40, 0.0),
             (wide, limit, 0.0), (dup[:1], 1 << 40, 0.0), (dup[:1023], 1 << 40, prune),
             (wide, 2 * limit, 0.0)]
    want = [_accumulate_unique(k, w[: k.size], p) for k, _, p in cases]
    assert want[1][0].size < want[0][0].size
    calls = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(span) or real(*a, **kw))
    for (k, span, p), (wk, wv) in zip(cases, want):
        gk, gv = mv.accumulate(k, w[: k.size], span, prune=p)
        np.testing.assert_array_equal(gk, wk)
        assert np.array_equal(gv, wv)
    assert calls == [2 * limit]


def test_expand_sparse_prunes():
    g = gen.tiny_star(3)
    # Mass at the center spreads 1/3 to each leaf; prune above that drops all.
    idx, val, _ = expand_sparse(
        g.csr, np.array([0], dtype=np.int64), np.array([1.0]), prune=0.5
    )
    assert idx.size == 0
    assert val.size == 0


def test_expand_sparse_dead_end():
    # Node 1 has no in-neighbors: mass there evaporates.
    from repro.graphs.graph import from_edges

    g = from_edges("dead", 2, np.array([1]), np.array([0]), directed=True)
    idx, val, edges = expand_sparse(
        g.csr, np.array([0], dtype=np.int64), np.array([1.0])
    )
    assert idx.tolist() == [1] and val.tolist() == [1.0]
    idx2, _, edges2 = expand_sparse(g.csr, idx, val)
    assert idx2.size == 0 and edges2 == 0


# ---------------------------------------------------------------------------
# DuckDB oracle
# ---------------------------------------------------------------------------


def test_matvec_df_oracle():
    """``P · v`` is a SQL join over the transition table — DuckDB replays it
    against the numpy kernel."""
    g = gen.load("GQ-lite")
    v = _rand_vec(g.n, 9)
    ids = np.unique(g.csr.src)
    assert_equivalent(
        pd.DataFrame({"id": ids, "val": mv.matvec_P(g.csr, v)[ids]}),
        f"""
        WITH t AS ({TRANSITION_SQL})
        SELECT t.src AS id, SUM(t.w * v.val) AS val
        FROM t JOIN vec v ON t.dst = v.id
        GROUP BY t.src
        """,
        edges=g.edges_pdf(),
        vec=pd.DataFrame({"id": np.arange(g.n), "val": v}),
    )
