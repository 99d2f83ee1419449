"""Mat-vec kernels: numpy vs dense reference vs DuckDB."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.linalg import matvec as mv
from repro.oracle import assert_equivalent

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


@pytest.mark.parametrize("name", ["GQ-lite", "DB-lite"])
def test_matvec_PT_support_push_matches_full_sum_bitwise(name):
    """Summing only the support's out-edges gives the same bits as the whole
    edge list: for an empty support, one node, a node with no out-edges, and
    supports just below and just above the half-the-edges switch.  Node 0's
    out-edges are dropped so that the graph has a node without any."""
    from repro.graphs.graph import build_csr

    g = gen.load(name)
    keep = g.csr.src != 0
    csr = build_csr(g.n, g.csr.src[keep], g.csr.dst[keep])
    rng = np.random.default_rng(4)
    dout = np.diff(csr.out_indptr)
    assert dout[0] == 0
    order = rng.permutation(np.flatnonzero(dout > 0))
    below = int(np.searchsorted(np.cumsum(dout[order]), csr.m / 2))
    assert 2 * dout[order[:below]].sum() < csr.m <= 2 * dout[order[: below + 1]].sum()
    supports = {
        "empty": [],
        "one": order[:1],
        "no out-edges": [0],
        "below": np.append(order[:below], 0),
        "above": order[: below + 1],
    }
    for label, sup in supports.items():
        v = np.zeros(csr.n)
        v[np.asarray(sup, dtype=np.int64)] = rng.random(len(sup))
        assert np.array_equal(mv.matvec_PT(csr, v), _matvec_PT_full(csr, v)), label


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
# sparse local-push expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
def test_expand_sparse_equals_matvec(name):
    g = gen.load(name)
    v = np.zeros(g.n)
    rng = np.random.default_rng(5)
    nz = rng.choice(g.n, size=10, replace=False)
    v[nz] = rng.random(10)
    idx, val, edges = mv.expand_sparse(g.csr, nz.astype(np.int64), v[nz])
    dense = mv.matvec_P(g.csr, v)
    out = np.zeros(g.n)
    out[idx] = val
    np.testing.assert_allclose(out, dense, atol=1e-12)
    assert edges == int(g.csr.din[nz].sum())


def test_expand_sparse_accumulators_agree():
    """Pushed as row 0 the GQ-lite vector takes the bincount side (m >= n);
    as row 10 the key span 11·n exceeds m and it takes the np.unique side."""
    g = gen.load("GQ-lite")
    assert g.n <= g.m < 11 * g.n
    nodes = np.arange(g.n, dtype=np.int64)
    val = np.random.default_rng(3).random(g.n)
    k0, v0, e0 = mv.expand_sparse(g.csr, nodes, val)
    k10, v10, e10 = mv.expand_sparse(g.csr, 10 * g.n + nodes, val)
    np.testing.assert_array_equal(k10, 10 * g.n + k0)
    np.testing.assert_array_equal(v10, v0)
    assert e0 == e10 == g.m


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
    bk, bv, total = mv.expand_sparse(g.csr, keys, val, prune=1e-15)
    row, node = np.divmod(bk, g.n)
    expected_total = 0
    for r, (idx, v) in enumerate(rows):
        si, sv, cost = mv.expand_sparse(g.csr, idx, v, prune=1e-15)
        expected_total += cost
        np.testing.assert_array_equal(node[row == r], si)
        np.testing.assert_array_equal(bv[row == r], sv)
    assert total == expected_total


def test_expand_sparse_prunes():
    g = gen.tiny_star(3)
    # Mass at the center spreads 1/3 to each leaf; prune above that drops all.
    idx, val, _ = mv.expand_sparse(
        g.csr, np.array([0], dtype=np.int64), np.array([1.0]), prune=0.5
    )
    assert idx.size == 0
    assert val.size == 0


def test_expand_sparse_dead_end():
    # Node 1 has no in-neighbors: mass there evaporates.
    from repro.graphs.graph import from_edges

    g = from_edges("dead", 2, np.array([1]), np.array([0]), directed=True)
    idx, val, edges = mv.expand_sparse(
        g.csr, np.array([0], dtype=np.int64), np.array([1.0])
    )
    assert idx.tolist() == [1] and val.tolist() == [1.0]
    idx2, _, edges2 = mv.expand_sparse(g.csr, idx, val)
    assert idx2.size == 0 and edges2 == 0


# ---------------------------------------------------------------------------
# DuckDB oracle
# ---------------------------------------------------------------------------


def test_matvec_df_oracle(spark):
    """``P · v`` is a SQL join over the transition table — DuckDB replays it
    against the numpy kernel."""
    g = gen.load("GQ-lite", spark)
    v = _rand_vec(g.n, 9)
    vec_pdf = pd.DataFrame({"id": np.arange(g.n), "val": v})
    trans_pdf = g.transition_df().toPandas()
    ids = np.unique(g.csr.src)
    out = pd.DataFrame({"id": ids, "val": mv.matvec_P(g.csr, v)[ids]})
    assert_equivalent(
        spark.createDataFrame(out),
        """
        SELECT t.src AS id, SUM(t.w * v.val) AS val
        FROM transition t JOIN vec v ON t.dst = v.id
        GROUP BY t.src
        """,
        transition=trans_pdf,
        vec=vec_pdf,
    )
