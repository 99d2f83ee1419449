"""Synthetic graph generators: determinism, registry targets, degree shape."""
import numpy as np
import pytest

from repro.graphs import generators as gen

ALL = gen.SMALL_DATASETS + gen.LARGE_DATASETS


@pytest.mark.parametrize("name", ALL)
def test_registry_loads_and_matches_type(name):
    g = gen.load(name)
    directed_expected = name in ("WV-lite", "IC-lite", "IT-lite", "TW-lite")
    assert g.directed == directed_expected
    assert g.name == name


@pytest.mark.parametrize(
    ("name", "n", "m_lo", "m_hi"),
    [
        ("GQ-lite", 500, 2_000, 4_000),
        ("HT-lite", 1_000, 4_000, 6_000),
        ("WV-lite", 700, 8_000, 11_000),
        ("HP-lite", 1_200, 20_000, 28_000),
        ("DB-lite", 40_000, 200_000, 280_000),
        ("IC-lite", 30_000, 600_000, 800_000),
        ("IT-lite", 80_000, 1_800_000, 2_300_000),
        ("TW-lite", 80_000, 2_300_000, 2_900_000),
    ],
)
def test_registry_scale_targets(name, n, m_lo, m_hi):
    """Each lite graph hits its DESIGN.md §4 (Table 2 analog) size window."""
    g = gen.load(name)
    assert g.n == n
    assert m_lo <= g.m <= m_hi


@pytest.mark.parametrize("name", gen.SMALL_DATASETS + ["DB-lite"])
def test_generators_deterministic(name):
    a = gen.REGISTRY[name]()
    b = gen.REGISTRY[name]()
    np.testing.assert_array_equal(a[2], b[2])
    np.testing.assert_array_equal(a[3], b[3])


def test_erdos_renyi_undirected_symmetric():
    s, d = gen.erdos_renyi(100, 200, seed=7)
    pairs = set(zip(s.tolist(), d.tolist()))
    assert all((y, x) in pairs for x, y in pairs)
    assert len(pairs) == 400  # 200 undirected edges, both directions
    assert np.all(s != d)


def test_preferential_attachment_power_law_shape():
    s, d = gen.preferential_attachment(2000, 3, seed=3)
    deg = np.bincount(d, minlength=2000)
    # Heavy tail: the max degree dwarfs the median — the property the
    # ‖π‖² optimization exploits.
    assert deg.max() > 10 * np.median(deg[deg > 0])


def test_powerlaw_directed_in_degree_skew():
    s, d = gen.powerlaw_directed(2000, 20000, seed=3, alpha_in=0.95)
    din = np.bincount(d, minlength=2000)
    assert din.max() > 20 * max(np.median(din), 1)


def test_preferential_attachment_rejects_bad_args():
    with pytest.raises(ValueError, match="n > m_per_node"):
        gen.preferential_attachment(3, 5, seed=0)


def test_load_unknown_dataset():
    with pytest.raises(KeyError, match="unknown dataset"):
        gen.load("nope")


def test_tiny_cycle_structure():
    g = gen.tiny_cycle(4)
    assert g.n == 4 and g.m == 4
    np.testing.assert_array_equal(g.csr.din, np.ones(4))
    assert g.csr.in_neigh(0).tolist() == [3]  # edge 3 -> 0


def test_tiny_star_structure():
    g = gen.tiny_star(5)
    assert g.n == 6 and g.m == 10
    assert g.csr.din[0] == 5
    assert all(g.csr.din[i] == 1 for i in range(1, 6))


def test_dedup_keeps_first_occurrence_order():
    s = np.array([3, 1, 3, 2], dtype=np.int64)
    d = np.array([0, 0, 0, 0], dtype=np.int64)
    ss, dd = gen._dedup(4, s, d)
    assert ss.tolist() == [3, 1, 2]
    assert dd.tolist() == [0, 0, 0]
