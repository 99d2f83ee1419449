"""Benchmark: Table 3 — memory overhead of basic vs optimized ExactSim.

Times the forward (ℓ-hop PPR) phase that owns the Table-3 footprint on each
large-lite graph, and asserts the table's shape: basic > optimized, with a
several-fold sparsification reduction (paper: 5-6×; ours: see EXPERIMENTS.md).
"""
import pytest

from repro.experiments import tables
from repro.graphs import generators as gen


@pytest.mark.parametrize("name", gen.LARGE_DATASETS)
def test_bench_table3_row(benchmark, name):
    row = benchmark.pedantic(
        lambda: tables.table3_rows(datasets=[name])[0],
        rounds=1,
        iterations=1,
    )
    assert row["basic_mb"] > row["exactsim_mb"]
    assert row["reduction"] > 1.5
