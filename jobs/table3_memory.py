"""Job: reproduce Table 3 — memory overhead on large graphs.

Basic ExactSim (dense ℓ-hop vectors) vs optimized ExactSim (Lemma-2 sparse
vectors) vs graph size, at the scaled ε regime (see EXPERIMENTS.md).  ``opt`` counts
the stored entries at 16 bytes each; ``opt-peak`` is the optimized forward
pass's measured ``tracemalloc`` peak.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import main  # noqa: E402


def run():
    from repro.experiments import tables

    print("== Table 3: memory overhead on large-lite graphs (eps_mem=1e-5) ==")
    rows = tables.table3_rows(eps_mem=1e-5)
    print(f"{'dataset':8s} {'basic(MB)':>10s} {'opt(MB)':>9s} {'opt-peak(MB)':>13s} "
          f"{'graph(MB)':>10s} {'reduct':>7s} | paper(GB): basic / opt / graph (reduct)")
    for r in rows:
        print(
            f"{r['dataset']:8s} {r['basic_mb']:10.2f} {r['exactsim_mb']:9.2f} "
            f"{r['exactsim_traced_mb']:13.2f} {r['graph_mb']:10.2f} {r['reduction']:6.1f}x | "
            f"{r['paper_basic_gb']:.2f} / {r['paper_exactsim_gb']:.2f} / "
            f"{r['paper_graph_gb']:.2f} ({r['paper_reduction']:.1f}x)"
        )
    return rows


if __name__ == "__main__":
    main("table3_memory", run)
