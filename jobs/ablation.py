"""Job: Figure 9 (as a table) — basic vs optimized ExactSim ablation.

Matched ε grid and pair cap on one small and one large-lite graph; the
paper's result is a 10-100× speedup at matched error, which appears here as
the optimized variant's error being orders of magnitude lower at the same
budget (equivalently: basic needs ~(err_basic/err_opt)² more pairs).
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import main  # noqa: E402


def run():
    from repro.experiments import harness, tables
    from repro.graphs import generators as gen

    all_rows = []
    for dataset, cap in [("GQ-lite", 2_000_000), ("DB-lite", 2_000_000)]:
        g = gen.load(dataset)
        sources = harness.pick_sources(g, 2)
        if dataset in gen.SMALL_DATASETS:
            truth = harness.ground_truth_small(g, sources)
        else:
            truth = harness.ground_truth_large(
                g, sources, eps_min=1e-6, max_pairs=20_000_000
            )
        rows = tables.ablation_rows(
            dataset=dataset,
            eps_grid=(1e-2, 1e-3, 1e-4),
            max_pairs=cap,
            truth=truth,
        )
        print(f"== Figure 9 ablation: {dataset} (cap={cap:.0e} pairs) ==")
        for r in rows:
            print(
                f"{r['dataset']:8s} {r['variant']:6s} eps={r['eps']:.0e} "
                f"maxerr={r['max_error']:.2e} t={r['seconds']:7.2f}s "
                f"pairs={r['pairs_simulated']:.2e}",
                flush=True,
            )
        # Speedup factor at matched error: basic error scales as 1/sqrt(R).
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r["eps"], {})[r["variant"]] = r
        for eps, d in sorted(by_eps.items()):
            ratio = d["basic"]["max_error"] / max(d["opt"]["max_error"], 1e-12)
            print(
                f"  eps={eps:.0e}: error ratio basic/opt = {ratio:.1f}x "
                f"(≈ {ratio**2:.0f}x fewer samples for the same error)"
            )
        all_rows += rows
    return all_rows


if __name__ == "__main__":
    main("ablation", run)
