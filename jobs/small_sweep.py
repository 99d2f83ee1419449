"""Job: Figures 1-4 (as tables) — full method sweep on the small graphs.

Ground truth: Power Method.  Each row carries query time, preprocessing
time, index size, MaxError and Precision@50 — the complete data behind the
paper's Figures 1 (error/time), 2 (precision/time), 3 (error/preprocess) and
4 (error/index-size) at our scale.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import main  # noqa: E402


def run():
    from repro.experiments import harness
    from repro.graphs import generators as gen

    cfg = harness.SweepConfig(
        k=50,
        max_pairs=10_000_000,
        max_index_entries=20_000_000,
        exactsim_eps=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        exactsim_basic_eps=(1e-1, 1e-2, 1e-3),
        parsim_L=(1, 2, 5, 10, 20, 50),
        mc_r=(10, 50, 200, 1000),
        linearization_eps=(1e-1, 5e-2, 3e-2, 1e-2),
        prsim_eps=(1e-1, 3e-2, 1e-2),
    )
    all_rows = []
    for name in gen.SMALL_DATASETS:
        g = gen.load(name)
        sources = harness.pick_sources(g, 3)
        print(f"== {name}: computing Power-Method ground truth ==", flush=True)
        truth = harness.ground_truth_small(g, sources)
        rows = harness.sweep_all(g, sources, truth, cfg)
        for r in rows:
            print(r.fmt(), flush=True)
        all_rows += rows
    return all_rows


if __name__ == "__main__":
    main("small_sweep", run)
