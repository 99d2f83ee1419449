"""Job: Figures 5-8 (as tables) — full method sweep on the large-lite graphs.

Ground truth: optimized ExactSim at the finest ε (the paper's §4.2 protocol).
Methods whose budget exceeds the caps print 'omitted (budget)', mirroring
the paper's 24-hour rule.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import main  # noqa: E402

EPS_TRUTH = 1e-6
TRUTH_CAP = 20_000_000


def run():
    from repro.experiments import harness
    from repro.graphs import generators as gen

    cfg = harness.SweepConfig(
        k=100,
        max_pairs=10_000_000,
        max_index_entries=20_000_000,
        max_push_edges=250_000_000,
        exactsim_eps=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
        exactsim_basic_eps=(1e-1, 1e-2, 1e-3),
        parsim_L=(2, 5, 10, 20, 50),
        mc_r=(10, 50),
        linearization_eps=(5e-1, 1e-1, 1e-2),
        prsim_eps=(1e-1, 3e-2),
    )
    all_rows = []
    for name in gen.LARGE_DATASETS:
        g = gen.load(name)
        sources = harness.pick_sources(g, 2)
        print(
            f"== {name}: ExactSim(eps={EPS_TRUTH:.0e}) ground truth ==",
            flush=True,
        )
        truth = harness.ground_truth_large(
            g, sources, eps_min=EPS_TRUTH, max_pairs=TRUTH_CAP
        )
        rows = harness.sweep_all(g, sources, truth, cfg)
        for r in rows:
            print(r.fmt(), flush=True)
        all_rows += rows
    return all_rows


if __name__ == "__main__":
    main("large_sweep", run)
