"""Run every experiment job in sequence, in one process.

Outputs land in results/<job>.txt; EXPERIMENTS.md records them next to the
paper's numbers.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _common  # noqa: E402
import ablation  # noqa: E402
import large_sweep  # noqa: E402
import small_sweep  # noqa: E402
import table2_datasets  # noqa: E402
import table3_memory  # noqa: E402

JOBS = [
    ("table2_datasets", table2_datasets.run),
    ("table3_memory", table3_memory.run),
    ("small_sweep", small_sweep.run),
    ("large_sweep", large_sweep.run),
    ("ablation", ablation.run),
]

if __name__ == "__main__":
    for name, fn in JOBS:
        t0 = time.time()

        def job():
            print(f"### job {name} start")
            fn()
            print(f"### job {name} done in {time.time() - t0:.1f}s")

        _common.main(name, job)
        print(f"[run_all] {name} finished in {time.time() - t0:.1f}s", flush=True)
