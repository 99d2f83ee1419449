"""Job: reproduce Table 2 — the evaluation datasets (lite analogs).

Prints one row per dataset with our (n, m) next to the paper's originals.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import main  # noqa: E402


def run():
    from repro.experiments import tables

    print("== Table 2: datasets (ours vs paper) ==")
    rows = tables.table2_rows()
    for r in rows:
        print(
            f"{r['dataset']:8s} {r['type']:10s} n={r['n']:>9,d} m={r['m']:>12,d}"
            f"   | paper {r['paper_dataset']:18s} n={r['paper_n']:>11,d} "
            f"m={r['paper_m']:>14,d}"
        )
    return rows


if __name__ == "__main__":
    main("table2_datasets", run)
