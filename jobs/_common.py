"""Shared plumbing for the experiment jobs.

Each job module exposes ``run() -> list`` and is launched with
``python jobs/<name>.py``.  Every query runs in-process: the jobs start no
SparkSession.  Rows are printed and also written to ``results/<job>.txt`` so
EXPERIMENTS.md can be assembled from the captured outputs.
"""
from __future__ import annotations

import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class Tee:
    """Mirror stdout into results/<job>.txt."""

    def __init__(self, job: str):
        RESULTS_DIR.mkdir(exist_ok=True)
        self.f = open(RESULTS_DIR / f"{job}.txt", "w")
        self.stdout = sys.stdout

    def write(self, s):
        self.stdout.write(s)
        self.f.write(s)

    def flush(self):
        self.stdout.flush()
        self.f.flush()


def main(job: str, run):
    """Run ``run()`` with stdout mirrored into results/<job>.txt."""
    tee = Tee(job)
    sys.stdout = tee
    try:
        run()
    finally:
        sys.stdout = tee.stdout
        tee.f.close()
