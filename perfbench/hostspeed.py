"""Host-speed correction for the benchmark's timings.

The benchmark shares its host with other work, and the host's speed drifts
slowly.  On the 4-core host the benchmark was written on, ten consecutive
runs of one IT-lite query set went 1.92, 2.07, 2.66, 2.76, 2.39, 2.12,
1.99, 1.67, 1.84 queries/s: a wave over minutes that moves every timing of
a run together, and by more than two commits worth comparing differ.

So each run also times a fixed reference kernel, sampled before set-up and
between queries, and divides its timings by the run's slowdown: the median
reference time over :data:`REF_S`.  The kernel mixes the kinds of work a
query does: a large gather/scatter like a mat-vec, many small numpy calls
like the per-node Algorithm-3 heads, and plain interpreter work.  It calls
nothing in the program, so a change to the program cannot move it.
"""
from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median seconds of one :meth:`Reference.sample` on the host the benchmark
#: was written on.  It sets the scale of the corrected timings only.
REF_S = 0.0090


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.n = 50_000
        self.src = rng.integers(0, self.n, 500_000)
        self.dst = rng.integers(0, self.n, 500_000)
        self.v = rng.random(self.n)
        self.small = [rng.integers(0, 2_000, 500) for _ in range(120)]
        self.samples: List[float] = []

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            t = time.perf_counter()
            np.bincount(self.src, weights=self.v[self.dst], minlength=self.n)
            for a in self.small:
                _, inv = np.unique(a, return_inverse=True)
                np.bincount(inv)
            s = 0
            for i in range(30_000):
                s += i * i
            self.samples.append(time.perf_counter() - t)

    def slowdown(self) -> float:
        """How much slower than at REF_S the host ran during this run."""
        return statistics.median(self.samples) / REF_S
