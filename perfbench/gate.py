"""Correctness gate applied to every timed query.

ExactSim promises additive error ``<= eps`` on every score.  Without an
oracle the benchmark can still check what exact SimRank guarantees for any
graph: every score lies in ``[0, 1]`` and ``S(i, i) = 1``.  With the
Power-Method oracle (small graphs) it also checks MaxError directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class GateResult:
    """What the gate measured on one query, and why it failed (if it did)."""

    self_err: float  # |ŝ_i(i) − 1|, a lower bound on MaxError for any graph
    max_error: Optional[float]  # max_j |ŝ_i(j) − S(i, j)|, None without oracle
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check(
    scores: np.ndarray, source: int, eps: float, truth: Optional[np.ndarray] = None
) -> GateResult:
    """Gate one single-source score vector against the ``eps`` guarantee.

    ``truth`` is the exact column ``S(·, source)`` when an oracle exists.
    """
    scores = np.asarray(scores, dtype=np.float64)
    problems = []
    finite = bool(np.all(np.isfinite(scores)))
    if not finite:
        problems.append("non-finite score")
    else:
        lo, hi = float(scores.min()), float(scores.max())
        if lo < -eps or hi > 1.0 + eps:
            problems.append(f"score range [{lo:.3g}, {hi:.3g}] outside [-eps, 1+eps]")
    self_err = abs(float(scores[source]) - 1.0)
    # `not <=` also rejects NaN.
    if not self_err <= eps:
        problems.append(f"|s(i,i) - 1| = {self_err:.3g} > eps = {eps:.3g}")
    max_error = None
    if truth is not None:
        max_error = float(np.max(np.abs(scores - truth))) if finite else float("inf")
        if not max_error <= eps:
            problems.append(f"MaxError = {max_error:.3g} > eps = {eps:.3g}")
    return GateResult(self_err=self_err, max_error=max_error, problems=problems)
