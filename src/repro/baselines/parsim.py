"""ParSim baseline [Yu–McCann]: linearization with ``D = (1-c)·I``.

ParSim drops the first-meeting constraint entirely by fixing the diagonal
correction to ``(1-c)I`` — no preprocessing, no sampling, just ``L``
iterations of the linearized recurrence.  The paper shows this converges to
something *different* from SimRank (its MaxError plateaus at the
D-approximation error) while still ranking well on small graphs — both shapes
our experiments reproduce.
"""
from __future__ import annotations

import numpy as np

from repro.baselines import check_unit_interval
from repro.core import linearized
from repro.graphs.graph import Graph


def parsim(graph: Graph, source: int, *, L: int, c: float = 0.6) -> np.ndarray:
    """Single-source ParSim with ``L`` iterations (its only parameter).

    ``s(source)`` is pinned to the trivially-known ``S(i,i) = 1``: with
    ``D = (1-c)I`` the raw diagonal estimate is ~``1-c``, a constant known
    artifact that every practical implementation reports as 1; leaving it raw
    would flatten ParSim's MaxError curve at ``c`` and hide the off-diagonal
    plateau the paper's figures actually show.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L!r}")
    check_unit_interval(c=c)
    d_hat = np.full(graph.n, 1.0 - c)
    fwd = linearized.forward(graph.csr, source, c=c, L=L)
    scores = linearized.backward(graph.csr, fwd, d_hat, c=c)
    scores[source] = 1.0
    return scores
