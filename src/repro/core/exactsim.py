"""ExactSim — the paper's contribution (Algorithm 1 + §3.2 optimizations).

Two variants share the linearized engine and differ exactly where the paper
says they do:

* ``variant='basic'`` — dense forward vectors, sample budget
  ``R = 6 log n/((1-√c)⁴ε²)`` allocated ``∝ π_i(k)``, ``D̂`` from Algorithm 2
  (plain pair walks).
* ``variant='opt'`` — internal error split ε → ε/2 (Lemma 2), sparse forward
  vectors with threshold ``(1-√c)²(ε/2)``, allocation ``∝ π_i(k)²`` scaled by
  ``‖π_i‖²`` (Lemma 3), ``D̂`` from Algorithm 3 (local deterministic
  exploitation + sampled tail).

``max_pairs`` is the scaled analog of the paper's 24-hour wall: when the
theoretical budget exceeds it, allocations are scaled down and the result
reports the *effective* ε actually afforded (``ExactSimResult.effective_eps``)
from the variant's own budget: the sampling share of ε times
``√(theoretical/allocated pairs)``, plus opt's deterministic ε/2 share.
This is how the basic variant behaves in the ablation, exactly mirroring
Figure 9's regime.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import diagonal, linearized, local_push
from repro.graphs.graph import Graph


@dataclass
class ExactSimResult:
    """Single-source scores plus the cost accounting the experiments report."""

    scores: np.ndarray
    variant: str
    eps: float
    L: int
    total_pairs_allocated: int
    pairs_simulated: int
    stored_entries: int
    dense_bytes: int
    sparse_bytes: int
    seconds_forward: float
    seconds_diagonal: float
    seconds_backward: float
    effective_eps: float  # == eps unless the pair budget was capped

    def memory_bytes(self) -> int:
        """Footprint of the stored ℓ-hop vectors (Table 3's quantity)."""
        return self.dense_bytes if self.variant == "basic" else self.sparse_bytes


def exactsim(
    graph: Graph,
    source: int,
    *,
    eps: float,
    c: float = 0.6,
    variant: str = "opt",
    seed: int = 0,
    walk_engine: str = "local",
    max_pairs: Optional[int] = None,
) -> ExactSimResult:
    """Answer a single-source SimRank query with additive error ``<= eps`` whp.

    ``walk_engine`` selects where the D estimation runs (``'spark'`` runs
    its batches as one RDD job of one task per core with
    ``graphs.graph.run_partitioned``, ``'local'`` runs them in-process —
    identical seeds, identical output).  The mat-vec phases run on the
    driver (DESIGN.md §3 layering).
    """
    if variant not in ("basic", "opt"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs!r}")
    csr = graph.csr
    eps_int = eps / 2.0 if variant == "opt" else eps  # Lemma-2 error split
    L = linearized.iterations_for(eps_int, c)

    t0 = time.perf_counter()
    thr = linearized.sparse_threshold(eps_int, c) if variant == "opt" else 0.0
    fwd = linearized.forward(csr, source, c=c, L=L, threshold=thr)
    t1 = time.perf_counter()

    R = diagonal.total_samples(graph.n, eps_int, c)
    mode = "pi" if variant == "basic" else "pi2"
    nodes, counts, total, theoretical = diagonal.allocate(
        fwd.pi, R, mode=mode, cap=max_pairs
    )
    if variant == "basic":
        d_hat = diagonal.estimate_D_mc(
            graph, nodes, counts, c=c, seed=seed, engine=walk_engine
        )
        pairs_sim = int(counts.sum())
    else:
        d_hat, stats = local_push.estimate_D_local_push(
            graph, nodes, counts, c=c, seed=seed, engine=walk_engine
        )
        pairs_sim = int(stats["pairs"].sum())
    t2 = time.perf_counter()

    scores = linearized.backward(csr, fwd, d_hat, c=c)
    t3 = time.perf_counter()

    eff = eps
    if total < theoretical:
        # Budget capped: the sampling share of ε (all of it for basic, the
        # Lemma-2 half for opt) grows as √(theoretical/total) pairs.
        eff = (eps - eps_int) + eps_int * math.sqrt(theoretical / total)
    return ExactSimResult(
        scores=scores,
        variant=variant,
        eps=eps,
        L=L,
        total_pairs_allocated=total,
        pairs_simulated=pairs_sim,
        stored_entries=fwd.stored_entries,
        dense_bytes=fwd.dense_bytes(),
        sparse_bytes=fwd.sparse_bytes(),
        seconds_forward=t1 - t0,
        seconds_diagonal=t2 - t1,
        seconds_backward=t3 - t2,
        effective_eps=eff,
    )
