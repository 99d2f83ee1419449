"""Experiment harness: ground truths, method runners, sweep rows.

One :class:`Row` per (dataset, method, parameter) setting, averaged over the
query sources — exactly the points the paper plots.  A method whose budget
exceeds the configured cap is reported with ``note='omitted (budget)'``, the
scaled analog of the paper's "omit if query/preprocessing exceeds 24 hours"
rule (DESIGN.md §4).

Ground truth:
* small graphs — Power Method (as in the paper §4.1);
* large graphs — optimized ExactSim at the finest ε (as in the paper §4.2,
  which uses ExactSim @ 1e-7 as the reference).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import metrics
from repro.baselines import linearization, mc, parsim, prsim
from repro.baselines.power_method import simrank_power
from repro.core.exactsim import exactsim
from repro.graphs.graph import Graph

C = 0.6


@dataclass
class Row:
    dataset: str
    method: str
    param: str
    preprocess_s: float
    query_s: float
    index_bytes: int
    max_error: float
    precision_at_k: float
    note: str = ""

    def fmt(self) -> str:
        me = "-" if np.isnan(self.max_error) else f"{self.max_error:.2e}"
        pk = "-" if np.isnan(self.precision_at_k) else f"{self.precision_at_k:.3f}"
        return (
            f"{self.dataset:8s} {self.method:16s} {self.param:12s} "
            f"pre={self.preprocess_s:8.2f}s q={self.query_s:7.3f}s "
            f"idx={self.index_bytes / 1e6:8.2f}MB maxerr={me:>9s} "
            f"P@k={pk:>6s} {self.note}"
        )


def pick_sources(graph: Graph, n_sources: int, seed: int = 7) -> np.ndarray:
    """Deterministic query nodes, biased to nodes that have in-edges
    (a source with d_in = 0 has an all-zero similarity vector)."""
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(graph.csr.din > 0)
    if candidates.size == 0:
        candidates = np.arange(graph.n)
    return rng.choice(candidates, size=min(n_sources, candidates.size), replace=False)


def ground_truth_small(graph: Graph, sources: Sequence[int]) -> Dict[int, np.ndarray]:
    S = simrank_power(graph, c=C, tol=1e-11)
    return {int(s): S[:, int(s)] for s in sources}


def ground_truth_large(
    graph: Graph,
    sources: Sequence[int],
    *,
    eps_min: float,
    max_pairs: int,
    seed: int = 123,
) -> Dict[int, np.ndarray]:
    """ExactSim-as-ground-truth, the paper's §4.2 protocol."""
    out = {}
    for s in sources:
        r = exactsim(
            graph,
            int(s),
            eps=eps_min,
            variant="opt",
            seed=seed,
            max_pairs=max_pairs,
        )
        out[int(s)] = r.scores
    return out


def _evaluate(
    scores: np.ndarray, truth: np.ndarray, source: int, k: int
) -> tuple[float, float]:
    return (
        metrics.max_error(scores, truth),
        metrics.precision_at_k(scores, truth, k, source=source),
    )


@dataclass
class SweepConfig:
    k: int = 50
    max_pairs: int = 5_000_000
    max_index_entries: int = 5_000_000
    max_push_edges: int = 300_000_000
    seed: int = 11
    exactsim_eps: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4)
    exactsim_basic_eps: Sequence[float] = (1e-1, 1e-2, 1e-3)
    parsim_L: Sequence[int] = (1, 2, 5, 10, 20, 50)
    mc_r: Sequence[int] = (10, 50, 200)
    linearization_eps: Sequence[float] = (1e-1, 3e-2, 1e-2, 1e-3)
    prsim_eps: Sequence[float] = (1e-1, 1e-2, 1e-3)


def sweep_exactsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
    *,
    variant: str = "opt",
    eps_grid: Optional[Sequence[float]] = None,
) -> List[Row]:
    rows = []
    grid = eps_grid if eps_grid is not None else (
        cfg.exactsim_eps if variant == "opt" else cfg.exactsim_basic_eps
    )
    name = "ExactSim" if variant == "opt" else "ExactSim-basic"
    for eps in grid:
        errs, precs, times = [], [], []
        capped = False
        bytes_used = 0
        for s in sources:
            r = exactsim(
                graph,
                int(s),
                eps=eps,
                variant=variant,
                seed=cfg.seed,
                max_pairs=cfg.max_pairs,
            )
            e, p = _evaluate(r.scores, truth[int(s)], int(s), cfg.k)
            errs.append(e)
            precs.append(p)
            times.append(r.seconds_total)
            capped = capped or (r.effective_eps > eps)
            bytes_used = max(bytes_used, r.memory_bytes())
        rows.append(
            Row(
                graph.name,
                name,
                f"eps={eps:.0e}",
                0.0,
                float(np.mean(times)),
                0,  # index-free method
                float(np.mean(errs)),
                float(np.mean(precs)),
                note=("capped" if capped else "") + f" mem={bytes_used/1e6:.1f}MB",
            )
        )
    return rows


def sweep_parsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    rows = []
    for L in cfg.parsim_L:
        errs, precs, times = [], [], []
        for s in sources:
            r = parsim.parsim(graph, int(s), L=L, c=C)
            e, p = _evaluate(r.scores, truth[int(s)], int(s), cfg.k)
            errs.append(e)
            precs.append(p)
            times.append(r.seconds)
        rows.append(
            Row(
                graph.name,
                "ParSim",
                f"L={L}",
                0.0,
                float(np.mean(times)),
                0,
                float(np.mean(errs)),
                float(np.mean(precs)),
            )
        )
    return rows


def sweep_mc(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    rows = []
    for r_per_node in cfg.mc_r:
        if r_per_node * graph.n > cfg.max_pairs * 4:
            rows.append(
                Row(graph.name, "MC", f"r={r_per_node}", np.nan, np.nan, 0,
                    np.nan, np.nan, note="omitted (budget)")
            )
            continue
        idx = mc.preprocess(graph, r_per_node=r_per_node, c=C, seed=cfg.seed)
        errs, precs, times = [], [], []
        for s in sources:
            res = mc.query(graph, idx, int(s))
            e, p = _evaluate(res.scores, truth[int(s)], int(s), cfg.k)
            errs.append(e)
            precs.append(p)
            times.append(res.seconds_query)
        rows.append(
            Row(
                graph.name,
                "MC",
                f"r={r_per_node}",
                idx.seconds_preprocess,
                float(np.mean(times)),
                idx.index_bytes(),
                float(np.mean(errs)),
                float(np.mean(precs)),
            )
        )
    return rows


def sweep_linearization(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    rows = []
    for eps in cfg.linearization_eps:
        try:
            idx = linearization.preprocess(
                graph, eps=eps, c=C, seed=cfg.seed,
                max_pairs=cfg.max_pairs,
            )
        except linearization.BudgetExceeded:
            rows.append(
                Row(graph.name, "Linearization", f"eps={eps:.0e}", np.nan,
                    np.nan, 0, np.nan, np.nan, note="omitted (budget)")
            )
            continue
        errs, precs, times = [], [], []
        for s in sources:
            res = linearization.query(graph, idx, int(s), c=C)
            e, p = _evaluate(res.scores, truth[int(s)], int(s), cfg.k)
            errs.append(e)
            precs.append(p)
            times.append(res.seconds_query)
        rows.append(
            Row(
                graph.name,
                "Linearization",
                f"eps={eps:.0e}",
                idx.seconds_preprocess,
                float(np.mean(times)),
                idx.index_bytes(),
                float(np.mean(errs)),
                float(np.mean(precs)),
            )
        )
    return rows


def sweep_prsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    rows = []
    for eps in cfg.prsim_eps:
        try:
            idx = prsim.preprocess(
                graph, eps=eps, c=C, seed=cfg.seed,
                max_entries=cfg.max_index_entries, max_pairs=cfg.max_pairs,
                max_push_edges=cfg.max_push_edges,
            )
        except prsim.BudgetExceeded:
            rows.append(
                Row(graph.name, "PRSim-lite", f"eps={eps:.0e}", np.nan,
                    np.nan, 0, np.nan, np.nan, note="omitted (budget)")
            )
            continue
        errs, precs, times = [], [], []
        for s in sources:
            res = prsim.query(graph, idx, int(s), c=C)
            e, p = _evaluate(res.scores, truth[int(s)], int(s), cfg.k)
            errs.append(e)
            precs.append(p)
            times.append(res.seconds_query)
        rows.append(
            Row(
                graph.name,
                "PRSim-lite",
                f"eps={eps:.0e}",
                idx.seconds_preprocess,
                float(np.mean(times)),
                idx.index_bytes(),
                float(np.mean(errs)),
                float(np.mean(precs)),
            )
        )
    return rows


def sweep_all(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    """Every method's full sweep — the rows behind Figures 1/2 (5/6)."""
    rows: List[Row] = []
    rows += sweep_exactsim(graph, sources, truth, cfg, variant="opt")
    rows += sweep_exactsim(graph, sources, truth, cfg, variant="basic")
    rows += sweep_parsim(graph, sources, truth, cfg)
    rows += sweep_mc(graph, sources, truth, cfg)
    rows += sweep_linearization(graph, sources, truth, cfg)
    rows += sweep_prsim(graph, sources, truth, cfg)
    return rows
