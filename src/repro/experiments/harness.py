"""Experiment harness: ground truths, method runners, sweep rows.

One :class:`Row` per (dataset, method, parameter) setting, averaged over the
query sources by one row builder, ``_row`` — exactly the points the paper
plots.  MC, Linearization and PRSim-lite share one index loop: a build past
the configured cap raises :class:`~repro.baselines.BudgetExceeded` and its
point reads ``note='omitted (budget)'``, the scaled analog of the paper's
"omit if query/preprocessing exceeds 24 hours" rule (DESIGN.md §4).

Ground truth:
* small graphs — Power Method (as in the paper §4.1);
* large graphs — optimized ExactSim at the finest ε (as in the paper §4.2,
  which uses ExactSim @ 1e-7 as the reference).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import metrics
from repro.baselines import BudgetExceeded, linearization, mc, parsim, prsim
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


def _row(
    graph: Graph, method: str, param: str,
    runs: Sequence[Tuple[int, np.ndarray, float]], truth: Dict[int, np.ndarray],
    k: int, preprocess_s: float = 0.0, index_bytes: int = 0, note: str = "",
) -> Row:
    """One setting's row from its ``(source, scores, seconds)`` triples:
    MaxError, Precision@k and query time, each averaged over the sources."""
    errs = [metrics.max_error(x, truth[s]) for s, x, _ in runs]
    precs = [metrics.precision_at_k(x, truth[s], k, source=s) for s, x, _ in runs]
    times = [t for _, _, t in runs]
    return Row(graph.name, method, param, preprocess_s, float(np.mean(times)),
               index_bytes, float(np.mean(errs)), float(np.mean(precs)), note)


def _sweep_index(
    graph: Graph, sources: Sequence[int], truth: Dict[int, np.ndarray],
    cfg: SweepConfig, method: str, label: str, grid: Sequence,
    build: Callable, query: Callable,
) -> List[Row]:
    """One row per grid point, labelled ``label.format(param)``: ``build(param)``
    returns the index or raises :class:`BudgetExceeded` to omit the point, and
    ``query(index, source)`` returns a result with ``scores`` and
    ``seconds_query``."""
    rows = []
    for param in grid:
        try:
            idx = build(param)
        except BudgetExceeded:
            rows.append(Row(graph.name, method, label.format(param), np.nan,
                            np.nan, 0, np.nan, np.nan, note="omitted (budget)"))
            continue
        results = [(int(s), query(idx, int(s))) for s in sources]
        runs = [(s, r.scores, r.seconds_query) for s, r in results]
        rows.append(_row(graph, method, label.format(param), runs, truth, cfg.k,
                         idx.seconds_preprocess, idx.index_bytes()))
    return rows


def sweep_exactsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
    *,
    variant: str = "opt",
) -> List[Row]:
    grid = cfg.exactsim_eps if variant == "opt" else cfg.exactsim_basic_eps
    name = "ExactSim" if variant == "opt" else "ExactSim-basic"
    rows = []
    for eps in grid:
        results = [(int(s), exactsim(graph, int(s), eps=eps, variant=variant,
                                     seed=cfg.seed, max_pairs=cfg.max_pairs))
                   for s in sources]
        runs = [(s, r.scores, r.seconds_total) for s, r in results]
        capped = any(r.effective_eps > eps for _, r in results)
        bytes_used = max((r.memory_bytes() for _, r in results), default=0)
        note = ("capped" if capped else "") + f" mem={bytes_used/1e6:.1f}MB"
        rows.append(_row(graph, name, f"eps={eps:.0e}", runs, truth, cfg.k, note=note))
    return rows


def sweep_parsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    rows = []
    for L in cfg.parsim_L:
        results = [(int(s), parsim.parsim(graph, int(s), L=L, c=C)) for s in sources]
        runs = [(s, r.scores, r.seconds) for s, r in results]
        rows.append(_row(graph, "ParSim", f"L={L}", runs, truth, cfg.k))
    return rows


def sweep_mc(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    def build(r_per_node):
        if r_per_node * graph.n > cfg.max_pairs * 4:
            raise BudgetExceeded(
                f"MC would store {r_per_node * graph.n:.2e} walks "
                f"(cap {cfg.max_pairs * 4:.2e})"
            )
        return mc.preprocess(graph, r_per_node=r_per_node, c=C, seed=cfg.seed)

    return _sweep_index(graph, sources, truth, cfg, "MC", "r={}", cfg.mc_r, build,
                        partial(mc.query, graph))


def sweep_linearization(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    return _sweep_index(
        graph, sources, truth, cfg, "Linearization", "eps={:.0e}",
        cfg.linearization_eps,
        lambda eps: linearization.preprocess(
            graph, eps=eps, c=C, seed=cfg.seed, max_pairs=cfg.max_pairs
        ),
        partial(linearization.query, graph, c=C),
    )


def sweep_prsim(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    return _sweep_index(
        graph, sources, truth, cfg, "PRSim-lite", "eps={:.0e}", cfg.prsim_eps,
        lambda eps: prsim.preprocess(
            graph, eps=eps, c=C, seed=cfg.seed,
            max_entries=cfg.max_index_entries, max_pairs=cfg.max_pairs,
            max_push_edges=cfg.max_push_edges,
        ),
        partial(prsim.query, graph, c=C),
    )


def sweep_all(
    graph: Graph,
    sources: Sequence[int],
    truth: Dict[int, np.ndarray],
    cfg: SweepConfig,
) -> List[Row]:
    """Every method's full sweep — the rows behind Figures 1/2 (5/6)."""
    return (
        sweep_exactsim(graph, sources, truth, cfg, variant="opt")
        + sweep_exactsim(graph, sources, truth, cfg, variant="basic")
        + sweep_parsim(graph, sources, truth, cfg)
        + sweep_mc(graph, sources, truth, cfg)
        + sweep_linearization(graph, sources, truth, cfg)
        + sweep_prsim(graph, sources, truth, cfg)
    )
