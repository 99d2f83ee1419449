"""Spans around the public functions of each query layer, from outside.

The benchmark does not change the program: :class:`Tracer` swaps module
attributes for timing wrappers while a traced query runs and puts the
originals back afterwards.  Each call becomes a span (name, start, end,
parent span, query id) with the counts its layer exposes through its
arguments or result.  Spans stay in memory until the run ends.

Callers look these functions up as module attributes at call time, so the
wrappers reach every layer below.  ``local_push`` imports
``pair_meet_count`` by name: the Algorithm-3 tail (``tail``) and the
Algorithm-2 walks (``walks``) are therefore wrapped, and reported, apart.
On the Spark engine the per-node kernels run in Python workers, which the
wrappers do not reach; :func:`spark_tasks` reads the executor side from
Spark's event log instead.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.core import diagonal, linearized, local_push
from repro.core import exactsim as exactsim_mod
from repro.linalg import matvec
from repro.walks import pair_walks


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _matvec_counts(args, kwargs, out) -> Dict[str, float]:
    csr = _arg(args, kwargs, 0, "csr")
    # Computed, not measured: each edge streams an (src, dst) index pair and
    # one gathered vector value; the input and output vectors are read and
    # written once.
    return {"edge_bytes_computed": 24 * csr.m + 16 * csr.n}


def _forward_counts(args, kwargs, out) -> Dict[str, float]:
    model = out.sparse_bytes() if out.threshold > 0.0 else out.dense_bytes()
    return {"stored_entries": out.stored_entries, "model_bytes": model}


def _allocate_counts(args, kwargs, out) -> Dict[str, float]:
    nodes, _counts, total, theoretical = out
    return {"nodes": nodes.size, "pairs": total, "pairs_theoretical": theoretical}


def _alg3_counts(args, kwargs, out) -> Dict[str, float]:
    _d, stats = out
    allocated = int(np.sum(_arg(args, kwargs, 2, "counts")))
    pairs, ell = stats["pairs"].to_numpy(), stats["ell"].to_numpy()
    return {
        # A node whose head went deep enough skips sampling entirely.
        "skipped_nodes": int(np.count_nonzero((pairs == 0) & (ell > 0))),
        "pairs_simulated": int(pairs.sum()),
        "pairs_allocated": allocated,
    }


def _head_counts(args, kwargs, out) -> Dict[str, float]:
    return {"edges": out.edges, "ell": out.ell}


def _pairs_counts(args, kwargs, out) -> Dict[str, float]:
    return {"pairs": _arg(args, kwargs, 2, "pairs")}


# (module, attribute, span name, counter).  Span names are the metric prefixes.
TARGETS = [
    (exactsim_mod, "exactsim", "exactsim", None),
    (linearized, "forward", "forward", _forward_counts),
    (linearized, "backward", "backward", None),
    (matvec, "matvec_P", "matvec", _matvec_counts),
    (matvec, "matvec_PT", "matvec", _matvec_counts),
    (diagonal, "allocate", "allocate", _allocate_counts),
    (diagonal, "estimate_D_mc", "alg2", None),
    (local_push, "estimate_D_local_push", "alg3", _alg3_counts),
    (local_push, "meeting_head", "head", _head_counts),
    (local_push, "pair_meet_count", "tail", _pairs_counts),
    (pair_walks, "pair_meet_count", "walks", _pairs_counts),
    (pair_walks, "make_assignments", "assign", None),
]


class Span:
    __slots__ = ("sid", "name", "parent", "qid", "start", "end", "counts")

    def __init__(self, sid: int, name: str, parent: Optional[int], qid: int, start: float):
        self.sid, self.name, self.parent, self.qid = sid, name, parent, qid
        self.start, self.end = start, start
        self.counts: Optional[Dict[str, float]] = None


class Tracer:
    """Records spans for the queries run inside :meth:`query`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._qid = -1

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent, self._qid, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def query(self, qid: int) -> Iterator[None]:
        """Trace every wrapped call made inside the block as query ``qid``."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        self._qid = qid
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "query": s.qid,
                            "start": s.start,
                            "end": s.end,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self, queries: int) -> Dict[str, float]:
        """Per-query means of each layer's time and counts, plus self times.

        A span's self time is its duration minus the time its child spans
        cover.  Layers that never ran report 0.
        """
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        for s in self.spans:
            dur = s.end - s.start
            total[s.name] += dur
            self_time[s.name] += dur - child[s.sid]
            calls[s.name] += 1
            for k, v in (s.counts or {}).items():
                counts[f"{s.name}.{k}"] += v
        q = max(queries, 1)
        alloc3 = counts["alg3.pairs_allocated"]
        return {
            "query.s": total["exactsim"] / q,
            "exactsim.self_s": self_time["exactsim"] / q,
            "forward.s": total["forward"] / q,
            "forward.self_s": self_time["forward"] / q,
            "forward.stored_entries": counts["forward.stored_entries"] / q,
            "forward.model_bytes": counts["forward.model_bytes"] / q,
            "backward.s": total["backward"] / q,
            "backward.self_s": self_time["backward"] / q,
            "matvec.calls": calls["matvec"] / q,
            "matvec.s": total["matvec"] / q,
            "matvec.edge_bytes_computed": counts["matvec.edge_bytes_computed"] / q,
            "allocate.nodes": counts["allocate.nodes"] / q,
            "allocate.pairs": counts["allocate.pairs"] / q,
            "allocate.pairs_theoretical": counts["allocate.pairs_theoretical"] / q,
            "alg2.s": total["alg2"] / q,
            "alg2.self_s": self_time["alg2"] / q,
            "alg3.s": total["alg3"] / q,
            "alg3.self_s": self_time["alg3"] / q,
            "alg3.skipped_nodes": counts["alg3.skipped_nodes"] / q,
            "alg3.pairs_simulated_ratio": (
                counts["alg3.pairs_simulated"] / alloc3 if alloc3 else 0.0
            ),
            "head.s": total["head"] / q,
            "head.calls": calls["head"] / q,
            "head.edges": counts["head.edges"] / q,
            "head.ell_mean": counts["head.ell"] / calls["head"] if calls["head"] else 0.0,
            "tail.s": total["tail"] / q,
            "tail.calls": calls["tail"] / q,
            "tail.pairs": counts["tail.pairs"] / q,
            "walks.s": total["walks"] / q,
            "walks.calls": calls["walks"] / q,
            "walks.pairs": counts["walks.pairs"] / q,
            "walks.pairs_per_s": (
                counts["walks.pairs"] / total["walks"] if total["walks"] else 0.0
            ),
            "assign.s": total["assign"] / q,
        }

    def d_phase_seconds(self) -> Dict[int, float]:
        """Driver wall time of each traced query's D phase (Algorithm 2 or 3)."""
        out: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name in ("alg2", "alg3"):
                out[s.qid] += s.end - s.start
        return out


def spark_tasks(log_dir: Path) -> Dict[str, List[tuple]]:
    """``job group -> [(stage id, executor run seconds), ...]`` from an event log.

    Spark writes one JSON event per line; a job's start event carries its
    job group and stage ids, and each task's end event its stage id and
    executor run time in milliseconds.
    """
    stage_group: Dict[int, Optional[str]] = {}
    tasks: Dict[str, List[tuple]] = defaultdict(list)
    for path in sorted(log_dir.iterdir()):
        with open(path) as f:
            for line in f:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                    for sid in ev["Stage IDs"]:
                        stage_group[sid] = group
                elif kind == "SparkListenerTaskEnd":
                    group = stage_group.get(ev["Stage ID"])
                    run_ms = (ev.get("Task Metrics") or {}).get("Executor Run Time", 0)
                    if group is not None:
                        tasks[group].append((ev["Stage ID"], run_ms / 1000.0))
    return tasks


def spark_metrics(tasks_by_query: List[List[tuple]], d_phase_s: List[float]) -> Dict[str, float]:
    """Per-query means of the executor-side D-phase figures.

    ``task_skew`` is max ÷ mean task time within each query's busiest stage
    (the one with the most executor time); ``overhead_s`` is the driver's
    D-phase wall time minus the slowest task, i.e. what scheduling,
    serialisation and collection add on top of the critical task.
    """
    tasks = skew = run = overhead = 0.0
    for items, wall in zip(tasks_by_query, d_phase_s):
        if not items:
            continue
        by_stage: Dict[int, List[float]] = defaultdict(list)
        for sid, secs in items:
            by_stage[sid].append(secs)
        busiest = max(by_stage.values(), key=sum)
        mean = sum(busiest) / len(busiest)
        tasks += len(items)
        run += sum(secs for _, secs in items)
        skew += max(busiest) / mean if mean > 0 else 1.0
        overhead += wall - max(secs for _, secs in items)
    q = max(len(tasks_by_query), 1)
    return {
        "spark.tasks": tasks / q,
        "spark.task_run_s": run / q,
        "spark.task_skew": skew / q,
        "spark.overhead_s": overhead / q,
    }
