"""ExactSim single-source query benchmark.

    python3 perfbench/run.py --workload db-opt-local --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.  One
process is one closed-loop client: it issues ``exactsim()`` queries one after
another and waits for each reply.  Every query passes through the
correctness gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; its
timings are divided by the host's slowdown during the run (``hostspeed.py``),
and the report lines give each one as measured as well.  ``queries_per_s``
is completed queries over the time spent in them.
``--trace 1`` runs each of half as many sources twice, untraced and then
traced, and reports the per-layer metrics (``tracer.py``; on Spark also the
event log) plus the tracing overhead: the traced queries' extra time over
the untraced ones.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spark's local directories, its event log and
the recorded spans go to ``.bench_out/`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shlex
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import gate
from hostspeed import Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Pair budget cap of every query: the value the experiment jobs use.
MAX_PAIRS = 10_000_000
C = 0.6
#: Graph set-ups per run; ``setup_s`` takes the median load/broadcast time.
SETUP_REPS = 3
#: Host-speed reference samples per run (``hostspeed.py``), ~9 ms each.
REF_SAMPLES = 40
#: Every run of a workload queries the same panel of sources, and warms up
#: on the same source outside it, all drawn with this fixed seed among the
#: nodes with ``d_in > 0``; ``--seed`` picks the panel's order and the walks.
#: Seed-drawn sources would add the source-to-source cost spread to the
#: host's own: one DB-lite query costs 2.7-7.2 s depending on the source (28
#: measured) and ~4 fit in a run, which alone spreads ``queries_per_s``
#: across seeds by ~20%.
PANEL_SEED = 20200614

#: Units of the metrics a run reports, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graphs.load_s": "s",
    "graphs.broadcast_s": "s",
    "query.s": "s",
    "exactsim.self_s": "s",
    "forward.s": "s",
    "forward.self_s": "s",
    "forward.stored_entries": "count",
    "forward.model_bytes": "B",
    "backward.s": "s",
    "backward.self_s": "s",
    "matvec.calls": "count",
    "matvec.s": "s",
    "matvec.edge_bytes_computed": "B",
    "allocate.nodes": "count",
    "allocate.pairs": "count",
    "allocate.pairs_theoretical": "count",
    "alg2.s": "s",
    "alg2.self_s": "s",
    "alg3.s": "s",
    "alg3.self_s": "s",
    "alg3.skipped_nodes": "count",
    "alg3.pairs_simulated_ratio": "1",
    "head.s": "s",
    "head.calls": "count",
    "head.edges": "count",
    "head.ell_mean": "levels",
    "tail.s": "s",
    "tail.calls": "count",
    "tail.pairs": "count",
    "walks.s": "s",
    "walks.calls": "count",
    "walks.pairs": "count",
    "walks.pairs_per_s": "1/s",
    "assign.s": "s",
    "spark.tasks": "count",
    "spark.task_run_s": "s",
    "spark.task_skew": "1",
    "spark.overhead_s": "s",
    "query.traced_peak_mb": "MB",
    "trace.overhead_pct": "%",
    "host.slowdown": "1",
    "self_err": "1",
    "max_error": "1",
}


@dataclass(frozen=True)
class Workload:
    graph: str
    variant: str
    eps: float
    engine: str
    #: Nominal seconds per query.  A run issues ``round(--seconds / query_s)``
    #: queries: a count fixed in advance, so that a run's inputs, and with
    #: them ``self_err``, depend on the seed alone and not on the host's speed.
    query_s: float
    #: Check MaxError against the Power Method (small graphs only).
    oracle: bool = False


WORKLOADS: Dict[str, Workload] = {
    # Algorithm-3 head dominates (~84%); the tail ~12%.
    "db-opt-local": Workload("DB-lite", "opt", 1e-4, "local", query_s=4.5),
    # The same queries (same count, hence the same panel) on the Spark engine:
    # broadcast, createDataFrame, mapInPandas, collect.
    "db-opt-spark": Workload("DB-lite", "opt", 1e-4, "spark", query_s=4.5),
    # Uncapped; dense O(m) mat-vecs dominate, the head over ~20 hubs follows.
    "it-opt-coarse": Workload("IT-lite", "opt", 1e-1, "local", query_s=0.6),
    # Algorithm-2 pair walks in ~520 bulk calls per query.
    "gq-basic-local": Workload("GQ-lite", "basic", 1e-2, "local", query_s=2.0, oracle=True),
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(trace: bool):
    """A ``local[4]`` session whose Python workers can import the package."""
    tmp = OUT / "tmp"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Overrides spark.local.dir, and any value inherited from the caller.
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[4] --driver-memory 2g",
            "--driver-java-options",
            # No hsperfdata files outside the checkout.
            shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        # Workers start from a fresh interpreter: give them the package path.
        .config("spark.executorEnv.PYTHONPATH", str(SRC))
        # The experiment jobs' session settings (jobs/_common.py).
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )
    if trace:
        log_dir = OUT / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        for old in log_dir.iterdir():  # one log per run
            old.unlink()
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def reset_peak_rss() -> bool:
    """Restart the kernel's high-water RSS mark (Linux); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """High-water RSS of this process since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (Linux)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:  # the process has exited
        return None


def _alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"  # a zombie has ended


def descendants(pid: int) -> List[int]:
    """Ids of every live process below ``pid``."""
    parent = {}
    for d in Path("/proc").iterdir():
        fields = _stat(int(d.name)) if d.name.isdigit() else None
        if fields is not None:
            parent[int(d.name)] = int(fields[1])
    out, frontier = [], [pid]
    while frontier:
        kids = [c for c, p in parent.items() if p in frontier]
        out += kids
        frontier = kids
    return out


def stop_spark(spark) -> None:
    """Stop the session; wait until the JVM and its Python workers have exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spawned = descendants(os.getpid())
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=120)
    deadline = time.monotonic() + 60
    while any(_alive(pid) for pid in spawned):
        if time.monotonic() > deadline:
            raise RuntimeError("Spark processes still running after stop")
        time.sleep(0.1)


class Bench:
    """One run: set-up, the query loop, and the report."""

    def __init__(self, name: str, w: Workload, seed: int, seconds: float, trace: bool):
        self.name, self.w, self.seed, self.trace = name, w, seed, trace
        self.n_queries = max(2, round(seconds / w.query_s))
        self.spark = None
        self.attempted = self.failed = 0
        self.gates = []
        self.lines: List[str] = []
        self.ref = Reference()

    # -- set-up -------------------------------------------------------------
    def setup(self) -> None:
        from repro.graphs import generators

        self.ref.sample(REF_SAMPLES // 5)
        t0 = time.perf_counter()
        if self.w.engine == "spark":
            self.spark = start_spark(self.trace)
        self.session_s = time.perf_counter() - t0
        loads, bcasts, bc = [], [], None
        for _ in range(SETUP_REPS):
            # `load` caches per process; drop the cache to time a fresh build.
            generators._CACHE.pop(self.w.graph, None)
            t = time.perf_counter()
            g = generators.load(self.w.graph, self.spark)
            loads.append(time.perf_counter() - t)
            if self.spark is not None:
                if bc is not None:
                    bc.destroy()  # the previous set-up's graph is dropped
                t = time.perf_counter()
                bc = g.broadcast_csr()
                bcasts.append(time.perf_counter() - t)
        self.g = g
        self.load_s = statistics.median(loads)
        self.broadcast_s = statistics.median(bcasts) if bcasts else 0.0

        cand = np.flatnonzero(g.csr.din > 0)
        rng = np.random.default_rng(self.seed)
        n = self.n_queries if not self.trace else math.ceil(self.n_queries / 2)
        fixed = np.random.default_rng(PANEL_SEED).permutation(cand)
        self.sources = [int(s) for s in rng.permutation(fixed[:n])]
        warm = int(fixed[n])
        self.walk_seed = int(rng.integers(1, 2**31 - 1))

        t = time.perf_counter()
        self.query(warm)
        self.warmup_s = time.perf_counter() - t
        self.setup_s = self.session_s + self.load_s + self.broadcast_s + self.warmup_s

        self.S = None
        if self.w.oracle:
            # Ground truth for MaxError; not part of a user's set-up.
            from repro.baselines.power_method import simrank_power

            self.S = simrank_power(g, c=C, tol=1e-10)

    # -- queries ------------------------------------------------------------
    def query(self, source: int):
        from repro.core import exactsim as ex

        return ex.exactsim(
            self.g,
            source,
            eps=self.w.eps,
            c=C,
            variant=self.w.variant,
            seed=self.walk_seed,
            walk_engine=self.w.engine,
            max_pairs=MAX_PAIRS,
        )

    def gated_query(self, source: int) -> Optional[float]:
        """Run, time and gate one query; return its latency unless it raised."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            res = self.query(source)
        except Exception as exc:  # a failed query is counted, not fatal
            self.failed += 1
            print(f"query source={source} raised {exc!r}", file=sys.stderr)
            return None
        dt = time.perf_counter() - t
        truth = self.S[:, source] if self.S is not None else None
        g = gate.check(res.scores, source, self.w.eps, truth)
        self.gates.append((g, res.effective_eps, res.effective_eps > res.eps))
        if not g.ok:
            self.failed += 1
            print(f"query source={source} failed its gate: {g.problems}", file=sys.stderr)
        return dt

    def sample_reference(self) -> None:
        """Reference samples between queries, ~REF_SAMPLES per run in all."""
        self.ref.sample(max(1, REF_SAMPLES // (len(self.sources) + 1)))

    def timed_loop(self) -> Dict[str, float]:
        lat = []
        # Set-up (three graph builds, the warm-up) is not the loop's peak.
        since = "timed loop" if reset_peak_rss() else "process start"
        for s in self.sources:
            self.sample_reference()
            dt = self.gated_query(s)
            if dt is not None:
                lat.append(dt)
        self.sample_reference()
        rss = peak_rss_mb()
        # Timings are divided by the host's slowdown in this run (hostspeed.py).
        slow = self.ref.slowdown()
        busy = sum(lat)
        m = {
            "setup_s": self.setup_s / slow,
            "queries_per_s": len(lat) / busy * slow,
            "query_p50_s": statistics.median(lat) / slow,
            "peak_rss_mb": rss,
        }
        # Printed but left out of the result line: with at most a dozen
        # queries a run no tail percentile has ten samples beyond it, and the
        # max spread by up to 27% across seeds.
        qmax = max(lat) / slow
        self.report("host_slowdown", slow, "1",
                    f"median of {len(self.ref.samples)} reference samples; the timings "
                    "below are divided by it")
        self.report("setup_s", m["setup_s"], "s",
                    f"as measured: session {self.session_s:.3f} + load {self.load_s:.3f} + "
                    f"broadcast {self.broadcast_s:.3f} (medians of {SETUP_REPS}) + warm-up "
                    f"query {self.warmup_s:.3f} = {self.setup_s:.3f}")
        self.report("queries_per_s", m["queries_per_s"], "1/s",
                    f"as measured: {len(lat)} queries in {busy:.3f} s")
        self.report("query_p50_s", m["query_p50_s"], "s",
                    f"n={len(lat)}; as measured {m['query_p50_s'] * slow:.4g} s")
        self.report("query_max_s", qmax, "s", f"n={len(lat)}; as measured {qmax * slow:.4g} s")
        self.lines.append("latencies_s (as measured) " + " ".join(f"{x:.3f}" for x in lat)
                          + "  (sources " + " ".join(map(str, self.sources)) + ")")
        self.report("peak_rss_mb", rss, "MB", f"driver high-water RSS since {since}")
        self.report_gates()
        return m

    def traced_loop(self) -> Dict[str, float]:
        from tracer import Tracer, spark_metrics, spark_tasks

        tr = Tracer()
        sc = self.spark.sparkContext if self.spark is not None else None
        plain = traced = 0.0
        for qid, s in enumerate(self.sources):
            self.sample_reference()
            if sc is not None:
                sc.setJobGroup(f"u{qid}", "untraced query")
            plain += self.gated_query(s) or 0.0
            if sc is not None:
                sc.setJobGroup(f"t{qid}", "traced query")
            with tr.query(qid):
                traced += self.gated_query(s) or 0.0
        self.sample_reference()
        q = len(self.sources)
        m = tr.layer_metrics(q)
        m["host.slowdown"] = self.ref.slowdown()
        m["graphs.load_s"] = self.load_s
        m["graphs.broadcast_s"] = self.broadcast_s

        if sc is not None:
            sc.setJobGroup("mem", "tracemalloc query")
        tracemalloc.start()
        self.query(self.sources[0])
        m["query.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        m["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0

        tr.dump(OUT / f"spans-{self.name}-seed{self.seed}.jsonl")
        d_phase = tr.d_phase_seconds()
        if self.spark is not None:
            stop_spark(self.spark)  # flushes and closes the event log
            self.spark = None
            tasks = spark_tasks(OUT / "eventlog")
            m.update(
                spark_metrics(
                    [tasks.get(f"t{i}", []) for i in range(q)], [d_phase[i] for i in range(q)]
                )
            )
        else:
            m.update(spark_metrics([], []))
        m["self_err"] = max((g.self_err for g, _, _ in self.gates), default=0.0)
        # 0 where the workload has no oracle.
        m["max_error"] = max(
            (g.max_error for g, _, _ in self.gates if g.max_error is not None), default=0.0
        )
        for k in PER_LAYER:
            if k not in ("self_err", "max_error"):  # report_gates prints these
                self.report(k, m[k], PER_LAYER[k])
        self.report_gates()
        return {k: m[k] for k in PER_LAYER}

    # -- report -------------------------------------------------------------
    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"{name:<28} {value:>14.6g} {unit:<6} {note}".rstrip())

    def report_gates(self) -> None:
        errs = [g.self_err for g, _, _ in self.gates]
        n = len(errs)
        if n:
            eff = max(e for _, e, _ in self.gates)
            capped = "yes" if any(c for _, _, c in self.gates) else "no"
            self.report("self_err", max(errs), "1",
                        f"max of {n}; effective_eps {eff:.3g}, capped {capped}")
        maxes = [g.max_error for g, _, _ in self.gates if g.max_error is not None]
        if maxes:
            self.report("max_error", max(maxes), "1", f"max of {len(maxes)} vs Power Method")
        frac = self.failed / self.attempted if self.attempted else 0.0
        self.report("failed_frac", frac, "1", f"{self.failed}/{self.attempted}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")  # for this process and the JVM
    w = WORKLOADS[args.workload]
    bench = Bench(args.workload, w, args.seed, args.seconds, bool(args.trace))
    try:
        bench.setup()
        metrics = bench.traced_loop() if args.trace else bench.timed_loop()
    finally:
        if bench.spark is not None:
            stop_spark(bench.spark)
    g = bench.g
    print(f"workload {args.workload}: {w.graph} (n={g.n}, m={g.m}) variant={w.variant} "
          f"eps={w.eps:g} engine={w.engine} max_pairs={MAX_PAIRS:g} seed={args.seed} "
          f"trace={args.trace}")
    for line in bench.lines:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
