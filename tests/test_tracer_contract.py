"""The benchmark's tracer (``perfbench/tracer.py``) reaches the query layers
by module attribute name; a rename or a bypassed call shows up here."""
import json

import numpy as np

from perfbench import tracer

from repro.core import exactsim as exactsim_mod
from repro.core import local_push
from repro.graphs import generators as gen


def test_tracer_targets_exist():
    for mod, attr, _name, _counter in tracer.TARGETS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_tracer_sees_every_layer(tmp_path):
    g = gen.load("GQ-lite")
    tr = tracer.Tracer()
    for qid, variant in enumerate(("opt", "basic")):
        with tr.query(qid):
            exactsim_mod.exactsim(
                g, 3, eps=1e-2, variant=variant, seed=1, max_pairs=100_000
            )
    m = tr.layer_metrics(2)
    for layer in ("forward", "backward", "matvec", "alg3", "head", "tail", "alg2",
                  "walks", "assign"):
        assert m[f"{layer}.s"] > 0, layer
    for count in ("forward.stored_entries", "forward.model_bytes", "matvec.calls",
                  "matvec.edge_bytes_computed", "allocate.nodes", "allocate.pairs",
                  "alg3.pairs_simulated_ratio", "head.calls", "head.edges",
                  "tail.calls", "tail.pairs", "walks.calls", "walks.pairs"):
        assert m[count] > 0, count
    # Counts must be plain Python numbers: json.dumps rejects numpy integers.
    tr.dump(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    heads = [s["counts"] for s in spans if s["name"] == "head"]
    assert heads and len(spans) == len(tr.spans)
    assert all(type(h["edges"]) is int and type(h["ell"]) is int for h in heads)


def test_traced_tail_pairs_match_simulated_pairs():
    """Batching Algorithm 3's tails must neither drop nor double-count pairs
    in the ``tail`` counter: it equals the pairs the stats frame reports."""
    g = gen.load("GQ-lite")
    tr = tracer.Tracer()
    with tr.query(0):
        nodes = np.arange(0, g.n, 3, dtype=np.int64)
        counts = np.linspace(5, 4000, nodes.size).astype(np.int64)
        _d, stats = local_push.estimate_D_local_push(g, nodes, counts, c=0.6, seed=2)
        exactsim_mod.exactsim(g, 3, eps=1e-2, variant="basic", seed=1, max_pairs=100_000)
    tails = [s.counts["pairs"] for s in tr.spans if s.name == "tail"]
    walks = [s.counts["pairs"] for s in tr.spans if s.name == "walks"]
    assert tails and walks
    assert all(type(p) is int for p in tails + walks)
    assert sum(tails) == int(stats["pairs"].sum()) > 0
    assert tr.layer_metrics(1)["tail.pairs"] == sum(tails)
