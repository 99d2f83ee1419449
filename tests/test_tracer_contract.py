"""The benchmark's tracer (``perfbench/tracer.py``) reaches the query layers
by module attribute name; a rename or a bypassed call shows up here."""
import json

from perfbench import tracer

from repro.core import exactsim as exactsim_mod
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
