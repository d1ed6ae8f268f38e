"""Self-tests of the benchmark's own code: `python -m pytest simbench -q`."""

import hashlib
import json
from pathlib import Path

import pytest

import workloads  # first: it puts src/ on sys.path
import run
import tracing
from iamac_sim import engine
from iamac_sim.config import desk_preset
from iamac_sim.harness import RUN_COLUMNS, rows_to_csv, run_experiment
from iamac_sim.simulation import Simulation

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_a_nested_call_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    name = [0, 1, 2, 3]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    own = tracing.self_times(name, start, end, parent, n_names=4)
    assert own.tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    # spans sharing a name add up: b and d renamed to one name
    own = tracing.self_times([0, 1, 2, 1], start, end, parent, n_names=3)
    assert own.tolist() == pytest.approx([3.0, 4.0, 3.0])


def test_child_spans_share_the_event_id():
    tr = tracing.Tracer()
    ev = tr.open(tr.name_id("event:medium", "medium"), root=41)
    child = tr.open(tr.name_id("Node.set_radio", "simulation"))
    assert tr.current_layer() == "simulation"
    tr.close(child)
    tr.close(ev)
    outside = tr.open(tr.name_id("build_tree", "routing"))
    tr.close(outside)
    assert list(tr.parent) == [-1, 0, -1]
    assert list(tr.root) == [41, 41, -1]
    assert tr.current_layer() is None


def _desk_hash(trace=False):
    sc = desk_preset(horizon_s=20.0, seed=4, stop_on_first_death=False)
    sim = Simulation(sc, trace=trace)
    sim.bootstrap_routing()
    return workloads.csv_hash(sc, sim.run()), sim


def _traced_desk_hash():
    tr = tracing.Tracer().install()
    try:
        digest, sim = _desk_hash(trace=True)
    finally:
        tr.uninstall()
    return digest, tracing.layer_metrics(tr, sim), sim


def test_csv_hash_matches_run_experiment():
    sc = desk_preset(horizon_s=20.0, seed=4, stop_on_first_death=False)
    _, rows = run_experiment(sc)
    reference = hashlib.sha256(rows_to_csv(RUN_COLUMNS, rows).encode("utf-8")).hexdigest()
    assert _desk_hash()[0] == reference


def test_wrappers_are_removed_after_a_traced_run():
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attrs, _ in tracing.ENTRY_POINTS for attr in attrs}
    schedule = engine.Engine.__dict__["schedule"]
    untraced, _ = _desk_hash()

    traced, layers, sim = _traced_desk_hash()
    assert traced == untraced
    assert layers["engine.dispatched"] == sim.engine.dispatched_count
    assert 0.0 < layers["medium.self_time_share"] < 1.0

    assert engine.Engine.__dict__["schedule"] is schedule
    for (owner, attr), orig in before.items():
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr} still wrapped"
    assert _desk_hash()[0] == untraced


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    traced_names = set(_traced_desk_hash()[1]) | {"engine.events_per_s", "trace.overhead"}
    assert traced_names == {name for name, _ in run.PER_LAYER}


def test_every_workload_has_hashes_for_the_default_and_held_out_seed():
    exp = workloads.expected()
    for name in workloads.WORKLOADS:
        assert set(exp["hashes"][name]) == {str(workloads.DEFAULT_SEED),
                                            str(exp["held_out_seed"])}
