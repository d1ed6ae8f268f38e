"""The benchmark's tracer wraps simulator entry points by name; every name it
wraps must still exist, or the traced benchmark run breaks. Every workload
must also reproduce the CSV hashes the benchmark recorded for it, at the
default and at the held-out seed, and a traced run must open one event span
per dispatched event."""

from dataclasses import replace
from pathlib import Path

import pytest

SIMBENCH = Path(__file__).resolve().parents[1] / "simbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(SIMBENCH))
    import tracing

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attrs, _ in tracing.ENTRY_POINTS for attr in attrs]
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig


@pytest.mark.parametrize("which", ["default", "held-out"])
def test_benchmark_workloads_reproduce_recorded_hashes(which, monkeypatch):
    monkeypatch.syspath_prepend(str(SIMBENCH))
    import workloads

    expected = workloads.expected()
    seed = workloads.DEFAULT_SEED if which == "default" else expected["held_out_seed"]
    recorded = expected["hashes"]
    got = {}
    for workload in workloads.WORKLOADS:
        sc = workloads.scenario(workload, seed)
        got[workload] = workloads.csv_hash(sc, workloads.build(workload, sc).run())
    assert got == {workload: recorded[workload][str(seed)]
                   for workload in workloads.WORKLOADS}


def test_benchmark_tracer_sees_every_dispatched_event(monkeypatch):
    """Re-armed events keep the traced callback `Engine.schedule` gave them,
    so each dispatch opens one `event:*` root span."""
    monkeypatch.syspath_prepend(str(SIMBENCH))
    import tracing
    import workloads

    sc = replace(workloads.scenario("star-seda", workloads.DEFAULT_SEED), horizon_s=100.0)
    tracer = tracing.Tracer().install()
    try:
        sim = workloads.build("star-seda", sc, trace=True)
        sim.run()
    finally:
        tracer.uninstall()
    event_ids = [nid for nid, name in enumerate(tracer.names) if name.startswith("event:")]
    spans = sum(tracer.name.tolist().count(nid) for nid in event_ids)
    assert spans == sim.engine.dispatched_count == 7976
