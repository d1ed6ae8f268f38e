"""The benchmark's tracer wraps simulator entry points by name; every name it
wraps must still exist, or the traced benchmark run breaks. Every workload
must also reproduce the CSV hashes the benchmark recorded for it, at the
default and at the held-out seed."""

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
