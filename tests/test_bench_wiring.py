"""The benchmark's tracer wraps simulator entry points by name; every name it
wraps must still exist, or the traced benchmark run breaks."""

from pathlib import Path

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
