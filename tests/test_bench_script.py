"""`scripts/bench.py pairs` times only runs that reproduce their checkout's
recorded output, and writes nothing when one does not."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
HASH = "ab" * 32


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "revision", lambda checkout: "0" * 40)
    for side in ("parent", "change"):
        (tmp_path / side / "simbench").mkdir(parents=True)
        (tmp_path / side / "simbench" / "expected.json").write_text(
            json.dumps({"hashes": {"paper-iamac": {"1": HASH}}}))
    return module


def stub_runs(bench, monkeypatch, times, bad=None):
    """Worker lines with `run_s` from `times[side]` in turn; `bad` = (side,
    index, field, value) spoils one of them."""
    seen = {"parent": 0, "change": 0}

    def last_json_line(cmd, checkout):
        side = checkout.name
        i = seen[side]
        seen[side] += 1
        rec = {"run_s": times[side][i], "slowdown": 1.0, "hash": HASH,
               "status": "ok", "conserved": True}
        if bad is not None and bad[:2] == (side, i):
            rec[bad[2]] = bad[3]
        return rec

    monkeypatch.setattr(bench, "last_json_line", last_json_line)


def run_pairs(bench, tmp_path):
    return bench.main(["pairs", "--label", "t", "--name", "pairs",
                       "--parent", str(tmp_path / "parent"),
                       "--checkout", str(tmp_path / "change")])


def test_pairs_records_both_sides_iqr(bench, tmp_path, monkeypatch):
    times = {"parent": [1.0 + 0.01 * i for i in range(10)],
             "change": [0.8 + 0.02 * i for i in range(10)]}
    stub_runs(bench, monkeypatch, times)
    assert run_pairs(bench, tmp_path) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["pairs"]["paper-iamac@1"]
    assert rec["run_s"] == times
    assert rec["parent_iqr"] == pytest.approx(0.055)
    assert rec["change_iqr"] == pytest.approx(0.11)
    assert rec["wins"] == 10


@pytest.mark.parametrize("bad", [
    ("change", 3, "hash", "cd" * 32),
    ("parent", 0, "hash", "cd" * 32),
    ("change", 9, "status", "disjoint"),
    ("parent", 5, "conserved", False),
])
def test_pairs_refuses_a_run_with_the_wrong_output(bench, tmp_path, monkeypatch, bad):
    stub_runs(bench, monkeypatch, {"parent": [1.0] * 10, "change": [0.9] * 10}, bad)
    with pytest.raises(SystemExit) as exc:
        run_pairs(bench, tmp_path)
    assert exc.value.code not in (0, None)
    assert not (tmp_path / "BENCH_t.json").exists()
