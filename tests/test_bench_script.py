"""`scripts/bench.py pairs` times only runs that reproduce their checkout's
recorded output, writes nothing when one does not, and summarizes `run_s`,
`setup_s` and `peak_rss_mb` alike; `record` and `pairs` name the checkouts
they ran."""

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


def stub_runs(bench, monkeypatch, times, bad=None, setups=None, rss=None):
    """Worker lines with `run_s` from `times[side]` in turn, and `setup_s`
    lists from `setups[side]` and `peak_rss_mb` from `rss[side]` when given;
    `bad` = (side, index, field, value) spoils one of them."""
    seen = {"parent": 0, "change": 0}

    def last_json_line(cmd, checkout):
        side = checkout.name
        i = seen[side]
        seen[side] += 1
        rec = {"run_s": times[side][i], "slowdown": 1.0, "hash": HASH,
               "status": "ok", "conserved": True,
               "setup_s": setups[side][i] if setups else [0.1, 0.1, 0.1],
               "peak_rss_mb": rss[side][i] if rss else 44.0}
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


def test_pairs_records_setup_medians(bench, tmp_path, monkeypatch, capsys):
    times = {"parent": [1.0] * 10, "change": [1.0] * 10}
    # each run's three set-ups, out of order; the change wins all but pair 4
    setups = {"parent": [[0.06, 0.05 + 0.001 * i, 0.04] for i in range(10)],
              "change": [[0.2, 0.01, 0.011 + 0.001 * i] for i in range(10)]}
    setups["change"][4] = [0.5, 0.5, 0.5]
    stub_runs(bench, monkeypatch, times, setups=setups)
    assert run_pairs(bench, tmp_path) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["pairs"]["paper-iamac@1"]
    assert rec["setup_s"]["parent"] == pytest.approx([0.05 + 0.001 * i for i in range(10)])
    assert rec["setup_s"]["change"][:4] == pytest.approx([0.011, 0.012, 0.013, 0.014])
    assert rec["setup_s"]["change"][4] == 0.5
    got = rec["setup_s_summary"]
    assert got["wins"] == 9
    assert got["parent_median"] == pytest.approx(0.0545)
    assert got["parent_iqr"] == pytest.approx(0.0055)
    assert got["ratio"] == pytest.approx(got["change_median"] / got["parent_median"])
    # the closing line shows both sides' interquartile ranges
    assert (f"IQR 0.00550 -> {got['change_iqr']:.5f}; peak_rss_mb"
            in capsys.readouterr().out.splitlines()[-1])
    # the run_s summary keeps its top-level place
    assert rec["run_s"] == times
    assert rec["wins"] == 0 and rec["ratio"] == 1.0


def test_pairs_records_peak_rss(bench, tmp_path, monkeypatch, capsys):
    times = {"parent": [1.0] * 10, "change": [0.9] * 10}
    rss = {"parent": [64.5 + 0.01 * i for i in range(10)],
           "change": [64.2 + 0.02 * i for i in range(10)]}
    rss["change"][7] = 65.0
    stub_runs(bench, monkeypatch, times, rss=rss)
    assert run_pairs(bench, tmp_path) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["pairs"]["paper-iamac@1"]
    assert rec["peak_rss_mb"] == rss
    got = rec["peak_rss_mb_summary"]
    assert got["wins"] == 9
    assert got["parent_median"] == pytest.approx(64.545)
    assert got["parent_iqr"] == pytest.approx(0.055)
    assert got["change_median"] == pytest.approx(64.29)
    assert got["ratio"] == pytest.approx(64.29 / 64.545)
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        f"peak_rss_mb 64.55 -> 64.29, IQR 0.055 -> {got['change_iqr']:.3f}")
    # the run_s summary keeps its top-level place
    assert rec["wins"] == 10


def test_pairs_records_each_checkout_path(bench, tmp_path, monkeypatch):
    stub_runs(bench, monkeypatch, {"parent": [1.0] * 10, "change": [0.9] * 10})
    assert run_pairs(bench, tmp_path) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["pairs"]["paper-iamac@1"]
    assert rec["checkouts"] == {side: str((tmp_path / side).resolve())
                                for side in ("parent", "change")}


def test_record_stores_the_checkout_path(bench, tmp_path, monkeypatch):
    change = tmp_path / "change"
    (change / "simbench" / "expected.json").write_text(json.dumps(
        {"hashes": {w: {str(s): HASH for s in bench.SEEDS} for w in bench.WORKLOADS}}))
    ran = []

    def last_json_line(cmd, checkout):
        ran.append(checkout)
        return {"failed": 0, "attempted": 3, "metrics": {"run_s": {"value": 1.0}}}

    monkeypatch.setattr(bench, "last_json_line", last_json_line)
    assert bench.main(["record", "--label", "t", "--name", "change",
                       "--checkout", str(change)]) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["change"]
    assert rec["checkout"] == str(change.resolve())
    assert set(ran) == {change.resolve()}
    assert len(rec["workloads"]) == len(bench.WORKLOADS) * len(bench.SEEDS)


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


@pytest.mark.parametrize("case, holds", [
    ("ten wins, far beyond the parent's IQR", True),
    ("nine wins, beyond the IQR", True),
    ("eight wins", False),
    ("ten wins inside the IQR", False),
])
def test_pairs_claims_a_gain_only_by_the_win_and_spread_rule(bench, tmp_path, monkeypatch,
                                                              capsys, case, holds):
    """A gain holds when the change wins at least 9 of 10 pairs and its median
    beats the parent's by more than the parent's interquartile range."""
    parent = [1.0 + 0.01 * i for i in range(10)]          # IQR 0.055
    if case.startswith("ten wins, far"):
        change = [p - 0.2 for p in parent]
    elif case.startswith("nine"):
        change = [p - 0.2 for p in parent]
        change[3] = parent[3] + 0.01
    elif case.startswith("eight"):
        change = [p - 0.2 for p in parent]
        change[3], change[6] = parent[3] + 0.01, parent[6]
    else:
        change = [p - 0.05 for p in parent]
    stub_runs(bench, monkeypatch, {"parent": parent, "change": change},
              rss={"parent": parent, "change": change})
    assert run_pairs(bench, tmp_path) == 0
    rec = json.loads((tmp_path / "BENCH_t.json").read_text())["pairs"]["paper-iamac@1"]
    assert rec["claim_holds"] is holds
    assert rec["peak_rss_mb_summary"]["claim_holds"] is holds
    # the set-ups are all equal: no win, no gain
    assert rec["setup_s_summary"]["claim_holds"] is False
    answer = "yes" if holds else "no"
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        f"paper-iamac@1: claim holds: run_s {answer}, setup_s no, peak_rss_mb {answer}; ")
