import hashlib
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamac_sim import cli, harness
from iamac_sim.cli import main
from iamac_sim.config import (MAX_AREA_SIDE_M, MAX_NODES, TOPOLOGY_BUDGET_BYTES,
                              ConfigError, Scenario, parse_scenario)
from iamac_sim.harness import (ANALYTICS_COLUMNS, RUN_COLUMNS, SWEEP_COLUMNS,
                               analytic_report, isotonic_fit, p0_table,
                               rows_to_csv, run_experiment, sweep,
                               trend_interior_max, trend_monotone)
from iamac_sim.config import desk_preset
from iamac_sim.frames import MAX_TIME_FRAME, MAX_TIME_FRAMES
from iamac_sim.simulation import Simulation


# -- configuration -------------------------------------------------------------

def test_empty_scenario_file_yields_reference_defaults():
    sc = parse_scenario("")
    assert sc.node_count == 200
    assert sc.area == (100.0, 100.0)
    assert sc.output_power_dbm == 0.0
    assert sc.payload_bytes == 29
    assert sc.header_bytes == 16
    assert sc.ack_len == 23
    assert sc.radio_speed == 19200.0
    assert sc.noise_floor == -105.0
    assert sc.path_loss_exponent == 4.0
    assert sc.battery_mah == 2400.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="fooo"):
        parse_scenario("fooo = 3\n")


def test_removed_buffer_key_rejected():
    with pytest.raises(ConfigError, match="tx_buffer"):
        parse_scenario("tx_buffer = 64")


def test_zero_sampling_interval_rejected():
    with pytest.raises(ConfigError, match="sampling_interval_s"):
        parse_scenario("sampling_interval_s = 0\n")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="node_count"):
        parse_scenario("node_count = soup\n")


def test_scenario_sizes_are_bounded_in_validate():
    """The node count is bounded by the budget of the topology's nine n x n
    float64 matrices, each area side so that squared distances stay finite.
    `validate` checks both without building a topology."""
    assert 9 * 8 * MAX_NODES ** 2 <= TOPOLOGY_BUDGET_BYTES < 9 * 8 * (MAX_NODES + 1) ** 2
    replace(Scenario(), node_count=MAX_NODES,
            area=(MAX_AREA_SIDE_M, MAX_AREA_SIDE_M)).validate()
    with pytest.raises(ConfigError, match="node_count"):
        replace(Scenario(), node_count=MAX_NODES + 1).validate()
    for area in ((2 * MAX_AREA_SIDE_M, 1.0), (1.0, 1e200)):
        with pytest.raises(ConfigError, match="area"):
            replace(Scenario(), area=area).validate()


def test_super_frame_length_is_bounded_in_validate():
    """A cycle schedules two events per Time Frame at its start, so the
    Super Frame's Time Frame count is bounded; `validate` only builds the
    plan, nothing runs."""
    longest = MAX_TIME_FRAMES * MAX_TIME_FRAME
    sc = parse_scenario(f"frame_s = {longest}\nhorizon_s = {2 * longest}\n")
    assert sc.frame_plan(None).n_time_frames == MAX_TIME_FRAMES
    with pytest.raises(ConfigError, match="frame_s"):
        parse_scenario("frame_s = 1e9\nhorizon_s = 2e9\n")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(key=st.sampled_from(sorted(f.name for f in fields(Scenario))),
       value=st.one_of(st.text(), st.integers(-10**400, 10**400).map(str),
                         st.floats().map(str)))
def test_any_value_of_a_known_key_gives_a_scenario_or_config_error(key, value):
    try:
        sc = parse_scenario(f"{key} = {value}\n")
    except ConfigError:
        return
    assert isinstance(sc, Scenario)


def test_preset_then_overrides():
    sc = parse_scenario("preset = desk\nseed = 42\n")
    assert sc.node_count == 50
    assert sc.seed == 42


def test_area_parsing_variants():
    assert parse_scenario("area = 70x70\n").area == (70.0, 70.0)
    assert parse_scenario("area = 50, 60\n").area == (50.0, 60.0)


def test_comments_and_blanks_ignored():
    sc = parse_scenario("# comment\n\nseed = 5  # trailing\n")
    assert sc.seed == 5


# -- CSV schema -----------------------------------------------------------------

def test_csv_headers_are_stable():
    assert RUN_COLUMNS == ["scenario", "protocol", "recovery", "frame_s",
                           "seed", "metric", "value"]
    assert SWEEP_COLUMNS == ["param", "value", "seed", "metric",
                             "metric_value", "status"]
    assert ANALYTICS_COLUMNS == ["ber", "arq_mpf", "seda_mpf",
                                 "arq_payload_bytes", "seda_payload_bytes"]


def test_same_seed_byte_identical_csv():
    sc = desk_preset(horizon_s=20.0, seed=4, stop_on_first_death=False)
    _, rows1 = run_experiment(sc)
    _, rows2 = run_experiment(sc)
    assert rows_to_csv(RUN_COLUMNS, rows1) == rows_to_csv(RUN_COLUMNS, rows2)


def test_sweep_concurrency_invisible():
    sc = desk_preset(horizon_s=8.0, stop_on_first_death=False)
    _, serial = sweep(sc, "sampling_interval_s", [5.0, 10.0], [3], workers=0)
    _, parallel = sweep(sc, "sampling_interval_s", [5.0, 10.0], [3], workers=2)
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records `max_workers`, runs the
    points in this process and starts none."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, values, pool_size", [
    (64, [5.0, 10.0], 2),
    (3, [5.0, 10.0, 20.0, 40.0], 3),
    (8, [5.0], None),
    (1, [5.0, 10.0], None),
])
def test_sweep_pool_is_no_larger_than_its_points(workers, values, pool_size, monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_sweep_point", lambda point: (point[2], point[3], {
        "status": "ok"}))
    table, _ = sweep(Scenario(), "sampling_interval_s", values, [3], workers=workers)
    assert sorted(table) == [(v, 3) for v in values]
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def test_sweep_records_disjoint_points_and_continues():
    sc = desk_preset(horizon_s=8.0, stop_on_first_death=False)
    table, rows = sweep(sc, "output_power_dbm", [-12.0, 8.0], [3])
    assert table[(-12.0, 3)]["status"] == "disjoint"
    assert table[(8.0, 3)]["status"] == "ok"


def test_degenerate_sweep_equals_single_run():
    from dataclasses import replace

    base = desk_preset(horizon_s=8.0, stop_on_first_death=False)
    table, _ = sweep(base, "sampling_interval_s", [5.0], [3])
    single, _ = run_experiment(replace(base, sampling_interval_s=5.0, seed=3).validate())
    swept = dict(table[(5.0, 3)])
    swept.pop("status_code", None)
    single.pop("status_code", None)
    assert swept == single


# -- analytics -------------------------------------------------------------------

def test_analytic_report_reference_row():
    rows = analytic_report([0.0, 1e-3])
    assert rows[0][1] == "35" and rows[0][2] == "76"
    for row in rows:
        assert int(row[4]) >= int(row[3])


def test_p0_table_first_row_is_one():
    rows = p0_table([8])
    w, n, paper, distinct = rows[0]
    assert (w, n) == ("8", "1")
    assert float(paper) == 1.0 and float(distinct) == 1.0


# -- trend helpers ------------------------------------------------------------------

def test_isotonic_fit_pools_violators():
    assert isotonic_fit([1.0, 3.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]


def test_trend_monotone_tolerates_noise():
    assert trend_monotone([1.0, 2.1, 1.95, 3.0], increasing=True)
    assert not trend_monotone([3.0, 1.0, 2.0, 0.2], increasing=True)
    assert trend_monotone([5.0, 4.0, 4.1, 2.0], increasing=False)


def test_trend_interior_max():
    assert trend_interior_max([1.0, 3.0, 2.0])
    assert not trend_interior_max([3.0, 2.0, 1.0])
    assert not trend_interior_max([1.0, 2.0, 3.0])


# -- CLI ------------------------------------------------------------------------------

def test_cli_rejects_bad_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fooo = 1\n")
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("setting", ["area=100", "frame_s=0", "w=100", "listen_ma=0",
                                     "frame_s=nan", "broadcast_count=0", "ack_len=0",
                                     "battery_mah=-1", "battery_mah=0", "payload_bytes=0",
                                     "payload_bytes=-5", "header_bytes=-16",
                                     "retry_cap=-1", "output_power_dbm=4000",
                                     "noise_floor=1e300", "cs_threshold=1e300",
                                     "sampling_interval_s=1e-9", "noise_floor=-4000",
                                     "output_power_dbm=3000", "preset=paper",
                                     "seed=9\npreset=paper", "report_rounds=0",
                                     "seed=-1", "d0=1e300", "pl_d0=-1e300",
                                     "shadowing_sigma=1e10", "area=1e200,1e200",
                                     "node_count=100000"])
def test_cli_malformed_scenario_is_a_config_error(setting, capsys):
    assert main(["run", "--preset", "desk", "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert setting.split("=")[0] in err


def test_cli_scenario_file_with_preset_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("seed = 4\nhorizon_s = 20\n")
    assert main(["run", str(cfg), "--preset", "desk"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "preset" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_set_items_apply_together(command, tmp_path):
    """--set items are validated once, after all of them apply: a horizon
    shorter than the default frame is fine with the shorter frame set after it."""
    items = ["horizon_s=0.9", "frame_s=0.4"]
    csv = "metrics.csv" if command == "run" else "sweep.csv"
    extra = [] if command == "run" else ["--param", "output_power_dbm", "--values", "8"]
    outputs = []
    for order in (items, items[::-1]):
        out = tmp_path / "-".join(order)
        argv = [command, "--preset", "desk", "--seed", "4", "--out", str(out)] + extra
        for item in order:
            argv += ["--set", item]
        assert main(argv) == 0
        outputs.append((out / csv).read_bytes())
    assert outputs[0] == outputs[1]


def test_run_csv_is_identical_across_processes_and_hash_seeds():
    """`Medium.active_data` is a set of objects hashed by id(); no output may
    depend on string-hash or set iteration order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    cmd = [sys.executable, "-m", "iamac_sim", "run", "--preset", "desk", "--seed", "4",
           "--set", "horizon_s=30", "--set", "protocol=adaptive-smac"]
    digests = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(cmd, env=env, capture_output=True, check=True).stdout
        assert out.startswith(b"scenario,protocol,")
        digests.append(hashlib.sha256(out).hexdigest())
    assert digests[0] == digests[1]


# `desk` seed 4 for 60 s: every protocol and recovery, and a 20 s super frame
# whose mid-frame Synch slots the benchmark workloads never reach
PINNED_RUN_CSV = {
    ("iamac", "arq", 1.0): "dc9d1dcf48c1ea2d9039f73b3885dbb7e6f8e9be78b0ccb3642fc40c64bfde5a",
    ("iamac", "seda", 1.0): "a47fc7899a9ec57840a4475970535066a999583aa367c6c7b566e03808df8f12",
    ("smac", "arq", 1.0): "8b0a441e1ad0b5661b5deac94f9a9ee9c2a86aa104af94cdbd4fb99b3937ecb8",
    ("smac", "seda", 1.0): "80a757c161404633a577acdcd3998313061d077db1115554fbd54309de81222e",
    ("adaptive-smac", "arq", 1.0):
        "cbdd72f0a6b7e9fad51b585d900dbf016e09be0b28f21b7c3c80b120676a7063",
    ("adaptive-smac", "seda", 1.0):
        "7592f5d080ac9373a9e2f9325874e79e7215d096f0c0f26749db7b4341fb60cd",
    ("iamac", "arq", 20.0): "80c6f71748868087b853ffe1b4cb752829ca799be7426e578a3b54229967c50e",
}


def test_repeated_runs_in_one_process_number_packets_alike():
    """Data packet ids belong to their run: two identical runs in one process
    leave the same ids in their queues."""
    queued = []
    for _ in range(2):
        sim = Simulation(desk_preset(seed=4, horizon_s=30.0, stop_on_first_death=False))
        sim.run()
        queued.append([p.uid for node in sim.nodes for p in node.queue])
    assert queued[0] and len(set(queued[0])) == len(queued[0])
    assert queued[0] == queued[1]


def test_run_csv_matches_pinned_digests():
    got = {}
    for protocol, recovery, frame_s in PINNED_RUN_CSV:
        sc = desk_preset(seed=4, horizon_s=60.0, stop_on_first_death=False,
                         protocol=protocol, recovery=recovery, frame_s=frame_s)
        _, rows = run_experiment(sc)
        got[protocol, recovery, frame_s] = hashlib.sha256(
            rows_to_csv(RUN_COLUMNS, rows).encode("utf-8")).hexdigest()
    assert got == PINNED_RUN_CSV


# the same runs' MAC decisions: SHA-256 of `repr(sim.trace_log)`; S-MAC's
# trace does not depend on the recovery procedure, which IAMAC transfers use
PINNED_TRACE_LOG = {
    ("iamac", "arq"): "5047216f178ff2f059bb3ccd228770cec8f1cb96e3c05e70704ea6e1c0d52da5",
    ("iamac", "seda"): "80ea79e56dba2c9fb473bc02743a54ce8e5df1fef321bdc124936ed729519d2a",
    ("smac", "arq"): "9fe299fecdac7ad89e0f1a68b364378f665ee09e5546810543bfcfa550d9f919",
    ("smac", "seda"): "9fe299fecdac7ad89e0f1a68b364378f665ee09e5546810543bfcfa550d9f919",
    ("adaptive-smac", "arq"): "bca5118e4b8252fa9181a1aa1361f300842b22be57e02e512d87f694b344911c",
    ("adaptive-smac", "seda"): "bca5118e4b8252fa9181a1aa1361f300842b22be57e02e512d87f694b344911c",
}


def test_trace_log_matches_pinned_digests():
    got, csv = {}, {}
    for protocol, recovery in PINNED_TRACE_LOG:
        sc = desk_preset(seed=4, horizon_s=60.0, stop_on_first_death=False,
                         protocol=protocol, recovery=recovery)
        _, rows, sim = run_experiment(sc, trace=True, return_sim=True)
        got[protocol, recovery] = hashlib.sha256(
            repr(sim.trace_log).encode("utf-8")).hexdigest()
        csv[protocol, recovery] = hashlib.sha256(
            rows_to_csv(RUN_COLUMNS, rows).encode("utf-8")).hexdigest()
    assert got == PINNED_TRACE_LOG
    # recording never perturbs a run: the traced CSV is the untraced one
    assert csv == {key: PINNED_RUN_CSV[key + (1.0,)] for key in PINNED_TRACE_LOG}


def test_cli_reports_disjoint(tmp_path):
    code = main(["run", "--preset", "paper-density", "--seed", "1",
                 "--set", "output_power_dbm=-12",
                 "--set", "horizon_s=5",
                 "--out", str(tmp_path)])
    assert code == 3


def test_cli_fixtures_pass():
    assert main(["fixture", "fig2"]) == 0
    assert main(["fixture", "fig6"]) == 0


def test_cli_analytics_writes_csv(tmp_path):
    assert main(["analytics", "--out", str(tmp_path), "--p0"]) == 0
    text = (tmp_path / "analytics.csv").read_text()
    assert text.splitlines()[0] == ",".join(ANALYTICS_COLUMNS)
    assert (tmp_path / "p0.csv").exists()


# `analytics --p0` output digests, recorded before the closed forms read the
# scenario directly; the second case moves every recovery size they use
PINNED_ANALYTICS_CSV = {
    (): {"analytics.csv": "368b05e034b71d81c4e2c4bca1a4dd245a8d07b639c1d175e4493137bb4af431",
         "p0.csv": "20139d487e3b66933f1450a3d49d26f023ce80a6248726794d85477dc0fa748a"},
    ("ack_len=40", "gamma_s=0.1", "block_overhead=4"): {
        "analytics.csv": "04a5cb00cdbedd184e7fbd377a8be2cbab5e82596621bde25f6573a58608eac0",
        "p0.csv": "20139d487e3b66933f1450a3d49d26f023ce80a6248726794d85477dc0fa748a"},
}


@pytest.mark.parametrize("overrides", list(PINNED_ANALYTICS_CSV))
def test_cli_analytics_csv_matches_pinned_digests(overrides, tmp_path):
    argv = ["analytics", "--p0", "--out", str(tmp_path)]
    for setting in overrides:
        argv += ["--set", setting]
    assert main(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("analytics.csv", "p0.csv")}
    assert got == PINNED_ANALYTICS_CSV[overrides]


def test_cli_run_writes_metrics(tmp_path):
    code = main(["run", "--preset", "desk", "--seed", "4",
                 "--set", "horizon_s=10", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(RUN_COLUMNS)
    assert any(",frames," in ln for ln in lines)


def test_cli_run_writes_bootstrap_tree(tmp_path):
    assert main(["run", "--preset", "desk", "--seed", "4",
                 "--set", "horizon_s=10", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "tree.txt").read_bytes()
    sim = Simulation(desk_preset(seed=4))
    sim.bootstrap_routing()
    edges = [(st.node, st.parent) for st in sim.route_states if st.parent is not None]
    assert len(edges) == 49
    assert text.decode().splitlines() == [f"{child} {parent}" for child, parent in edges]
    assert hashlib.sha256(text).hexdigest() == (
        "7b6155f207771be6a3624edcb78b2e5f1f8afc81690088e4df1745b838945a68")


def test_cli_run_writes_the_trace(tmp_path):
    assert main(["run", "--preset", "desk", "--seed", "4", "--set", "horizon_s=10",
                 "--trace", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "trace.txt").read_bytes()
    sim = Simulation(desk_preset(seed=4, horizon_s=10.0), trace=True)
    sim.run()
    lines = text.decode().splitlines()
    assert len(lines) == len(sim.trace_log) == 390
    t, node, label, detail = sim.trace_log[0]
    assert lines[0] == f"{t:.6f} node={node} {label} {detail}"
    assert hashlib.sha256(text).hexdigest() == (
        "c7ac58e5b8ebb919920acb2eb0e23872bced02615aa3ecd4c1fc829988231caf")


def test_cli_trace_without_out_is_a_config_error(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    # the record would have nowhere to go
    assert main(["run", "--preset", "desk", "--seed", "4", "--set", "horizon_s=10",
                 "--trace"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert "--out" in captured.err
    assert captured.out == ""


def star_scenario():
    return desk_preset(seed=1, node_count=7, area=(20.0, 20.0), frame_s=10.0,
                       horizon_s=60.0, sampling_interval_s=0.08, recovery="seda",
                       shadowing_sigma=0.0, battery_mah=2400.0, stop_on_first_death=False)


def test_star_simulation_records_when_traced():
    sc = star_scenario()
    traced = harness.star_simulation(sc, trace=True)
    plain = harness.star_simulation(sc)
    res = traced.run()
    assert res == plain.run()
    assert traced.trace_log and traced.data_log
    # every data frame of the six frames, each resolved by its addressee
    assert {f for *_, f, _ in traced.data_log} == set(range(res["frames"])) == set(range(6))
    assert all(cs is not None for *_, cs in traced.data_log)
    assert plain.trace_log == [] and plain.data_log == []


def test_trace_switch_set_after_construction_records_the_same():
    sc = star_scenario()
    traced = harness.star_simulation(sc, trace=True)
    late = harness.star_simulation(sc)
    late.trace_enabled = True
    assert late.run() == traced.run()
    assert late.trace_log == traced.trace_log
    assert late.data_log == traced.data_log


SWEEP_DESK = ["sweep", "--preset", "desk", "--set", "horizon_s=20"]


@pytest.mark.parametrize("argv, named", [
    (SWEEP_DESK + ["--param", "frame_sx", "--values", "1,2"], "frame_sx"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,abc"], "abc"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,0"], "frame_s"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2", "--seeds", "1,x"], "'x'"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2", "--trend", "increasing"],
     "metric ''"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2",
                   "--trend", "increasing:throughput_bsp"], "throughput_bsp"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2", "--trend", "sideways:x"],
     "sideways"),
    (["analytics", "--ber-grid", "0,zz"], "zz"),
    (["analytics", "--ber-grid", "0,1.5"], "1.5"),
    (SWEEP_DESK + ["--param", "seed", "--values", "2,7"], "--seeds"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2", "--seeds", "1,-1"], "seed"),
    (SWEEP_DESK + ["--param", "frame_s", "--values", "1,2", "--workers", "-1"], "--workers"),
    (SWEEP_DESK + ["--param", "area", "--values", "5"], "area"),
])
def test_cli_malformed_sweep_and_analytics_arguments(argv, named, tmp_path, capsys,
                                                     monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    # rejected before any point runs, so nothing is written
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
    assert list(tmp_path.iterdir()) == []


def test_cli_trend_over_no_usable_point_fails(tmp_path, capsys):
    # both powers leave the network disjoint: no point feeds the trend
    code = main(["sweep", "--preset", "desk", "--param", "output_power_dbm",
                 "--values=-30,-25", "--trend", "increasing:throughput_bps",
                 "--out", str(tmp_path)])
    assert code == 4
    assert "FAIL over []" in capsys.readouterr().err


def test_cli_sweep_trend_gate(tmp_path):
    code = main(["sweep", "--preset", "desk", "--param", "frame_s",
                 "--values", "1,2,5", "--seeds", "3",
                 "--set", "horizon_s=30", "--set", "stop_on_first_death=false",
                 "--trend", "decreasing:mean_duty_cycle",
                 "--out", str(tmp_path)])
    assert code == 0


# -- performance budget ----------------------------------------------------------------

def test_twenty_node_smoke_completes_quickly():
    sc = desk_preset(node_count=20, area=(40.0, 40.0), horizon_s=300.0,
                     sampling_interval_s=10.0, seed=6, stop_on_first_death=False)
    start = time.time()
    res = Simulation(sc).run()
    elapsed = time.time() - start
    assert res["status"] == "ok"
    assert elapsed < 10.0
