"""The simulator benchmark: one workload, run as a batch of fresh processes.

    python3 simbench/run.py --workload paper-iamac --seconds 30 --trace 0

`--trace 0` starts one untraced run after another (`worker.py`, one process
each, one at a time) until `--seconds` have passed, checks every run's CSV
hash against `expected.json`, and reports the end-to-end metrics as medians.
`--trace 1` alternates untraced and traced runs for the same time and reports
the per-layer metrics instead. Host times are divided by the host's measured
slowdown (see `worker.py`); the wall times are printed beside them. Either way the last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. A full record
of the runs and of the host goes to `simbench/out/`.

`--workload-seed` picks the scenario seed (default 1; `expected.json` names
the held-out seed). `--seed` orders the traced and untraced runs of
`--trace 1`; the simulator's inputs are the workload's fixed scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUDGET_S = 170.0          # every run of the benchmark ends well inside 180 s
SETUPS_PER_RUN = 3        # set-ups timed in each process; the last one runs

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.latency_p95", "sim_s"),
]

PER_LAYER = [
    ("engine.scheduled", "count"), ("engine.dispatched", "count"),
    ("engine.cancelled", "count"), ("engine.cancel_share", "ratio"),
    ("engine.events_per_s", "1/s"), ("engine.self_time_share", "share"),
    ("topology.build_time_share", "share"), ("topology.sense_fanout", "nodes"),
    ("topology.influence_fanout", "nodes"),
    ("routing.estimate_links_time_share", "share"),
    ("routing.build_tree_time_share", "share"),
    ("routing.tree_depth", "hops"),
    ("channel.prr_calls", "count"), ("channel.ber_calls", "count"),
    ("channel.self_time_share", "share"),
    ("medium.tx.control", "count"), ("medium.tx.data", "count"),
    ("medium.tx.ack", "count"), ("medium.tx.recovery", "count"),
    ("medium.rx_delivered", "count"), ("medium.rx_corrupt", "count"),
    ("medium.rx_delivered_share", "ratio"), ("medium.callbacks_per_tx", "calls/tx"),
    ("medium.carrier_sense_calls", "count"), ("medium.self_time_share", "share"),
    ("simulation.set_radio_calls", "count"), ("simulation.radio_switches", "count"),
    ("simulation.self_time_share", "share"),
    ("energy.energy_mj_calls", "count"), ("energy.self_time_share", "share"),
    ("metrics.account_calls", "count"), ("metrics.queue_changed_calls", "count"),
    ("metrics.delivery_records", "count"), ("metrics.self_time_share", "share"),
    ("mac_iamac.rts_sent", "count"), ("mac_iamac.cts_trains", "count"),
    ("mac_iamac.grants", "count"),
    ("mac_iamac.deact.rts-for-other-pair", "count"),
    ("mac_iamac.deact.cts-for-other-pair", "count"),
    ("mac_iamac.deact.busy-at-cts-timer", "count"),
    ("mac_iamac.deact.undecodable-in-cts", "count"),
    ("mac_iamac.repicks", "count"), ("mac_iamac.contention_exhausted", "count"),
    ("mac_iamac.grant_use_share", "ratio"), ("mac_iamac.self_time_share", "share"),
    ("mac_smac.rts_sent", "count"), ("mac_smac.cts", "count"),
    ("mac_smac.no_cts", "count"), ("mac_smac.rx_timeouts", "count"),
    ("mac_smac.nav_sleeps", "count"), ("mac_smac.adaptive_wakes", "count"),
    ("mac_smac.self_time_share", "share"),
    ("recovery.sessions", "count"), ("recovery.data_tx", "count"),
    ("recovery.delivered", "count"), ("recovery.tx_per_delivered", "tx/pkt"),
    ("recovery.recovery_frames", "count"), ("recovery.self_time_share", "share"),
    ("packets.self_time_share", "share"),
    ("trace.overhead", "ratio"),
]


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_revision():
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": loadavg(),
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spawn(args, deadline):
    """One worker process, waited for; returns (record or None, error text)."""
    timeout = max(deadline - perf_counter(), 1.0)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "no JSON line from worker"


def check(rec, expected_hash):
    """Why a finished run counts as failed, or '' when it passed."""
    if rec["status"] != "ok":
        return f"status {rec['status']}"
    if not rec["conserved"]:
        return "packets not conserved"
    if rec["hash"] != expected_hash:
        return f"CSV hash {rec['hash'][:12]} differs from the recorded {expected_hash[:12]}"
    return ""


def timed(workload, wseed, seconds, expected_hash, deadline):
    start = perf_counter()
    runs = []
    while not runs or (perf_counter() - start < seconds and perf_counter() < deadline - 30):
        rec, err = spawn(["--workload", workload, "--workload-seed", str(wseed),
                          "--setups", str(SETUPS_PER_RUN)], deadline)
        runs.append({"rec": rec, "error": err or check(rec, expected_hash)})
    good = [r["rec"] for r in runs if not r["error"]]
    if not good:
        return runs, None
    first = good[0]
    metrics = {
        "setup_s": statistics.median(s for r in good for s in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "sim.delivery_ratio": first["delivered_packets"] / first["generated_packets"],
        "sim.latency_p95": first["p95_latency_s"],
    }
    return runs, metrics


def traced(workload, wseed, seconds, expected_hash, deadline, seed):
    order = random.Random(seed)
    spans = OUT / f"spans-{workload}-seed{wseed}.npz"
    start = perf_counter()
    runs = []
    while not runs or (perf_counter() - start < seconds and perf_counter() < deadline - 60):
        pair = [0, 1] if order.random() < 0.5 else [1, 0]
        for t in pair:
            args = ["--workload", workload, "--workload-seed", str(wseed), "--trace", str(t)]
            if t:
                args += ["--spans", str(spans)]
            rec, err = spawn(args, deadline)
            runs.append({"trace": t, "rec": rec, "error": err or check(rec, expected_hash)})
    reference = next((r["rec"]["layers"] for r in runs if r["trace"] and not r["error"]), {})
    for r in runs:
        if r["trace"] and not r["error"] and _counts(r["rec"]["layers"]) != _counts(reference):
            r["error"] = "traced counts differ between runs"
    plain = [r["rec"] for r in runs if not r["error"] and not r["trace"]]
    layered = [r["rec"] for r in runs if not r["error"] and r["trace"]]
    if not plain or not layered:
        return runs, None
    metrics = dict(layered[0]["layers"])
    for name in metrics:
        if _timing(name):
            metrics[name] = statistics.median(r["layers"][name] for r in layered)
    untraced_run_s = statistics.median(r["run_s"] for r in plain)
    metrics["engine.events_per_s"] = plain[0]["engine"]["dispatched"] / untraced_run_s
    metrics["trace.overhead"] = statistics.median(r["run_s"] for r in layered) / untraced_run_s
    return runs, metrics


def _timing(name):
    return name.endswith("time_share")


def _counts(layers):
    return {k: v for k, v in layers.items() if not _timing(k)}


def main(argv=None):
    deadline = perf_counter() + BUDGET_S
    if not (ROOT / "src" / "iamac_sim" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    OUT.mkdir(exist_ok=True)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)

    hashes = workloads.expected()["hashes"][args.workload]
    expected_hash = hashes.get(str(args.workload_seed))
    if expected_hash is None:
        print(f"no recorded CSV hash for {args.workload} at workload seed "
              f"{args.workload_seed}; recorded: {', '.join(sorted(hashes))}", file=sys.stderr)
        return 2

    env = environment()
    if args.trace:
        runs, metrics = traced(args.workload, args.workload_seed, args.seconds,
                               expected_hash, deadline, args.seed)
        units = PER_LAYER
    else:
        runs, metrics = timed(args.workload, args.workload_seed, args.seconds,
                              expected_hash, deadline)
        units = END_TO_END
    env["loadavg_end"] = loadavg()

    failed = sum(1 for r in runs if r["error"])
    for i, r in enumerate(runs):
        if r["error"]:
            print(f"run {i} failed: {r['error']}")
    if metrics is None:
        print("no run succeeded", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, workload seed {args.workload_seed}, "
          f"{len(runs)} runs, {failed} failed (runs_failed {failed / len(runs):.3f})")
    if not args.trace:
        good = [r["rec"] for r in runs if not r["error"]]
        for key in ("setup_s", "setup_wall_s", "run_s", "run_wall_s", "slowdown", "peak_rss_mb"):
            vals = [v for g in good for v in (g[key] if key.startswith("setup") else [g[key]])]
            q1, med, q3 = quartiles(vals)
            print(f"  {key:<14} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(vals)}")
    for name, unit in units:
        print(f"  {name:<36} {metrics[name]:.6g} {unit}")
    print(f"  env {json.dumps(env)}")

    record = {"args": vars(args), "env": env, "metrics": metrics, "runs": runs}
    name = f"result-{args.workload}-seed{args.workload_seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
