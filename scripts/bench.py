#!/usr/bin/env python3
"""Record the benchmark trajectory in BENCH_<label>.json, beside this repo's
README, without touching `simbench/`.

    python3 scripts/bench.py record --label 8 --name change
    python3 scripts/bench.py record --label 8 --name parent --checkout ../parent
    python3 scripts/bench.py pairs --label 8 --name pairs --parent ../parent --workload paper-iamac

`record` runs `python3 simbench/run.py --workload W --workload-seed S` in the
checkout (default: this one) for every workload at workload seeds 1 and 3, and
stores under `--name` each run's final JSON line, the recorded CSV hashes, the
Python and numpy versions, the CPU count, the checkout's absolute path and its
`git rev-parse HEAD` (marked "-dirty" when its tracked files differ from that
commit).

`pairs` alternates ten single `simbench/worker.py` runs of one workload in the
parent checkout and ten in this one, each side first in every other pair, and
stores under `--name` every run's host-normalized `run_s`, its `setup_s` (the
median of the run's three timed set-ups), its `peak_rss_mb` and the host
slowdown the times were divided by. For `run_s` it stores each side's median
and interquartile range and how many pairs the change won, at the top level as
in earlier records; `setup_s_summary` and `peak_rss_mb_summary` hold the same
for `setup_s` and `peak_rss_mb`. Each summary's `claim_holds` says whether
the change claims a gain on that metric: it won at least CLAIM_WINS of the
pairs and its median beats the parent's by more than the parent's IQR. The
closing line prints each claim, ratio and win count, and the parent's and the
change's IQR of `setup_s` and `peak_rss_mb`.
`checkouts` holds each side's absolute path:
`peak_rss_mb` moves with the directory a checkout sits in, so memory compares
fairly only between alike paths. Run one workload seed per call. A run whose
CSV hash differs from its checkout's `simbench/expected.json`, whose status is
not "ok" or that does not conserve packets stops `pairs` with a non-zero exit
before anything is written.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper-iamac", "paper-adaptive-smac", "star-seda")
SEEDS = (1, 3)
PAIRS = 10
# pairs the change must win, of PAIRS, before it may claim a gain
CLAIM_WINS = 9


def revision(checkout):
    """`git rev-parse HEAD`, with "-dirty" when tracked files differ from it."""
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout).returncode
    return out.stdout.strip() + ("-dirty" if dirty else "")


def last_json_line(cmd, checkout):
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(args):
    checkout = Path(args.checkout).resolve()
    hashes = json.loads((checkout / "simbench" / "expected.json").read_text())["hashes"]
    runs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            line = last_json_line([sys.executable, "simbench/run.py", "--workload", workload,
                                   "--workload-seed", str(seed)], checkout)
            line["hash"] = hashes[workload][str(seed)]
            runs[f"{workload}@{seed}"] = line
            print(f"{workload} seed {seed}: failed {line['failed']}/{line['attempted']}, "
                  f"run_s {line['metrics']['run_s']['value']:.4f}", flush=True)
    return {
        "git_revision": revision(checkout),
        "checkout": str(checkout),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workloads": runs,
    }


def run_fault(rec, expected_hash):
    """Why a worker run cannot count as a timing of the right output, or None."""
    if rec["hash"] != expected_hash:
        return f"CSV hash {rec['hash']} is not the recorded {expected_hash}"
    if rec["status"] != "ok":
        return f"status {rec['status']!r}"
    if not rec["conserved"]:
        return "packets not conserved"
    return None


def pairs(args):
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.checkout).resolve()}
    expected = {
        side: json.loads((checkout / "simbench" / "expected.json").read_text())
        ["hashes"][args.workload][str(args.workload_seed)]
        for side, checkout in sides.items()}
    cmd = [sys.executable, "simbench/worker.py", "--workload", args.workload,
           "--workload-seed", str(args.workload_seed), "--setups", "3"]
    runs = {"parent": [], "change": []}
    setups = {"parent": [], "change": []}
    peak_rss = {"parent": [], "change": []}
    slowdown = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = list(sides.items())
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            rec = last_json_line(cmd, checkout)
            fault = run_fault(rec, expected[side])
            if fault is not None:
                raise SystemExit(f"pair {i}, {side} run: {fault}; nothing written")
            runs[side].append(rec["run_s"])
            setups[side].append(statistics.median(rec["setup_s"]))
            peak_rss[side].append(rec["peak_rss_mb"])
            slowdown[side].append(rec["slowdown"])
        print(f"pair {i}: run_s parent {runs['parent'][-1]:.4f} "
              f"change {runs['change'][-1]:.4f}, setup_s parent "
              f"{setups['parent'][-1]:.4f} change {setups['change'][-1]:.4f}", flush=True)
    return {
        "workload": args.workload,
        "workload_seed": args.workload_seed,
        "revisions": {side: revision(checkout) for side, checkout in sides.items()},
        "checkouts": {side: str(checkout) for side, checkout in sides.items()},
        "run_s": runs,
        "setup_s": setups,
        "peak_rss_mb": peak_rss,
        "slowdown": slowdown,
        **summary(runs),
        "setup_s_summary": summary(setups),
        "peak_rss_mb_summary": summary(peak_rss),
    }


def summary(values):
    """Each side's median and interquartile range of one metric, the ratio of
    the medians, how many pairs the change won (lower is better) and whether
    that is a gain to claim."""
    q1, parent_median, q3 = statistics.quantiles(values["parent"], n=4)
    c1, change_median, c3 = statistics.quantiles(values["change"], n=4)
    wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
    return {
        "parent_median": parent_median,
        "parent_iqr": q3 - q1,
        "change_median": change_median,
        "change_iqr": c3 - c1,
        "ratio": change_median / parent_median,
        "wins": wins,
        "claim_holds": wins >= CLAIM_WINS and parent_median - change_median > q3 - q1,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    par = sub.add_parser("pairs")
    par.add_argument("--parent", required=True)
    par.add_argument("--workload", choices=WORKLOADS, default="paper-iamac")
    par.add_argument("--workload-seed", type=int, default=1)
    for p in (rec, par):
        p.add_argument("--name", required=True)
        p.add_argument("--label", required=True)
        p.add_argument("--checkout", default=str(ROOT))
    args = ap.parse_args(argv)

    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text()) if path.exists() else {}
    if args.command == "record":
        bench[args.name] = record(args)
    else:
        key = f"{args.workload}@{args.workload_seed}"
        bench.setdefault(args.name, {})[key] = result = pairs(args)
        setup, rss = result["setup_s_summary"], result["peak_rss_mb_summary"]
        claims = ", ".join(f"{metric} {'yes' if got['claim_holds'] else 'no'}"
                           for metric, got in (("run_s", result), ("setup_s", setup),
                                               ("peak_rss_mb", rss)))
        print(f"{key}: claim holds: {claims}; "
              f"run_s ratio {result['ratio']:.3f}, {result['wins']}/{PAIRS} wins; "
              f"setup_s ratio {setup['ratio']:.3f}, {setup['wins']}/{PAIRS} wins, "
              f"IQR {setup['parent_iqr']:.5f} -> {setup['change_iqr']:.5f}; "
              f"peak_rss_mb {rss['parent_median']:.2f} -> {rss['change_median']:.2f}, "
              f"IQR {rss['parent_iqr']:.3f} -> {rss['change_iqr']:.3f}")
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
