"""Command-line front end: run / sweep / analytics / fixture.

Exit codes: 0 success, 2 configuration error, 3 disjoint network,
4 fixture or trend failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .config import ConfigError, PRESETS, Scenario, load_scenario, parse_scenario
from .harness import (ANALYTICS_COLUMNS, RUN_COLUMNS, RUN_METRICS, SWEEP_COLUMNS,
                      analytic_report, p0_table, rows_to_csv, run_experiment,
                      sweep, trend_interior_max, trend_monotone)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISJOINT = 3
EXIT_CHECK = 4

TRENDS = {
    "increasing": lambda xs: trend_monotone(xs, increasing=True),
    "decreasing": lambda xs: trend_monotone(xs, increasing=False),
    "interior-max": trend_interior_max,
}


def _load(args):
    """The base is picked once, by a scenario file or by --preset; the --set
    items and --seed then override scenario fields together, validated once."""
    if args.scenario and args.preset:
        raise ConfigError("--preset: a scenario file picks its own base "
                          "(use a 'preset = name' line in it)")
    if args.scenario:
        sc = load_scenario(args.scenario)
    elif args.preset:
        sc = PRESETS[args.preset]()
    else:
        sc = Scenario()
    lines = []
    for item in args.set or []:
        key, eq, _ = item.partition("=")
        if not eq or item.splitlines() != [item]:
            raise ConfigError(f"--set expects one key=value, got {item!r}")
        if key.strip() == "preset":
            raise ConfigError("--set preset: --set overrides scenario fields only; "
                              "pick the base with --preset")
        lines.append(item + "\n")
    if args.seed is not None:
        lines.append(f"seed = {args.seed}\n")
    return parse_scenario("".join(lines), base=sc)


def _write(path, text):
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args):
    if args.trace and not args.out:
        raise ConfigError("--trace: the record is written to trace.txt under --out; "
                          "give --out")
    sc = _load(args)
    result, rows, sim = run_experiment(sc, name=args.name, trace=args.trace,
                                       return_sim=True)
    csv = rows_to_csv(RUN_COLUMNS, rows)
    out = os.path.join(args.out, "metrics.csv") if args.out else None
    _write(out, csv)
    if args.out:
        edges = [f"{st.node} {st.parent}\n"
                 for st in sim.route_states or [] if st.parent is not None]
        _write(os.path.join(args.out, "tree.txt"), "".join(edges))
        if args.trace:
            lines = [f"{t:.6f} node={n} {label} {detail}\n"
                     for t, n, label, detail in sim.trace_log]
            _write(os.path.join(args.out, "trace.txt"), "".join(lines))
    summary = (
        f"status={result['status']} frames={result['frames']} "
        f"delivered={result['delivered_packets']} "
        f"throughput={result['throughput_bps']:.1f} B/s "
        f"lifetime={result['lifetime_s']:.1f}s"
        f"{' (censored)' if result['lifetime_censored'] else ''} "
        f"duty={result['mean_duty_cycle']:.3f}\n"
    )
    sys.stderr.write(summary)
    if result["status"] == "disjoint":
        return EXIT_DISJOINT
    return EXIT_OK


def _parse_values(raw, option, kinds=(int, float)):
    """Comma-separated numbers, each read as the first of `kinds` that parses it."""
    vals = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        for kind in kinds:
            try:
                vals.append(kind(chunk))
                break
            except ValueError:
                pass
        else:
            raise ConfigError(f"{option}: cannot parse {chunk!r}")
    return vals


def cmd_sweep(args):
    # every argument is checked before the first point runs
    sc = _load(args)
    if args.param not in {f.name for f in fields(Scenario)}:
        raise ConfigError(f"--param: unknown scenario field {args.param!r}")
    if args.param == "seed":
        raise ConfigError("--param seed: every point runs each of --seeds; list seeds there")
    values = _parse_values(args.values, "--values")
    for value in values:
        replace(sc, **{args.param: value}).validate()
    seeds = _parse_values(args.seeds, "--seeds", kinds=(int,))
    for seed in seeds:
        replace(sc, seed=seed).validate()
    if args.workers < 0:
        raise ConfigError(f"--workers: must be at least 0, got {args.workers}")
    if args.trend:
        kind, _, metric = args.trend.partition(":")
        if kind not in TRENDS:
            raise ConfigError(f"--trend: unknown trend {kind!r}")
        if metric not in RUN_METRICS:
            raise ConfigError(f"--trend: unknown metric {metric!r}")
    table, rows = sweep(sc, args.param, values, seeds, workers=args.workers)
    csv = rows_to_csv(SWEEP_COLUMNS, rows)
    out = os.path.join(args.out, "sweep.csv") if args.out else None
    _write(out, csv)
    if args.trend:
        series = []
        for v in values:
            pts = [table[(v, s)].get(metric) for s in seeds
                   if table[(v, s)]["status"] == "ok"
                   and table[(v, s)].get(metric) is not None]
            if pts:
                series.append(sum(pts) / len(pts))
        # a trend over no usable point cannot pass
        ok = bool(series) and TRENDS[kind](series)
        sys.stderr.write(f"trend {args.trend}: {'pass' if ok else 'FAIL'} over {series}\n")
        if not ok:
            return EXIT_CHECK
    return EXIT_OK


def cmd_analytics(args):
    sc = _load(args)
    grid = _parse_values(args.ber_grid, "--ber-grid", kinds=(float,))
    for ber in grid:
        if not 0.0 <= ber < 1.0:
            raise ConfigError(f"--ber-grid: bit error rate must be in [0, 1), got {ber!r}")
    rows = analytic_report(grid, d_s=args.ds, sc=sc)
    csv = rows_to_csv(ANALYTICS_COLUMNS, rows)
    out = os.path.join(args.out, "analytics.csv") if args.out else None
    _write(out, csv)
    if args.p0:
        p0csv = rows_to_csv(["w", "n", "p0_paper", "p0_distinct"],
                            p0_table([sc.w]))
        p0out = os.path.join(args.out, "p0.csv") if args.out else None
        _write(p0out, p0csv)
    return EXIT_OK


def cmd_fixture(args):
    from .fixtures import FIG6_GOLDEN, run_fig2, run_fig6

    if args.name == "fig2":
        cs_adaptive, _, _ = run_fig2("adaptive-smac")
        cs_iamac, _, _ = run_fig2("iamac")
        ok = cs_adaptive >= 1 and cs_iamac == 0
        sys.stderr.write(
            f"fig2: adaptive-smac CS_C={cs_adaptive} (want >=1), "
            f"iamac CS_C={cs_iamac} (want 0): {'pass' if ok else 'FAIL'}\n")
        return EXIT_OK if ok else EXIT_CHECK
    if args.name == "fig6":
        transcript, _, _ = run_fig6()
        got = transcript[:len(FIG6_GOLDEN)]
        ok = got == FIG6_GOLDEN
        if ok:
            sys.stderr.write("fig6: transcript matches golden\n")
        else:
            sys.stderr.write("fig6: transcript mismatch\n")
            for exp, act in zip(FIG6_GOLDEN, got + [None] * len(FIG6_GOLDEN)):
                mark = "ok " if exp == act else "DIFF"
                sys.stderr.write(f"  {mark} expected={exp} actual={act}\n")
        return EXIT_OK if ok else EXIT_CHECK
    raise ConfigError(f"unknown fixture {args.name!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="iamac-sim",
        description="Discrete-event simulator of a duty-cycled, "
                    "interference-avoiding sensor MAC with baselines.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", nargs="?", help="scenario file (key = value lines)")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="base preset (not with a scenario file)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one scenario field")
        p.add_argument("--out", default=None, help="output directory (default stdout)")

    p = sub.add_parser("run", help="single experiment")
    common(p)
    p.add_argument("--name", default="run")
    p.add_argument("--trace", action="store_true",
                   help="record the run (README: Recording a run) and write its "
                        "MAC decisions to trace.txt under --out, which it needs")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="parameter sweep")
    common(p)
    p.add_argument("--param", required=True, help="swept scenario field")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--trend", default=None,
                   metavar="{increasing,decreasing,interior-max}:METRIC")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("analytics", help="closed-form capacity report")
    common(p)
    p.add_argument("--ber-grid", default="0,1e-5,1e-4,1e-3,1e-2")
    p.add_argument("--ds", type=float, default=1.0)
    p.add_argument("--p0", action="store_true", help="also emit the contention table")
    p.set_defaults(fn=cmd_analytics)

    p = sub.add_parser("fixture", help="replay a hand-built scenario")
    p.add_argument("name", choices=["fig2", "fig6"])
    p.set_defaults(fn=cmd_fixture)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
