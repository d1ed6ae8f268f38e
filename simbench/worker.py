"""One benchmark run in a fresh process.

Sets the workload up (`--setups` times, keeping the last), runs it once,
hashes its CSV rows and prints one JSON line. With `--trace 1` the set-up and
run happen inside the span wrappers, the string trace is on, and the line
also carries the per-layer metrics; `--spans` names a file for the spans.

Host times are reported twice: as wall time (`*_wall_s`) and divided by the
host's slowdown while they were measured (`setup_s`, `run_s` and the traced
runs' per-layer `self_s`). On a shared host, other tenants slow this process by up to 2x
for seconds at a time; `HostSpeed` samples that slowdown during the timed
regions with a fixed pure-Python loop, which slows down with the simulator.

    python3 simbench/worker.py --workload paper-iamac --workload-seed 1
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from time import perf_counter

import workloads

PROBE_PERIOD_S = 0.02
PROBE_REF_S = 2.5e-4      # the probe loop's time on a quiet 2.1 GHz Xeon, Python 3.11


def _probe_loop():
    d = {}
    s = 0
    for i in range(3000):
        d[i & 255] = i
        s += d.get(i & 127, 0)
    return s


class HostSpeed:
    """While active, a SIGALRM every PROBE_PERIOD_S times `_probe_loop`.

    The handler touches no simulator state, so runs stay byte-identical (the
    CSV hash checks it). `timed` subtracts the probes' own time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _probe_loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """fn's result and its wall time without the probes in it."""
        t0, probes = perf_counter(), self.spent
        out = fn()
        return out, perf_counter() - t0 - (self.spent - probes)

    def slowdown(self):
        return statistics.fmean(self.samples) / PROBE_REF_S


def run_once(workload, seed, setups=1, traced=False, spans=None):
    sc = workloads.scenario(workload, seed)
    tracer = None
    if traced:
        from tracing import Tracer, layer_metrics
        tracer = Tracer().install()
    try:
        with HostSpeed() as speed:
            setup_wall_s = []
            for _ in range(setups):
                sim = None
                gc.collect()
                sim, wall = speed.timed(lambda: workloads.build(workload, sc, trace=traced))
                setup_wall_s.append(wall)
            gc.collect()
            result, run_wall_s = speed.timed(sim.run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    slowdown = speed.slowdown()
    eng = sim.engine
    out = {
        "workload": workload,
        "seed": seed,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "slowdown": slowdown,
        "probes": len(speed.samples),
        "setup_s": [w / slowdown for w in setup_wall_s],
        "run_s": run_wall_s / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hash": workloads.csv_hash(sc, result),
        "status": result["status"],
        "conserved": bool(result["conserved"]),
        "generated_packets": result["generated_packets"],
        "delivered_packets": result["delivered_packets"],
        "p95_latency_s": result["p95_latency_s"],
        "engine": {"scheduled": eng.scheduled_count,
                   "dispatched": eng.dispatched_count,
                   "cancelled": eng.cancelled_count},
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, sim)
        out["self_s"] = {layer: s / slowdown
                         for layer, s in tracer.self_time_by_layer().items()}
        out["spans"] = len(tracer.start)
        if spans:
            tracer.write(spans)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--workload-seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    out = run_once(args.workload, args.workload_seed, setups=max(1, args.setups),
                   traced=bool(args.trace), spans=args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
