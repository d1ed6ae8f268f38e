#!/usr/bin/env python3
"""Check that a change keeps every byte a run computes, over a fixed corpus.

    python3 scripts/digest.py record [--workers N]
    python3 scripts/digest.py check [--workers N]

Each corpus run is stored as two parts. Its outputs are one SHA-256 over its
result dict, the ledger's floats as exact hex, the sink's delivery records,
every node's queue length and alive flag, and, for a traced run, its
`trace_log` and `data_log` (interferer sets sorted). Beside them are the
engine's scheduled, dispatched and cancelled counts, which say how the run
was dispatched rather than what it computed. An entry that returns a dict (a
`transfer_benchmark` call, a bootstrap tree) digests that dict and has no
engine counts.

`record` rewrites `scripts/digests.json`; `check` recomputes every run, names
each run whose outputs moved, whose engine counts alone moved, or that is
missing from one side, and exits 1 if any did. `--workers N` spreads the runs
over N processes.

The corpus (`corpus()`, 339 entries) holds:
- each `simbench` workload at seeds 1 and 3, traced and untraced (12), built
  by `simbench/workloads.py`'s own `scenario` and `build`;
- 252 traced `desk` runs: the three MACs under ARQ and Seda at seeds 1-6,
  each in seven variants (`DESK_VARIANTS`): the preset, 0.05 mAh batteries run
  600 s past their deaths, 0.5 s sampling, 30 s frames, 14 dBm, no Synch slot
  with every S-MAC listen adaptive, and 400-byte payloads;
- 24 traced runs of a stress scenario (no Synch slot, 2 s sampling, 200 s past
  deaths) at seeds 1-8 for each MAC;
- 6 density runs of acceptance check c7, 2 `paper` runs (IAMAC with Seda,
  plain S-MAC), 12 saturated star runs (three MACs, ARQ and Seda, seeds 1-2),
  3 more whose 0.05 mAh batteries all empty within 600 s (the three MACs
  with Seda, seed 1) and 2 IAMAC ones with 30 s frames (ARQ and Seda, seed
  1), whose transfers go on in a later Time Frame's window;
- the fig2 fixture under each MAC and the fig6 fixture, and 3 `fixed_contention`
  line runs, one per MAC;
- 6 `transfer_benchmark` calls: ARQ and Seda at bit error rates 0, 1e-4, 1e-3;
- 9 `desk` seed-4 runs without a lifetime stop: 7 traced 60 s runs and 2
  untraced 120 s IAMAC runs, and 4 routing bootstrap trees (see `corpus()`).

Only names that the simulator has long exported are read, so the same file
checks a change against its parent.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from iamac_sim.config import Scenario, desk_preset, paper_preset  # noqa: E402
from iamac_sim.fixtures import build_fig2, build_fig6  # noqa: E402
from iamac_sim.harness import star_simulation, transfer_benchmark  # noqa: E402
from iamac_sim.simulation import Simulation  # noqa: E402
from simbench.workloads import WORKLOADS, build, scenario  # noqa: E402

DIGESTS = ROOT / "scripts" / "digests.json"
MACS = ("iamac", "smac", "adaptive-smac")
RECOVERIES = ("arq", "seda")
DESK_VARIANTS = {
    "preset": {},
    "deaths": dict(battery_mah=0.05, horizon_s=600.0, stop_on_first_death=False),
    "sampling0.5": dict(sampling_interval_s=0.5),
    "frame30": dict(frame_s=30.0),
    "power14": dict(output_power_dbm=14.0),
    "nosynch": dict(synch_slot_s=0.0, smac_adaptive_err=1.0),
    "payload400": dict(payload_bytes=400),
}


def _star(seed, protocol, recovery, battery_mah=2400.0, horizon_s=200.0, frame_s=10.0):
    """The `star-seda` workload's saturated 6-child star scenario, over 200 s
    with 10 s frames unless `horizon_s` and `frame_s` say otherwise."""
    return desk_preset(seed=seed, node_count=7, area=(20.0, 20.0), frame_s=frame_s,
                       horizon_s=horizon_s, sampling_interval_s=0.08, protocol=protocol,
                       recovery=recovery, shadowing_sigma=0.0, battery_mah=battery_mah,
                       stop_on_first_death=False)


def _contention_line(protocol):
    """A clean 3-hop line toward node 0 whose nodes contend by injected plans."""
    sc = Scenario(node_count=4, area=(40.0, 5.0), protocol=protocol, frame_s=1.0,
                  sampling_interval_s=1000.0, horizon_s=6.0, shadowing_sigma=0.0,
                  stop_on_first_death=False, smac_adaptive_err=0.0, seed=2).validate()
    if protocol == "iamac":
        plans = {1: [(0, 0.001)], 2: [(2, 0.0012), (1, 0.0)], 3: [(4, 0.0011)]}
    else:
        # node 1's first attempt is due in frame 2, after its later plans
        plans = {1: [2.001, 0.0, 0.0], 2: [0.032], 3: [0.048]}
    sim = Simulation(sc, [(6.0 * k, 0.0) for k in range(4)],
                     parents={1: 0, 2: 1, 3: 2}, fixed_contention=plans, trace=True)
    for origin in (1, 1, 2, 3):
        sim.inject(origin, 29)
    return sim


def corpus():
    """Run name -> a callable that builds the run's Simulation, or returns a
    dict: a `transfer_benchmark` call's result or a bootstrap tree.

    The `desk60-*` runs (`desk` seed 4, 60 s) cover every MAC and recovery;
    S-MAC's trace does not depend on the recovery, which only IAMAC transfers
    use. Their 20 s IAMAC frame is a Super Frame of two Time Frames, whose
    mid-cycle Synch slot no `simbench` workload reaches. Of the untraced
    `desk120-*` runs, the Seda one hands 207 batches to relays (60 of two or
    more packets) and 41 to the sink. The `bootstrap-*` trees are
    `bootstrap_routing`'s parents and path costs: a cap of 3 children moves
    parents at `desk` seed 4, while at `paper` seed 1 no node has over 6.
    """
    runs = {}
    for name in WORKLOADS:
        for seed in (1, 3):
            for trace in (False, True):
                runs[f"{name}@{seed}{'-traced' if trace else ''}"] = (
                    lambda n=name, s=seed, t=trace: build(n, scenario(n, s), trace=t))
    for variant, overrides in DESK_VARIANTS.items():
        for p in MACS:
            for r in RECOVERIES:
                for seed in range(1, 7):
                    runs[f"desk-{variant}-{p}-{r}@{seed}"] = (
                        lambda o=overrides, p=p, r=r, s=seed: Simulation(
                            desk_preset(protocol=p, recovery=r, seed=s, **o), trace=True))
    for p in MACS:
        for seed in range(1, 9):
            runs[f"stress-{p}@{seed}"] = lambda p=p, s=seed: Simulation(desk_preset(
                protocol=p, seed=s, horizon_s=200.0, stop_on_first_death=False,
                sampling_interval_s=2.0, synch_slot_s=0.0, smac_adaptive_err=1.0), trace=True)
    for p in ("iamac", "adaptive-smac"):
        for n in (35, 50, 80):
            runs[f"density-{p}-{n}@4"] = lambda p=p, n=n: Simulation(desk_preset(
                protocol=p, node_count=n, horizon_s=2500.0, seed=4, battery_mah=0.15,
                output_power_dbm=10.0, sampling_interval_s=120.0))
    runs["paper-iamac-seda@1"] = lambda: Simulation(paper_preset(recovery="seda"))
    runs["paper-smac@1"] = lambda: Simulation(paper_preset(protocol="smac"))
    for p in MACS:
        for r in RECOVERIES:
            for seed in (1, 2):
                runs[f"star-{p}-{r}@{seed}"] = (
                    lambda p=p, r=r, s=seed: star_simulation(_star(s, p, r), trace=True))
        # every child dies, so dead nodes leave the sample rotation mid-run
        runs[f"star-deaths-{p}-seda@1"] = lambda p=p: star_simulation(
            _star(1, p, "seda", battery_mah=0.05, horizon_s=600.0), trace=True)
    for r in RECOVERIES:
        # a Super Frame of three Time Frames: the saturated queues outlast the
        # first window, so a transfer waits for a later one, and a granted
        # child that a mid-cycle Synch slot put to sleep wakes for its turn
        runs[f"star-frame30-iamac-{r}@1"] = lambda r=r: star_simulation(
            _star(1, "iamac", r, frame_s=30.0), trace=True)
    for p in MACS:
        runs[f"fig2-{p}"] = lambda p=p: build_fig2(p)
        runs[f"contention-{p}"] = lambda p=p: _contention_line(p)
    runs["fig6"] = build_fig6
    for r in RECOVERIES:
        for ber in (0.0, 1e-4, 1e-3):
            runs[f"transfer-{r}-{ber:g}"] = (
                lambda r=r, b=ber: transfer_benchmark(r, 1.0, b, frames=60))
    for p in MACS:
        for r in RECOVERIES:
            runs[f"desk60-{p}-{r}@4"] = lambda p=p, r=r: Simulation(desk_preset(
                seed=4, horizon_s=60.0, stop_on_first_death=False, protocol=p, recovery=r),
                trace=True)
    runs["desk60-frame20-iamac-arq@4"] = lambda: Simulation(desk_preset(
        seed=4, horizon_s=60.0, stop_on_first_death=False, frame_s=20.0), trace=True)
    for r in RECOVERIES:
        runs[f"desk120-iamac-{r}@4"] = lambda r=r: Simulation(desk_preset(
            seed=4, horizon_s=120.0, stop_on_first_death=False, recovery=r))
    for name, preset, seed, cap in (("paper", paper_preset, 1, 8), ("paper", paper_preset, 3, 8),
                                    ("desk", desk_preset, 4, 8), ("desk-cap3", desk_preset, 4, 3)):
        runs[f"bootstrap-{name}@{seed}"] = (
            lambda preset=preset, s=seed, c=cap: _bootstrap_tree(preset(seed=s, max_children=c)))
    return runs


def _bootstrap_tree(scenario):
    """The routing tree the bootstrap builds: its status and each node's
    parent and path cost."""
    sim = Simulation(scenario)
    sim.bootstrap_routing()
    return {"status": sim.status, "tree": [(st.parent, st.my_cost) for st in sim.route_states]}


def _hexes(values):
    return " ".join("None" if v is None else float(v).hex() for v in values)


def sim_digest(sim, result):
    """SHA-256 over every output a finished run leaves behind."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(repr(parts).encode())
        h.update(b"\n")

    put("result", sorted(result.items()))
    ledger = sim.ledger
    for node in range(ledger.n):
        put("node", node, _hexes(ledger.state_time[node]), _hexes(ledger.state_energy[node]),
            _hexes((ledger.switch_energy[node], ledger.sample_energy[node],
                    ledger.residual_mj[node], ledger._queue_integral[node])))
    put("ledger", _hexes((ledger.first_death_time, ledger.measure_end)),
        ledger.cs_sum_per_frame, ledger.generated_packets, ledger.dropped_packets,
        ledger.delivered_payload)
    put("delivered", list(ledger.delivered_records))
    put("nodes", [len(n.queue) for n in sim.nodes], [n.alive for n in sim.nodes])
    if sim.trace_enabled:
        put("trace", sim.trace_log)
        put("data", [(s, d, t0, t1, frame, None if i is None else sorted(i))
                     for s, d, t0, t1, frame, i in sim.data_log])
    return h.hexdigest()


def run(name):
    """`(entry, result)` of one corpus run: its `{"outputs": digest, "engine":
    [scheduled, dispatched, cancelled] or None}` entry and its result dict."""
    built = corpus()[name]()
    if isinstance(built, dict):
        digest = hashlib.sha256(repr(sorted(built.items())).encode()).hexdigest()
        return {"outputs": digest, "engine": None}, built
    result = built.run()
    engine = built.engine
    counts = [engine.scheduled_count, engine.dispatched_count, engine.cancelled_count]
    return {"outputs": sim_digest(built, result), "engine": counts}, result


def _entry_only(name):
    return name, run(name)[0]


def compute(workers):
    names = list(corpus())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return dict(pool.map(_entry_only, names, chunksize=4))
    return dict(map(_entry_only, names))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=["record", "check"])
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    if args.workers < 1:
        ap.error("--workers must be >= 1")
    entries = compute(args.workers)
    if args.command == "record":
        # one run per line, so a re-record diffs run by run
        lines = (f" {json.dumps(name)}: {json.dumps(entries[name])}" for name in sorted(entries))
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"recorded {len(entries)} runs in {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    failed = False
    for name in sorted(entries.keys() | recorded.keys()):
        got, was = entries.get(name), recorded.get(name)
        if got is None or was is None:
            failed = True
            print(f"missing: {name} ({'not run' if got is None else 'not recorded'})")
        elif got["outputs"] != was["outputs"]:
            failed = True
            print(f"outputs moved: {name} (recorded {was['outputs']}, now {got['outputs']})")
        elif got["engine"] != was["engine"]:
            failed = True
            print(f"engine counts only: {name} (recorded {was['engine']}, now {got['engine']})")
    both = entries.keys() & recorded.keys()
    same_outputs = sum(entries[n]["outputs"] == recorded[n]["outputs"] for n in both)
    same_engine = sum(entries[n]["engine"] == recorded[n]["engine"] for n in both)
    print(f"{same_outputs} of {len(recorded)} recorded outputs match; "
          f"{same_engine} of {len(recorded)} recorded engine counts match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
