"""Experiment execution: single runs, parameter sweeps, the analytic report
and declarative trend checks over swept metrics."""

from __future__ import annotations

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import Scenario
from .recovery import ArqSession, SedaSession, arq_capacity, rts_success_prob, seda_capacity
from .simulation import Simulation

RUN_COLUMNS = ["scenario", "protocol", "recovery", "frame_s", "seed", "metric", "value"]
SWEEP_COLUMNS = ["param", "value", "seed", "metric", "metric_value", "status"]
ANALYTICS_COLUMNS = ["ber", "arq_mpf", "seda_mpf", "arq_payload_bytes", "seda_payload_bytes"]

RUN_METRICS = [
    "status_code", "frames", "lifetime_s", "lifetime_censored",
    "delivered_packets", "delivered_payload", "throughput_bps",
    "mean_latency_s", "p95_latency_s", "mean_queue_len", "mean_duty_cycle",
    "cs_mean_sum", "cs_max_sum", "generated_packets", "dropped_packets",
    "queued_packets", "avg_neighbors", "stranded",
]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def run_experiment(scenario, name="run", trace=False, return_sim=False):
    """Bootstrap, duty-cycled frames until the horizon or the lifetime event,
    and a deterministic long-format CSV of every metric."""
    sim = Simulation(scenario, trace=trace)
    result = sim.run()
    result["status_code"] = {"ok": 0, "disjoint": 3}.get(result["status"], 1)
    rows = []
    for metric in RUN_METRICS:
        rows.append([name, scenario.protocol, scenario.recovery,
                     _fmt(scenario.frame_s), str(scenario.seed),
                     metric, _fmt(result.get(metric))])
    if return_sim:
        return result, rows, sim
    return result, rows


def rows_to_csv(columns, rows):
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(str(c) for c in row) + "\n")
    return out.getvalue()


def _sweep_point(args):
    base, param, value, seed = args
    scenario = replace(base, **{param: value, "seed": seed}).validate()
    result, _ = run_experiment(scenario)
    return value, seed, result


def sweep(base, param, values, seeds, workers=0):
    """One run per (value, seed); output ordered by (value, seed) regardless
    of execution order, so concurrent and serial sweeps emit identical CSV."""
    points = [(base, param, v, s) for v in values for s in seeds]
    # a pool may start all its workers at once: no more than there are points
    workers = min(workers, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_point, points))
    else:
        outcomes = [_sweep_point(p) for p in points]
    outcomes.sort(key=lambda t: (t[0], t[1]))
    rows = []
    table = {}
    for value, seed, result in outcomes:
        table[(value, seed)] = result
        for metric in RUN_METRICS:
            rows.append([param, _fmt(value), str(seed), metric,
                         _fmt(result.get(metric)), result["status"]])
    return table, rows


def analytic_report(ber_grid, d_s=1.0, sc=None):
    """Closed-form capacities per bit error rate for scenario `sc` (default:
    the reference scenario); no simulation involved."""
    sc = sc or Scenario()
    rows = []
    for ber in ber_grid:
        a = arq_capacity(d_s, ber, sc)
        s = seda_capacity(d_s, ber, sc)
        rows.append([_fmt(ber), str(a), str(s),
                     str(a * sc.payload_bytes), str(s * sc.payload_bytes)])
    return rows


def p0_table(w_values, modes=("paper", "distinct-slot")):
    rows = []
    for w in w_values:
        for n in range(1, w + 1):
            row = [str(w), str(n)]
            for mode in modes:
                row.append(_fmt(rts_success_prob(n, w, mode)))
            rows.append(row)
    return rows


# -- trend checks ----------------------------------------------------------------

def isotonic_fit(values, increasing=True):
    """Pool-adjacent-violators fit; returns fitted sequence."""
    vals = [float(v) for v in values]
    if not increasing:
        vals = [-v for v in vals]
    blocks = [[v, 1.0] for v in vals]
    i = 0
    while i < len(blocks) - 1:
        if blocks[i][0] > blocks[i + 1][0] + 1e-15:
            total = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            weight = blocks[i][1] + blocks[i + 1][1]
            blocks[i] = [total / weight, weight]
            del blocks[i + 1]
            i = max(i - 1, 0)
        else:
            i += 1
    fitted = []
    for mean, weight in blocks:
        fitted.extend([mean] * int(weight))
    if not increasing:
        fitted = [-v for v in fitted]
    return fitted


def trend_monotone(values, increasing=True, rel_residual=0.15):
    """True when an isotonic fit explains the series to within the given
    residual share of its range (stochastic series need slack)."""
    if len(values) < 2:
        return True
    fitted = isotonic_fit(values, increasing)
    rng = max(values) - min(values)
    if rng <= 0:
        return True
    resid = max(abs(a - b) for a, b in zip(values, fitted))
    return resid <= rel_residual * rng


def trend_interior_max(values):
    """True when the series peaks strictly inside its range."""
    if len(values) < 3:
        return False
    peak = max(range(len(values)), key=lambda i: values[i])
    return 0 < peak < len(values) - 1


def star_simulation(scenario, children=6, radius=6.0, trace=False):
    """A saturated single-parent star with a preset tree: the clean setting
    for buffer studies, where the transfer procedure is the bottleneck."""
    positions = [(0.0, 0.0)]
    for k in range(children):
        ang = 2.0 * math.pi * k / children
        positions.append((radius * math.cos(ang), radius * math.sin(ang)))
    return Simulation(scenario, positions, parents={k: 0 for k in range(1, children + 1)},
                      trace=trace)


# -- transfer benchmark (analytics <-> simulation consistency) ----------------------


def transfer_benchmark(recovery, d_s, ber, frames, seed=7, turnaround_s=0.0, supply=None):
    """Repeated single-link transfers: a fresh saturated queue each frame of
    budget d_s, over a channel whose SNR realizes the requested bit error
    rate. Returns per-frame means of packets sent and payload delivered."""
    sc = Scenario(node_count=2, seed=seed, shadowing_sigma=0.0, output_power_dbm=0.0,
                  stop_on_first_death=False, turnaround_s=turnaround_s)
    if ber > 0:
        # invert the FSK map: ber = 0.5*exp(-snr_lin/2 * k)
        snr_lin = 2.0 * math.log(0.5 / ber) / sc.bandwidth_to_rate
        snr_db = 10.0 * math.log10(snr_lin)
    else:
        snr_db = 80.0
    rx_dbm = sc.noise_floor + snr_db
    # place two nodes at the distance realizing that received power
    d = 10.0 ** ((sc.output_power_dbm - sc.pl_d0 - rx_dbm)
                 / (10.0 * sc.path_loss_exponent))
    sim = Simulation(sc, [(0.0, 0.0), (d, 0.0)], parents={1: 0})
    engine, nodes, ledger = sim.engine, sim.nodes, sim.ledger

    gap = 1.0  # idle spacing between benchmark frames
    if supply is None:
        supply = max(arq_capacity(d_s, 0.0, sc), seda_capacity(d_s, 0.0, sc)) + 20
    sessions = []
    delivered_first = None
    for k in range(frames):
        t0 = engine.now if k == 0 else engine.now + gap
        engine.run_until(t0)
        for node in nodes:
            sim.wake(node.id)
        # the previous frame's leftovers drop; a fresh supply is born now
        leftover = nodes[1].queue
        if leftover:
            ledger.record_drop(len(leftover))
            leftover.clear()
            ledger.queue_changed(1, 0, t0)
        for _ in range(supply):
            sim.inject(1, sc.payload_bytes)
        windows = [(t0, t0 + d_s)]
        if recovery == "seda":
            session = SedaSession(sim, 1, 0, windows, None, link_ber=ber)
        else:
            session = ArqSession(sim, 1, 0, windows, None)
        sessions.append(session)
        session.start()
        engine.run_until(t0 + d_s + 0.2)
        if k == 0:
            delivered_first = len(ledger.delivered_records)

    mean_sent = sum(s.result.started_packets for s in sessions) / frames
    first = sessions[0]
    return {
        "mean_packets_sent": mean_sent,
        "mean_sent_payload": mean_sent * sc.payload_bytes,
        "mean_delivered_payload": ledger.delivered_payload / frames,
        "delivered_per_frame": delivered_first,
        "elapsed_first": first.result.elapsed if first.done else None,
        "recovery_frames": sum(s.result.recovery_frames for s in sessions),
        "frames": frames,
    }
