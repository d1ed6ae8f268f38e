"""Acceptance suite: one test per criterion, each printing a pass line with
the measured values. Shared runs are cached per session to stay inside the
stated runtime budgets."""

import itertools
import math
import statistics

import pytest

from iamac_sim.channel import transitional_region
from iamac_sim.config import Scenario, desk_preset, paper_density_preset
from iamac_sim.fixtures import FIG6_GOLDEN, run_fig2, run_fig6
from iamac_sim.harness import (RUN_COLUMNS, rows_to_csv, run_experiment,
                               star_simulation, transfer_benchmark,
                               trend_interior_max, trend_monotone)
from iamac_sim.metrics import colliding_sets
from iamac_sim.recovery import arq_capacity, rts_success_prob, seda_capacity
from iamac_sim.simulation import Simulation

PAYLOAD = 29


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- criterion 1: contention analytics ------------------------------------------------

def test_c1_rts_success_probability_exact():
    for w in range(1, 7):
        for n in range(1, w + 1):
            total = good = 0
            for combo in itertools.product(range(w), repeat=n):
                total += 1
                good += len(set(combo)) == n
            assert rts_success_prob(n, w, "distinct-slot") == pytest.approx(
                good / total, abs=1e-12)
            printed = math.comb(w, n) * n * w ** (-n)
            assert rts_success_prob(n, w, "paper") == pytest.approx(
                min(printed, 1.0), abs=1e-12)
    assert rts_success_prob(1, 8, "paper") == 1.0
    assert rts_success_prob(1, 8, "distinct-slot") == 1.0
    assert rts_success_prob(2, 4, "paper") == pytest.approx(0.75)
    assert rts_success_prob(2, 4, "distinct-slot") == pytest.approx(0.75)
    report(1, True, "distinct-slot matches enumeration for all w<=6; "
                    "printed formula reproduced; n=1 -> 1.0, (2,4) -> 0.75")


# -- criterion 2: capacity analytics ---------------------------------------------------

def test_c2_capacity_closed_forms_and_ordering():
    sc = Scenario()
    a0 = arq_capacity(1.0, 0.0, sc)
    s0 = seda_capacity(1.0, 0.0, sc)
    assert a0 == 35 and s0 == 76
    for ber in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        arq_b = arq_capacity(1.0, ber, sc) * PAYLOAD
        seda_b = seda_capacity(1.0, ber, sc) * PAYLOAD
        assert seda_b >= arq_b, f"ordering violated at ber={ber}"
    report(2, True, f"arq(1s,0)={a0}, seda(1s,0)={s0}; "
                    "block recovery dominates on the whole grid")


# -- criterion 3: analytics <-> simulation consistency ---------------------------------

def test_c3_transfer_procedures_track_capacities():
    lines = []
    ok = True
    for ber in (1e-4, 1e-3):
        cap = arq_capacity(1.0, ber, Scenario()) * PAYLOAD
        r = transfer_benchmark("arq", 1.0, ber, frames=500)
        ratio = r["mean_sent_payload"] / cap
        ok &= abs(ratio - 1.0) <= 0.10
        lines.append(f"arq@{ber:g}: {ratio:.3f}")
        cap_s = seda_capacity(1.0, ber, Scenario()) * PAYLOAD
        rs = transfer_benchmark("seda", 1.0, ber, frames=500)
        ratio_s = rs["mean_delivered_payload"] / cap_s
        ok &= abs(ratio_s - 1.0) <= 0.10
        lines.append(f"seda@{ber:g}: {ratio_s:.3f}")
    report(3, ok, "per-frame payload vs capacity (500 frames): " + ", ".join(lines))


# -- criteria 4 and 5: interference safety and interferer distance ---------------------

SAFETY_SEEDS = (3, 4, 5)


@pytest.fixture(scope="session")
def corrupted_runs():
    runs = []
    for seed in SAFETY_SEEDS:
        sc = desk_preset(horizon_s=200.0, sampling_interval_s=5.0,
                         stop_on_first_death=False, seed=seed)
        # traced for the per-frame colliding sets c5 reads; recording draws
        # no random numbers, so c4 reads the same results as untraced runs
        sim = Simulation(sc, trace=True)
        res = sim.run()
        assert res["status"] == "ok"
        runs.append((sim, res))
    return runs


def test_c4_interference_safety(corrupted_runs):
    # (a) with control corruption disabled the colliding sets are empty
    for seed in SAFETY_SEEDS:
        sc = desk_preset(horizon_s=120.0, sampling_interval_s=5.0,
                         stop_on_first_death=False, seed=seed,
                         control_corruption_disabled=True)
        res = Simulation(sc).run()
        assert res["status"] == "ok"
        assert res["cs_max_sum"] == 0, f"seed {seed}: CS != 0 without corruption"
    # (b) with corruption, the 200-node-equivalent mean stays under the bound
    scaled = [res["cs_mean_sum"] * (200 / 50) for _, res in corrupted_runs]
    ok = all(s <= 5.0 for s in scaled)
    report(4, ok, "CS=0 on every corruption-free frame; corrupted-mode mean "
                  f"sum per 200-node frame = {['%.2f' % s for s in scaled]} (<= 5)")


def test_c5_interferers_live_in_the_outer_transitional_band(corrupted_runs):
    sc = desk_preset()
    _, end = transitional_region(sc.link_model(), sc.output_power_dbm,
                                 sc.payload_bytes + sc.header_bytes)
    dists = []
    for sim, _ in corrupted_runs:
        for sets in colliding_sets(sim.data_log).values():
            for receiver, interferers in sets.items():
                dists.extend(sim.topo.dist[i, receiver] for i in interferers)
    assert dists, "no interferers observed at all"
    frac = sum(1 for d in dists if d > 0.9 * end) / len(dists)
    report(5, frac >= 0.60,
           f"{frac:.0%} of {len(dists)} interferer distances exceed "
           f"0.9 x transitional end ({0.9 * end:.1f} m)")


# -- criterion 6: fixtures ---------------------------------------------------------------

def test_c6_fixture_replays():
    cs_adaptive, _, _ = run_fig2("adaptive-smac")
    cs_iamac, _, _ = run_fig2("iamac")
    transcript, _, _ = run_fig6()
    ok = (cs_adaptive >= 1 and cs_iamac == 0
          and transcript[:len(FIG6_GOLDEN)] == FIG6_GOLDEN)
    report(6, ok, f"hidden wakeup: adaptive CS_C={cs_adaptive}, slotted CS_C="
                  f"{cs_iamac}; queue-deletion transcript matches golden")


# -- criteria 7 and 8: lifetime and latency orderings --------------------------------------

@pytest.fixture(scope="session")
def equal_frame_runs():
    """Paired-seed desk runs at 1 s frames for the three protocols."""
    out = {}
    for proto in ("iamac", "smac", "adaptive-smac"):
        rows = []
        for seed in SAFETY_SEEDS:
            sc = desk_preset(horizon_s=600.0, protocol=proto, seed=seed,
                             battery_mah=0.15)
            rows.append(Simulation(sc).run())
        out[proto] = rows
    return out


def test_c7_lifetime_orderings(equal_frame_runs):
    # (a) equal frame duration: the slotted MAC outlives adaptive listening
    pairs = list(zip(equal_frame_runs["iamac"], equal_frame_runs["adaptive-smac"]))
    ok_a = all(i["lifetime_s"] > a["lifetime_s"] and not i["lifetime_censored"]
               and not a["lifetime_censored"] for i, a in pairs)

    # (b) adaptive listening does not scale with density; the slotted MAC
    # over the same scenarios is printed as a cross-check, not asserted
    means, neighbors, iamac_means = [], [], []
    for n in (35, 50, 80):
        vals, nbrs, iamac_vals = [], [], []
        for seed in (4, 6, 10):
            density = dict(node_count=n, horizon_s=2500.0, seed=seed, battery_mah=0.15,
                           output_power_dbm=10.0, sampling_interval_s=120.0)
            r = Simulation(desk_preset(protocol="adaptive-smac", **density)).run()
            assert r["status"] == "ok"
            vals.append(r["lifetime_s"])
            nbrs.append(r["avg_neighbors"])
            r = Simulation(desk_preset(protocol="iamac", **density)).run()
            iamac_vals.append(r["lifetime_s"])
        means.append(statistics.mean(vals))
        neighbors.append(statistics.mean(nbrs))
        iamac_means.append(statistics.mean(iamac_vals))
    ok_b = trend_monotone(means, increasing=False)

    # (c) a 10 s cycle beats a 5 s listen/sleep frame on BOTH axes
    long_cycle, short_smac = [], []
    for seed in SAFETY_SEEDS:
        sc = desk_preset(horizon_s=5000.0, protocol="iamac", frame_s=10.0,
                         seed=seed, battery_mah=0.15, sampling_interval_s=180.0)
        long_cycle.append(Simulation(sc).run())
        sc = desk_preset(horizon_s=5000.0, protocol="smac", frame_s=5.0,
                         seed=seed, battery_mah=0.15, sampling_interval_s=180.0)
        short_smac.append(Simulation(sc).run())
    ok_c = all(i["lifetime_s"] > s["lifetime_s"]
               and i["mean_latency_s"] < s["mean_latency_s"]
               for i, s in zip(long_cycle, short_smac))

    def lives(rows):
        return [round(r["lifetime_s"], 1) for r in rows]

    report(7, ok_a and ok_b and ok_c,
           f"(a) paired lifetimes {lives(equal_frame_runs['iamac'])} > "
           f"{lives(equal_frame_runs['adaptive-smac'])} (plain S-MAC "
           f"{lives(equal_frame_runs['smac'])}, not compared); "
           f"(b) density means {['%.1f' % m for m in means]} non-increasing at "
           f"{['%.1f' % m for m in neighbors]} average neighbors (slotted "
           f"{['%.1f' % m for m in iamac_means]}); "
           f"(c) 10s-cycle lifetimes {lives(long_cycle)} and mean latencies "
           f"{[round(r['mean_latency_s'], 1) for r in long_cycle]} s beat the 5s-frame's "
           f"{lives(short_smac)} and {[round(r['mean_latency_s'], 1) for r in short_smac]} s "
           f"for every seed")


def test_c8_latency_ordering_with_separated_errors(equal_frame_runs):
    def stats(rows):
        lats = [r["mean_latency_s"] for r in rows]
        assert all(l is not None for l in lats)
        m = statistics.mean(lats)
        se = statistics.stdev(lats) / math.sqrt(len(lats))
        return m, se

    m_a, se_a = stats(equal_frame_runs["adaptive-smac"])
    m_i, se_i = stats(equal_frame_runs["iamac"])
    m_s, se_s = stats(equal_frame_runs["smac"])
    ok = (m_a + se_a < m_i - se_i) and (m_i + se_i < m_s - se_s)
    delivered = {p: [r["delivered_packets"] for r in rows]
                 for p, rows in equal_frame_runs.items()}
    report(8, ok, f"mean latency adaptive {m_a:.1f}±{se_a:.1f} < slotted "
                  f"{m_i:.1f}±{se_i:.1f} < plain {m_s:.1f}±{se_s:.1f} s, "
                  f"gaps outside overlapping standard errors; delivered {delivered}")


# -- criterion 9: throughput interior maximum ----------------------------------------------

def test_c9_power_sweep_interior_max_and_disjoint_floor():
    seeds = (1, 4, 5)
    powers = (0.0, 4.0, 8.0, 12.0, 16.0)
    means = []
    for p in powers:
        vals = []
        for seed in seeds:
            sc = paper_density_preset(output_power_dbm=p, horizon_s=100.0,
                                      sampling_interval_s=1.1,
                                      stop_on_first_death=False, seed=seed)
            r = Simulation(sc).run()
            assert r["status"] == "ok", f"{p} dBm seed {seed} unexpectedly disjoint"
            vals.append(r["throughput_bps"])
        means.append(statistics.mean(vals))
    ok_max = trend_interior_max(means)
    # below the scaled-area connectivity equivalent the run reports disjoint
    disjoint = []
    for seed in seeds:
        sc = paper_density_preset(output_power_dbm=-4.0, horizon_s=20.0,
                                  stop_on_first_death=False, seed=seed)
        disjoint.append(Simulation(sc).run()["status"] == "disjoint")
    ok = ok_max and all(disjoint)
    report(9, ok, f"throughput means over {powers} dBm = "
                  f"{['%.0f' % m for m in means]} B/s (interior max); "
                  "-4 dBm reports disjoint on every seed")


# -- criterion 10: duty cycle and buffer ordering --------------------------------------------

def test_c10_duty_cycle_and_queue_ordering():
    duties = []
    for frame in (1.0, 2.0, 5.0, 10.0):
        sc = desk_preset(frame_s=frame, horizon_s=40.0 * frame, seed=3,
                         stop_on_first_death=False)
        duties.append(Simulation(sc).run()["mean_duty_cycle"])
    ok_duty = trend_monotone(duties, increasing=False)

    ratios, queues = [], []
    for seed in (1, 2, 3):
        q = {}
        for rec in ("arq", "seda"):
            sc = desk_preset(node_count=7, area=(20.0, 20.0), frame_s=100.0,
                             horizon_s=800.0, sampling_interval_s=0.08,
                             recovery=rec, stop_on_first_death=False, seed=seed,
                             shadowing_sigma=0.0, battery_mah=2400.0)
            sim = star_simulation(sc)
            q[rec] = sim.run()["mean_queue_len"]
        ratios.append(q["arq"] / q["seda"])
        queues.append("%.1f/%.1f" % (q["arq"], q["seda"]))
    ok_queue = all(1.4 <= r <= 3.0 for r in ratios)
    report(10, ok_duty and ok_queue,
           f"duty cycle falls with cycle length {['%.3f' % d for d in duties]}; "
           f"ARQ/Seda queue ratio at 100 s super frame = "
           f"{['%.2f' % r for r in ratios]} in [1.4, 3.0] (mean queues {queues})")


# -- criterion 11: determinism and conservation ------------------------------------------------

def test_c11_determinism_and_conservation(corrupted_runs):
    sc = desk_preset(horizon_s=30.0, seed=4, stop_on_first_death=False)
    r1, rows1 = run_experiment(sc)
    r2, rows2 = run_experiment(sc)
    identical = rows_to_csv(RUN_COLUMNS, rows1) == rows_to_csv(RUN_COLUMNS, rows2)

    conserved = all(res["conserved"] for _, res in corrupted_runs) and r1["conserved"]
    energy_ok = True
    for sim, _ in corrupted_runs:
        table = sim.energy_table
        for node in range(sim.topo.n):
            spent = sim.ledger.spent_mj(node)
            drained = table.battery_mj - sim.ledger.residual_mj[node]
            if drained != pytest.approx(spent, rel=1e-9):
                energy_ok = False
    report(11, identical and conserved and energy_ok,
           "same seed gives byte-identical CSV; payload and energy ledgers "
           "balance exactly on every acceptance run")
