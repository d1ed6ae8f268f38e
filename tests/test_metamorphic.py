"""Metamorphic relations: runs whose scenarios differ in a way that must
not change what they share. Floats are compared by `float.hex`, so a
relation holds bit for bit."""

import pytest

from iamac_sim.config import desk_preset
from iamac_sim.harness import star_simulation
from iamac_sim.simulation import Simulation

PROTOCOLS = ["iamac", "smac", "adaptive-smac"]


def hexed(rows):
    """`rows` with every float written as `float.hex`."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def traced_run(**overrides):
    sim = Simulation(desk_preset(**{"seed": 4, "stop_on_first_death": False, **overrides}),
                     trace=True)
    sim.run()
    return sim


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_longer_horizon_only_appends_to_the_trace(protocol):
    short = hexed(traced_run(protocol=protocol, horizon_s=60.0).trace_log)
    long = hexed(traced_run(protocol=protocol, horizon_s=120.0).trace_log)
    assert short and len(long) > len(short)
    assert long[:len(short)] == short


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_battery_that_does_not_empty_does_not_steer_the_run(protocol):
    runs = [traced_run(protocol=protocol, horizon_s=60.0, battery_mah=mah)
            for mah in (2400.0, 1e6)]
    small, large = ([hexed(sim.trace_log), hexed(sim.ledger.delivered_records),
                     hexed(sim.ledger.state_time)] for sim in runs)
    assert small[0] and small[1]
    assert small == large
    assert all(sim.ledger.first_death_time is None for sim in runs)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stopping_at_the_first_death_only_truncates(protocol):
    # 0.05 mAh batteries: every node dies well inside the 600 s horizon
    runs = {stop: traced_run(protocol=protocol, seed=1, battery_mah=0.05, horizon_s=600.0,
                             stop_on_first_death=stop) for stop in (True, False)}
    stopped, full = hexed(runs[True].trace_log), hexed(runs[False].trace_log)
    assert stopped and len(full) > len(stopped)
    assert full[:len(stopped)] == stopped
    lifetimes = [sim.ledger.first_death_time for sim in runs.values()]
    assert lifetimes[0] is not None and lifetimes[0].hex() == lifetimes[1].hex()
    assert sum(not node.alive for node in runs[False].nodes) == 50


def test_with_no_traffic_the_three_macs_are_one_mac():
    # one sample a million seconds: no packet is ever queued
    ledgers = [traced_run(protocol=protocol, horizon_s=120.0, sampling_interval_s=1e6).ledger
               for protocol in PROTOCOLS]
    iamac, *smacs = ([hexed(ledger.state_time), hexed(ledger.state_energy),
                      hexed([ledger.residual_mj])] for ledger in ledgers)
    assert all(smac == iamac for smac in smacs)
    assert all(ledger.delivered_records == [] for ledger in ledgers)


# three unlike runs: adaptive S-MAC on `desk`, stopped at its first death;
# the saturated Seda star, where no node dies; IAMAC on `desk` until every
# node has died
STEPPED_RUNS = [
    lambda: Simulation(desk_preset(seed=4, protocol="adaptive-smac"), trace=True),
    lambda: star_simulation(desk_preset(seed=1, node_count=7, area=(20.0, 20.0), frame_s=10.0,
                                        horizon_s=200.0, sampling_interval_s=0.08,
                                        recovery="seda", shadowing_sigma=0.0,
                                        battery_mah=2400.0, stop_on_first_death=False),
                            trace=True),
    lambda: Simulation(desk_preset(seed=1, battery_mah=0.05, horizon_s=600.0,
                                   stop_on_first_death=False), trace=True),
]


def run_outputs(sim, result):
    ledger = sim.ledger
    return [hexed([sorted(result.items())]), hexed(sim.trace_log),
            hexed(ledger.delivered_records), hexed(ledger.state_time),
            hexed(ledger.state_energy),
            hexed([ledger.residual_mj, ledger.switch_energy, ledger.sample_energy,
                   ledger._queue_integral, [ledger.measure_end, ledger.first_death_time]]),
            sim.engine.scheduled_count]


@pytest.fixture(scope="module")
def solo_runs():
    runs = []
    for build in STEPPED_RUNS:
        sim = build()
        runs.append((run_outputs(sim, sim.run()), sim.engine.dispatched_count))
    return runs


@pytest.mark.parametrize("chunk_s", [0.37, 7.0])
def test_runs_stepped_together_share_nothing(solo_runs, chunk_s):
    """Stepped in alternation, `run_until` a chunk at a time, each run gives
    its solo run's outputs. Only its dispatch count may grow: the sampler
    takes only the samples due within the current `run_until`."""
    sims = [build() for build in STEPPED_RUNS]
    for sim in sims:
        sim.start()
    step = 0
    while any(sim.engine.now < sim.scenario.horizon_s for sim in sims):
        step += 1
        for sim in sims:
            sim.engine.run_until(min(step * chunk_s, sim.scenario.horizon_s))
    for sim, (solo, solo_dispatched) in zip(sims, solo_runs):
        sim.ledger.close_queues(sim.ledger.measure_end)
        assert run_outputs(sim, sim._result()) == solo
        assert sim.engine.dispatched_count >= solo_dispatched
    assert [sim.ledger.first_death_time is None for sim in sims] == [False, True, False]
    assert sims[0].frame_idx + 1 < sims[0].scenario.horizon_s / sims[0].scenario.frame_s
    assert not any(node.alive for node in sims[2].nodes)
