"""Metamorphic relations: runs whose scenarios differ in a way that must
not change what they share. Floats are compared by `float.hex`, so a
relation holds bit for bit."""

import pytest

from iamac_sim.config import desk_preset
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
