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
    sim = Simulation(desk_preset(seed=4, stop_on_first_death=False, **overrides), trace=True)
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
