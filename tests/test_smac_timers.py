"""Adaptive S-MAC's one queue of awake expiries against the path it replaced.

Before, every stay scheduled its own expiry event. That path is kept here as
the reference, installed on a twin run: both runs must return the same
result, book the same ledger floats to the last bit, trace the same logs and
take the same sequence numbers and cancels; only the queue dispatches fewer
events. The expiry checks the queue skips are safe by two cases of the proof
in `SmacDriver._expiry_runner`, and each case is counted here so that the
runs are known to reach it."""

from collections import Counter

import pytest

from iamac_sim.config import desk_preset
from iamac_sim.harness import star_simulation
from iamac_sim.mac_smac import SmacDriver
from iamac_sim.simulation import Simulation
from test_sampler import ledger_hexes


def per_stay_expiry(driver, nid):
    """The reference `_stay_awake`: one expiry event per stay."""
    st = driver.states[nid]
    st.awake_until = driver.engine.now + driver.contention_window
    driver.engine.schedule(st.awake_until, lambda ev: driver._sleep_if_expired(nid))
    if driver.sim.nodes[nid].queue and driver.parents[nid] is not None:
        driver._backoff(nid)


def count_proof_cases(monkeypatch, cases):
    """Wrap the queue so that `cases` counts the stale entries it skips
    after an `_overheard` reset their node's `awake_until`, and the checks it
    runs in a later frame than their stay; and check at every append that
    the queue is in key order."""
    stay_awake, overheard, runner = (SmacDriver._stay_awake, SmacDriver._overheard,
                                     SmacDriver._expiry_runner)
    stay_frame = {}    # sequence number of a queued stay -> the stay's frame start
    reset = set()      # nodes whose awake_until `_overheard` reset since a stay

    def counted_stay(driver, nid):
        stay_awake(driver, nid)
        stays = driver._stays
        until, seq, stayed = stays[-1]
        assert (until, stayed) == (driver.states[nid].awake_until, nid)
        assert len(stays) == 1 or stays[-2][:2] < (until, seq)
        stay_frame[seq] = driver.cycle_start
        reset.discard(nid)

    def counted_overheard(driver, nid, pkt):
        overheard(driver, nid, pkt)
        if driver.states[nid].awake_until == 0.0:
            reset.add(nid)

    def counted_runner(driver, ev):
        # a check cannot stay, so the runner only takes entries off the front
        before = list(driver._stays)
        runner(driver, ev)
        for _, seq, nid in before[:len(before) - len(driver._stays)]:
            if driver._latest_stay[nid] != seq:
                cases["stale after reset"] += nid in reset
            elif stay_frame[seq] < driver.cycle_start:
                cases["later frame"] += 1
            del stay_frame[seq]

    for name, fn in [("_stay_awake", counted_stay), ("_overheard", counted_overheard),
                     ("_expiry_runner", counted_runner)]:
        monkeypatch.setattr(SmacDriver, name, fn)


def twin_runs(monkeypatch, build, cases):
    """`(ours, reference)`: the run as it is, its proof cases counted into
    `cases`, and a twin run on the per-stay expiry path."""
    with monkeypatch.context() as m:
        count_proof_cases(m, cases)
        ours = build()
        got = ours.run()
    with monkeypatch.context() as m:
        m.setattr(SmacDriver, "_stay_awake", per_stay_expiry)
        reference = build()
        assert reference.run() == got
    return ours, reference


def assert_same_run(ours, reference):
    for mine, theirs in zip(ours.nodes, reference.nodes):
        assert [uid for uid, *_ in mine.queue] == [uid for uid, *_ in theirs.queue]
        assert mine.alive == theirs.alive
    assert ledger_hexes(ours.ledger) == ledger_hexes(reference.ledger)
    assert ours.trace_log == reference.trace_log
    assert ours.data_log == reference.data_log
    # the same sequence numbers taken and events cancelled; fewer dispatched
    mine, theirs = ours.engine, reference.engine
    assert mine.scheduled_count == theirs.scheduled_count
    assert mine.cancelled_count == theirs.cancelled_count
    assert mine.dispatched_count < theirs.dispatched_count


SCENARIOS = {
    "desk": lambda: Simulation(desk_preset(protocol="adaptive-smac", seed=1, horizon_s=120.0),
                               trace=True),
    # the digest corpus's stress scenario: no Synch slot, every listen
    # adaptive, run past the battery deaths
    "stress": lambda: Simulation(desk_preset(
        protocol="adaptive-smac", seed=1, horizon_s=200.0, stop_on_first_death=False,
        sampling_interval_s=2.0, synch_slot_s=0.0, smac_adaptive_err=1.0), trace=True),
    "star": lambda: star_simulation(desk_preset(
        protocol="adaptive-smac", seed=1, node_count=7, area=(20.0, 20.0), frame_s=10.0,
        horizon_s=100.0, sampling_interval_s=0.08, shadowing_sigma=0.0, battery_mah=2400.0,
        stop_on_first_death=False), trace=True),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_one_expiry_queue_matches_one_event_per_stay(monkeypatch, scenario):
    cases = Counter()
    ours, reference = twin_runs(monkeypatch, SCENARIOS[scenario], cases)
    assert ours.status == "ok"
    assert_same_run(ours, reference)
    # both cases of the proof are reached
    assert cases["stale after reset"] > 0 and cases["later frame"] > 0
    if scenario == "stress":
        assert sum(not node.alive for node in ours.nodes) > 1
