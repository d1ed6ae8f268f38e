"""The sampler against the per-event sample path it replaced.

Before the sampler, each sampling node owned one engine event, re-armed at
each sample with the engine's next sequence number. That path is kept here as
the reference, installed on a twin run: both runs must queue the same entries
(uids and birth times included), book the same ledger floats to the last bit,
trace the same log, return the same result and take the same sequence
numbers; only the sampler's run dispatches fewer events."""

from functools import partial

import pytest

from iamac_sim.config import desk_preset
from iamac_sim.harness import star_simulation
from iamac_sim.simulation import Simulation

MACS = ("iamac", "smac", "adaptive-smac")
# first samples as exact binary fractions of the 0.5 s interval: samples at
# whole seconds tie with frame boundaries, repeats tie with each other, and
# 0.5 - 2**-32 puts a sample at 10 - 2**-32, inside (10 - 5e-10, 10)
FIRSTS = (0.0, 0.25, 0.125, 0.0, 0.5 - 2.0 ** -32, 0.25, 0.375)


def per_event_start_traffic(sim):
    """The reference: one sampling event per non-sink node."""
    rng = sim.streams.draws("traffic")
    interval = sim.scenario.sampling_interval_s
    for node in sim.nodes:
        if node.id == sim.topo.sink:
            continue
        first = rng.uniform(0.0, interval)
        sim.engine.schedule(first, partial(per_event_sample, node))


def per_event_sample(node, ev):
    sim = node.sim
    if sim.stopped or not node.alive:
        return
    sc = sim.scenario
    nid = node.id
    now = sim.engine.now
    queue = node.queue
    payload = sc.payload_bytes
    uid = sim._next_uid
    sim._next_uid = uid + 1
    queue.append((uid, nid, now, payload))
    node.ledger.account_sample(nid, len(queue), (now,))
    # re-armed as a new `schedule` call here would be: the next sequence number
    engine = sim.engine
    seq = engine.next_seq
    engine.next_seq = seq + 1
    engine.rearm(ev, now + sc.sampling_interval_s, seq)


class FixedDraws:
    """A traffic stream whose draws are `values`, in order and repeated."""

    def __init__(self, values):
        self.values = values
        self.taken = 0

    def uniform(self, lo, hi):
        value = self.values[self.taken % len(self.values)]
        self.taken += 1
        assert lo <= value < hi
        return value


def fix_traffic_draws(monkeypatch, sim, values):
    draws = sim.streams.draws
    fixed = FixedDraws(values)
    monkeypatch.setattr(sim.streams, "draws",
                        lambda label: fixed if label == "traffic" else draws(label))


def ledger_hexes(ledger):
    floats = [*ledger.switch_energy, *ledger.sample_energy, *ledger.residual_mj,
              *ledger._queue_integral, *ledger._queue_last_t, ledger.measure_end]
    for rows in (ledger.state_time, ledger.state_energy):
        for row in rows:
            floats.extend(row)
    floats.extend(x for record in ledger.delivered_records for x in record)
    return [float(x).hex() for x in floats], ledger.first_death_time


def twin_runs(monkeypatch, sc, firsts=None, build=Simulation):
    """`(sampled, reference)`: the run as it is, and a twin run on the
    per-event sample path, both built by `build(sc, trace=True)`."""
    sampled, reference = build(sc, trace=True), build(sc, trace=True)
    if firsts is not None:
        for sim in (sampled, reference):
            fix_traffic_draws(monkeypatch, sim, firsts)
    monkeypatch.setattr(reference, "start_traffic",
                        lambda: per_event_start_traffic(reference))
    results = sampled.run(), reference.run()
    assert results[0] == results[1]
    return sampled, reference


def born_times(sim):
    """The birth time of every packet still queued or delivered."""
    return ([born for node in sim.nodes for _, _, born, _ in node.queue]
            + [born for _, born, _, _ in sim.ledger.delivered_records])


def assert_same_run(sampled, reference):
    for mine, theirs in zip(sampled.nodes, reference.nodes):
        assert mine.queue == theirs.queue
        assert mine.alive == theirs.alive
    assert ledger_hexes(sampled.ledger) == ledger_hexes(reference.ledger)
    assert sampled.ledger.generated_packets == reference.ledger.generated_packets
    assert sampled.trace_log == reference.trace_log
    # the same sequence numbers taken and events cancelled; fewer dispatched
    ours, theirs = sampled.engine, reference.engine
    assert ours.scheduled_count == theirs.scheduled_count
    assert ours.cancelled_count == theirs.cancelled_count
    assert ours.dispatched_count < theirs.dispatched_count


@pytest.mark.parametrize("protocol", MACS)
def test_samples_tied_with_frames_and_each_other_match_the_event_path(monkeypatch, protocol):
    sc = desk_preset(protocol=protocol, seed=1, frame_s=1.0, sampling_interval_s=0.5,
                     horizon_s=10.0)
    sampled, reference = twin_runs(monkeypatch, sc, FIRSTS)
    assert_same_run(sampled, reference)
    # samples at 0.0 precede the first frame; those at 10.0 were re-armed
    # after the last frame's end was scheduled, so that end stops them
    assert sampled.frame_idx + 1 == 10 and sampled.stopped
    born = born_times(sampled)
    assert 0.0 in born and 9.5 in born and max(born) == 10.0 - 2.0 ** -32


@pytest.mark.parametrize("protocol", MACS)
def test_a_run_past_its_battery_deaths_matches_the_event_path(monkeypatch, protocol):
    sc = desk_preset(protocol=protocol, seed=1, battery_mah=0.05, horizon_s=600.0,
                     stop_on_first_death=False)
    sampled, reference = twin_runs(monkeypatch, sc)
    assert_same_run(sampled, reference)
    assert sum(not node.alive for node in sampled.nodes) > 1


@pytest.mark.parametrize("protocol", MACS)
def test_a_run_stopped_by_the_first_death_matches_the_event_path(monkeypatch, protocol):
    sc = desk_preset(protocol=protocol, seed=1, battery_mah=0.05, horizon_s=600.0,
                     stop_on_first_death=True)
    sampled, reference = twin_runs(monkeypatch, sc)
    assert_same_run(sampled, reference)
    assert sampled.stopped and sampled.ledger.first_death_time < 600.0


@pytest.mark.parametrize("protocol", MACS)
def test_sampling_stops_at_a_horizon_before_the_last_frame_end(monkeypatch, protocol):
    horizon = 10.0 - 5e-10
    sc = desk_preset(protocol=protocol, seed=1, frame_s=1.0, sampling_interval_s=0.5,
                     horizon_s=horizon)
    sampled, reference = twin_runs(monkeypatch, sc, FIRSTS)
    assert_same_run(sampled, reference)
    # the last frame ends at 10.0, past the horizon, so the run never stops;
    # the samples due at 10 - 2**-32 lie between the two and are not taken
    assert not sampled.stopped
    born = born_times(sampled)
    assert 9.5 - 2.0 ** -32 in born and max(born) <= horizon


def star(protocol, **overrides):
    """The `star-seda` workload's saturated 6-child star, 0.08 s sampling
    and 10 s frames, under `protocol` with Seda."""
    return desk_preset(seed=1, node_count=7, area=(20.0, 20.0), frame_s=10.0,
                       sampling_interval_s=0.08, recovery="seda", shadowing_sigma=0.0,
                       stop_on_first_death=False, protocol=protocol, **overrides)


def most_sampler_dispatches(sampled, reference):
    """A bound on the sampler's dispatches: the event path dispatches one
    event per sample and at most one more per node, which samples nothing
    (its node is dead or the run has stopped); the other events are shared."""
    return (sampled.engine.dispatched_count - reference.engine.dispatched_count
            + sampled.ledger.generated_packets + len(sampled.nodes))


def test_a_saturated_star_samples_in_rounds_as_the_event_path_does(monkeypatch):
    sampled, reference = twin_runs(monkeypatch, star("iamac", battery_mah=2400.0,
                                                     horizon_s=100.0), build=star_simulation)
    assert_same_run(sampled, reference)
    # more than one sample per child per sampler dispatch on average, so
    # dispatches take the whole rotation, several rounds over
    assert sampled.ledger.generated_packets > 6 * most_sampler_dispatches(sampled, reference)


@pytest.mark.parametrize("protocol", ["iamac", "smac"])
def test_a_star_whose_children_all_die_matches_the_event_path(monkeypatch, protocol):
    sampled, reference = twin_runs(monkeypatch, star(protocol, battery_mah=0.05,
                                                     horizon_s=600.0), build=star_simulation)
    assert_same_run(sampled, reference)
    # each dead child left the rotation when it came due, and the rotation drained
    assert not any(node.alive for node in sampled.nodes) and not sampled._samples
