"""Each resolved reception's worst-case interference, as the medium keeps it
as a running sum, against the model's definition: the summed received power
of every other transmission on the air, over half-open airtimes
`[t_start, t_end)` (the physical interference model of Gupta & Kumar, "The
Capacity of Wireless Networks", IEEE Trans. IT 2000)."""

import bisect

import pytest

from iamac_sim.config import desk_preset
from iamac_sim.harness import star_simulation
from iamac_sim.medium import LISTEN, Medium
from iamac_sim.simulation import Simulation


def logged_run(sim, monkeypatch):
    """Run `sim`, logging every transmission as `(sender, t_start, t_end)`
    and every resolved reception as `(listener, sender, t_start, t_end,
    wanted_mw, max_other_mw)`, read before `_end_transmission` resolves it."""
    transmissions, receptions = [], []
    transmit, end_transmission = Medium.transmit, Medium._end_transmission

    def logged_transmit(self, sender, packet, on_resolved=None):
        t_start = self.engine.now
        t_end = transmit(self, sender, packet, on_resolved)
        transmissions.append((sender, t_start, t_end))
        return t_end

    def logged_end(self, tx):
        for j in self.sense_out[tx.sender][0]:
            node = self.nodes[j]
            rec = self.receptions[j].get(tx)
            if rec is not None and node.state == LISTEN and node.alive:
                receptions.append((j, tx.sender, tx.t_start, tx.t_end, rec[0], rec[1]))
        end_transmission(self, tx)

    monkeypatch.setattr(Medium, "transmit", logged_transmit)
    monkeypatch.setattr(Medium, "_end_transmission", logged_end)
    sim.run()
    return transmissions, receptions


def oracle_mismatches(sim, monkeypatch):
    """Receptions whose recorded worst case differs from the recomputed one
    by more than 1e-6 of noise plus the larger of the two, evaluated at the
    reception's start and at each later start inside it; and the count of
    receptions checked."""
    transmissions, receptions = logged_run(sim, monkeypatch)
    medium = sim.medium
    # listener -> its arrivals (t_start, t_end, sender, mW), sorted by start
    arrivals = [[] for _ in medium.nodes]
    longest = 0.0
    for sender, t0, t1 in transmissions:
        longest = max(longest, t1 - t0)
        for j, p in zip(*medium.influence_out[sender]):
            arrivals[j].append((t0, t1, sender, p))
    for heard in arrivals:
        heard.sort()
    starts = [[a[0] for a in heard] for heard in arrivals]

    bad = []
    for j, wanted, r0, r1, _, recorded in receptions:
        heard = arrivals[j]
        lo = bisect.bisect_left(starts[j], r0 - longest)
        hi = bisect.bisect_left(starts[j], r1)
        others = [a for a in heard[lo:hi]
                  if a[1] > r0 and not (a[2] == wanted and a[0] == r0)]
        points = [r0] + [a[0] for a in others if a[0] > r0]
        worst = max(sum(p for t0, t1, _, p in others if t0 <= t < t1) for t in points)
        if abs(worst - recorded) > 1e-6 * (medium.noise_mw + max(worst, recorded)):
            bad.append((j, wanted, r0, recorded, worst))
    return bad, len(receptions)


def desk(protocol):
    return Simulation(desk_preset(seed=4, horizon_s=60.0, stop_on_first_death=False,
                                  protocol=protocol))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: desk("smac"), id="desk-smac"),
    pytest.param(lambda: desk("adaptive-smac"), id="desk-adaptive-smac"),
    pytest.param(lambda: star_simulation(desk_preset(
        seed=1, node_count=7, area=(20.0, 20.0), frame_s=10.0, horizon_s=200.0,
        sampling_interval_s=0.08, recovery="seda", shadowing_sigma=0.0,
        battery_mah=2400.0, stop_on_first_death=False)), id="star-seda"),
    pytest.param(lambda: desk("iamac"), id="desk-iamac", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: a frame that starts at the instant another "
                            "ends still counts that one's power, while its end event is "
                            "pending")),
])
def test_worst_case_interference_matches_the_half_open_oracle(build, monkeypatch):
    bad, checked = oracle_mismatches(build(), monkeypatch)
    assert checked > 1000
    assert bad == []
