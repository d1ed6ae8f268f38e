"""Hand-built regression scenarios.

The five-node hidden-wakeup layout reproduces the adaptive-listening
interference pathology: E overhears only the first pair's grant, sleeps
through the second pair's, wakes when the first exchange ends and transmits
into C's ongoing reception. Under the slotted MAC the same layout stays
interference-free because every node hears the whole control phase and the
exposure rules fire before any grant.

The four-node queue-deletion layout replays the narrated RTS-slot rules:
B queues A's request, overhears one bound for its own parent, deletes the
queued request and contends itself.
"""

from __future__ import annotations

from .config import Scenario
from .metrics import colliding_sets
from .simulation import Simulation

# node indices in the hidden-wakeup layout
FIG2_B, FIG2_A, FIG2_E, FIG2_C, FIG2_D = 0, 1, 2, 3, 4
FIG2_POSITIONS = [(-2.0, 0.0), (4.0, 0.0), (12.0, 0.0), (21.0, 0.0), (29.0, 0.0)]
FIG2_PARENTS = {FIG2_B: FIG2_A, FIG2_E: FIG2_A, FIG2_D: FIG2_C}

FIG6_A, FIG6_B, FIG6_C, FIG6_E = 0, 1, 2, 3
FIG6_POSITIONS = [(0.0, 0.0), (6.0, 0.0), (12.0, 0.0), (14.0, 0.0)]
FIG6_PARENTS = {FIG6_A: FIG6_B, FIG6_B: FIG6_C, FIG6_E: FIG6_C}

FIG6_GOLDEN = [
    ("A", "rts-tx", "to B"),
    ("B", "rts-queued", "from A"),
    ("E", "rts-tx", "to C"),
    ("B", "rts-queue-deleted", "overheard E->C"),
    ("B", "became-prospective-sender", ""),
    ("B", "rts-tx", "to C"),
]


def _fixture_scenario(n, protocol):
    return Scenario(
        node_count=n, area=(40.0, 10.0), protocol=protocol,
        frame_s=1.0, sampling_interval_s=1000.0, horizon_s=1.5,
        shadowing_sigma=0.0, stop_on_first_death=False,
        smac_adaptive_err=0.0, seed=11,
    ).validate()


def build_fig2(protocol):
    sc = _fixture_scenario(5, protocol)
    if protocol == "iamac":
        contention = {FIG2_B: [(0, 0.001)], FIG2_D: [(2, 0.0012)],
                      FIG2_E: [(4, 0.0011)]}
    else:
        # listen-period backoffs: B wins first, D follows clear of A's grant,
        # E defers into its overheard sleep
        contention = {FIG2_B: [0.001], FIG2_D: [0.032], FIG2_E: [0.048]}
    sim = Simulation(sc, FIG2_POSITIONS, sink=FIG2_A, parents=FIG2_PARENTS,
                     fixed_contention=contention, trace=True)
    sim.inject(FIG2_B, 29)
    sim.inject(FIG2_E, 29)
    # the long transfer whose reception the hidden wake-up tramples
    sim.inject(FIG2_D, 200)
    return sim


def cs_at(sim, node):
    """Peak per-frame colliding-set size recorded at one receiver (a traced run)."""
    return max((len(sets.get(node, ())) for sets in colliding_sets(sim.data_log).values()),
               default=0)


def run_fig2(protocol):
    """Returns (cs_at_C, trace_log, run_result)."""
    sim = build_fig2(protocol)
    res = sim.run()
    return cs_at(sim, FIG2_C), sim.trace_log, res


def build_fig6():
    sc = _fixture_scenario(4, "iamac")
    contention = {
        FIG6_A: [(0, 0.001)],
        FIG6_E: [(2, 0.001)],
        FIG6_B: [(3, 0.001), (4, 0.001)],   # second entry consumed at re-pick
    }
    sim = Simulation(sc, FIG6_POSITIONS, sink=FIG6_C, parents=FIG6_PARENTS,
                     fixed_contention=contention, trace=True)
    for nid in (FIG6_A, FIG6_B, FIG6_E):
        sim.inject(nid, 29)
    return sim


_FIG6_NAMES = {FIG6_A: "A", FIG6_B: "B", FIG6_C: "C", FIG6_E: "E"}


def fig6_transcript(trace_log):
    """Project the raw trace onto the narrated transition vocabulary; the
    narration follows A, B and E, with C's bookkeeping left ambient."""
    def name(x):
        return _FIG6_NAMES.get(int(x), str(x))

    out = []
    for _, node, label, detail in trace_log:
        if node not in (FIG6_A, FIG6_B, FIG6_E):
            continue
        if label == "rts-tx":
            out.append((name(node), label, f"to {name(detail.split('=')[1])}"))
        elif label == "rts-queued":
            out.append((name(node), label, f"from {name(detail.split('=')[1])}"))
        elif label == "rts-queue-deleted":
            a, b = detail.split("=")[1].split("->")
            out.append((name(node), label, f"overheard {name(a)}->{name(b)}"))
        elif label == "became-prospective-sender":
            out.append((name(node), label, ""))
        elif label in ("deactivated", "repick", "granted"):
            out.append((name(node), label, ""))
    return out


def run_fig6():
    sim = build_fig6()
    res = sim.run()
    return fig6_transcript(sim.trace_log), sim, res
