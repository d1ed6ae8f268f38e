"""ETX spanning-tree construction.

Phase one: every node broadcasts a fixed number of probes and counts
receptions per neighbor; final report rounds piggyback the counts so both
directions become known. Phase two: costs propagate outward from the sink
(cost 0) and each node picks the parent minimizing that neighbor's cost plus
the link ETX, subject to the per-node children cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RouteState:
    node: int
    is_sink: bool = False
    my_cost: float = math.inf
    parent: int | None = None
    etx: dict = field(default_factory=dict)   # neighbor id -> ETX, usable links only

    def __post_init__(self):
        if self.is_sink:
            self.my_cost = 0.0


def estimate_links(topology, streams, broadcast_count, report_rounds, control_bytes):
    """Bootstrap link estimation over a contention-free probe schedule.

    Returns a list of RouteState with their ETX maps. ETX is 1/(p_f * p_r); a
    link with zero receptions in either direction, or whose count report never
    got through, is unusable and gets no entry.
    """
    rng = streams.stream("bootstrap")
    n = topology.n
    model = topology.model
    # the directed sense links, sender ascending, then in sense_out order:
    # round by round, probes and reports draw once per link in this order
    links = [(i, j) for i in range(n) for j in topology.sense_out[i].tolist()]
    prr = np.array([model.prr_from_rx_power(topology.rx_dbm[i, j], control_bytes)
                    for i, j in links])
    n_links = len(links)

    # probes: the receiver's tally of the sender's broadcast_count probes
    probe_draws = rng.random(broadcast_count * n_links).reshape(broadcast_count, n_links)
    counts = dict(zip(links, (probe_draws < prr).sum(axis=0).tolist()))
    # report rounds: j broadcasts its counts; link (j, i) marks that i heard
    # j's report in some round, and so learned its count at j
    report_draws = rng.random(report_rounds * n_links).reshape(report_rounds, n_links)
    heard = dict(zip(links, (report_draws < prr).any(axis=0).tolist()))

    states = [RouteState(node=i, is_sink=(i == topology.sink)) for i in range(n)]
    for (i, j), forward in counts.items():
        reverse = counts.get((j, i), 0)
        if forward > 0 and reverse > 0 and heard[j, i]:
            states[i].etx[j] = 1.0 / ((forward / broadcast_count)
                                      * (reverse / broadcast_count))
    return states


def build_tree(states, max_children):
    """Deterministic sequential cost relaxation until a fixpoint.

    Nodes re-evaluate in id order and take the neighbor minimizing its cost
    plus the link ETX, ties to the lower id. With the cap enabled
    (max_children > 0) a neighbor already holding that many children is
    skipped, unless it is the current parent; children counts update
    immediately, so the cap holds throughout. Converges on any static link
    estimate.
    """
    n = len(states)
    children_count = [0] * n
    for _ in range(n + 2):
        changed = False
        for st in states:
            if st.is_sink:
                continue
            new_parent = None
            new_cost = math.inf
            for j, etx in st.etx.items():
                cost_j = states[j].my_cost
                if not math.isfinite(cost_j):
                    continue
                # re-adopting the current parent never re-counts us
                if max_children > 0 and children_count[j] - (j == st.parent) >= max_children:
                    continue
                cost = cost_j + etx
                if cost < new_cost or (cost == new_cost and j < new_parent):
                    new_parent = j
                    new_cost = cost
            if new_parent is None:
                continue
            better = new_cost < st.my_cost - 1e-12
            tie_lower = (abs(new_cost - st.my_cost) <= 1e-12
                         and st.parent is not None and new_parent < st.parent)
            if better or tie_lower:
                if st.parent is not None:
                    children_count[st.parent] -= 1
                st.parent = new_parent
                st.my_cost = new_cost
                children_count[new_parent] += 1
                changed = True
        if not changed:
            break
    return states


def preset_tree(topology, parents):
    """A fixed tree that skips bootstrap. `parents` maps child -> parent;
    nodes outside it are roots (local collection points, cost 0). Costs count
    hops; no link is estimated."""
    states = [RouteState(node=i, is_sink=(i not in parents)) for i in range(topology.n)]
    for child, parent in parents.items():
        hops, cur = 1, parent
        while cur in parents and hops <= len(parents):
            hops, cur = hops + 1, parents[cur]
        states[child].parent = parent
        states[child].my_cost = float(hops)
    return states


def disjoint_nodes(states):
    return [st.node for st in states if not st.is_sink and st.parent is None]


def tree_is_acyclic(states):
    """Every routed node must reach the sink by following parents."""
    n = len(states)
    for st in states:
        if st.is_sink or st.parent is None:
            continue
        seen = set()
        cur = st
        while cur.parent is not None:
            if cur.node in seen or len(seen) > n:
                return False
            seen.add(cur.node)
            cur = states[cur.parent]
        if not cur.is_sink:
            return False
    return True
