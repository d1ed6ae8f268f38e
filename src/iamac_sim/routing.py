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

from .config import ConfigError, check_node_id


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
    got through, is unusable and gets no entry. `topology.sense_out` rows are
    ascending, as `Topology` builds them.
    """
    rng = streams.stream("bootstrap")
    n = topology.n
    prr_from_rx_power = topology.model.prr_from_rx_power
    # the directed sense links, sender ascending, then in sense_out order:
    # round by round, probes and reports draw once per link in this order
    sense_out = topology.sense_out
    receivers = np.concatenate(sense_out)
    senders = np.repeat(np.arange(n), [len(out) for out in sense_out])
    n_links = len(receivers)
    # one scalar call per link on plain floats: numpy's vector exp and power
    # may differ from libm's in the last bit
    prr = np.array([prr_from_rx_power(rx, control_bytes)
                    for rx in topology.rx_dbm[senders, receivers].tolist()])

    # probes: the receiver's tally of the sender's broadcast_count probes,
    # one draw per link and round
    counts = np.zeros(n_links, dtype=np.intp)
    for _ in range(broadcast_count):
        counts += rng.random(n_links) < prr
    # report rounds: j broadcasts its counts; link (j, i) marks that i heard
    # j's report in some round, and so learned its count at j
    heard = np.zeros(n_links, dtype=bool)
    for _ in range(report_rounds):
        heard |= rng.random(n_links) < prr

    # the reverse of link (i, j) is (j, i): bisect the ascending keys i*n + j;
    # a key past the last one has no reverse, and the clamp keeps it indexable
    keys = senders * n + receivers
    reverse_keys = receivers * n + senders
    reverse = np.searchsorted(keys, reverse_keys)
    np.minimum(reverse, n_links - 1, out=reverse)
    usable = ((counts > 0) & (keys[reverse] == reverse_keys)
              & (counts[reverse] > 0) & heard[reverse])
    forward = counts[usable] / broadcast_count
    forward *= counts[reverse[usable]] / broadcast_count
    etx = np.divide(1.0, forward, out=forward)

    states = [RouteState(node=i, is_sink=(i == topology.sink)) for i in range(n)]
    for i, j, link_etx in zip(senders[usable].tolist(), receivers[usable].tolist(),
                              etx.tolist()):
        states[i].etx[j] = link_etx
    return states


def build_tree(states, max_children):
    """Deterministic sequential cost relaxation until a fixpoint.

    Nodes re-evaluate in id order and take the neighbor minimizing its cost
    plus the link ETX, ties to the lower id. With the cap enabled
    (max_children > 0) a neighbor already holding that many children is
    skipped, unless it is the current parent; children counts update
    immediately, so the cap holds throughout. Converges on any static link
    estimate.

    A sweep re-evaluates only the stale nodes, those whose inputs changed
    since their last evaluation: a node that changes parent makes stale every
    node holding it in `etx` (its cost moved) and, under the cap, every node
    holding its old or new parent there (their children counts moved). Any
    other node would decide as before, so the tree is the one full sweeps build.

    The tree is acyclic: a node takes a parent at the parent's cost plus an
    ETX >= 1, and a cost otherwise only falls (a tie moves it by <= 1e-12).
    """
    n = len(states)
    cap = max_children > 0
    cost = [st.my_cost for st in states]
    parent = [st.parent for st in states]
    holders = [[] for _ in range(n)]   # holders[j]: the non-sink nodes with j in their etx
    for u, st in enumerate(states):
        if not st.is_sink:
            for j in st.etx:
                holders[j].append(u)
    children_count = [0] * n
    stale = [not st.is_sink for st in states]
    for _ in range(n + 2):
        changed = False
        for v in range(n):
            if not stale[v]:
                continue
            stale[v] = False
            my_parent = parent[v]
            new_parent = None
            new_cost = math.inf
            for j, etx in states[v].etx.items():
                cost_j = cost[j]
                if not math.isfinite(cost_j):
                    continue
                # re-adopting the current parent never re-counts us
                if cap and children_count[j] - (j == my_parent) >= max_children:
                    continue
                c = cost_j + etx
                if c < new_cost or (c == new_cost and j < new_parent):
                    new_parent = j
                    new_cost = c
            if new_parent is None:
                continue
            my_cost = cost[v]
            better = new_cost < my_cost - 1e-12
            tie_lower = (abs(new_cost - my_cost) <= 1e-12
                         and my_parent is not None and new_parent < my_parent)
            if better or tie_lower:
                for u in holders[v]:
                    stale[u] = True
                if my_parent is not None:
                    children_count[my_parent] -= 1
                    if cap:
                        for u in holders[my_parent]:
                            stale[u] = True
                parent[v] = new_parent
                cost[v] = new_cost
                children_count[new_parent] += 1
                if cap:
                    for u in holders[new_parent]:
                        stale[u] = True
                # v's own choice stands: its move left its candidates as they were
                stale[v] = False
                changed = True
        if not changed:
            break
    for st, p, c in zip(states, parent, cost):
        st.parent = p
        st.my_cost = c
    return states


def preset_tree(topology, parents):
    """A fixed tree that skips bootstrap. `parents` maps child -> parent;
    nodes outside it are roots (local collection points, cost 0), the sink
    among them. Costs count hops; no link is estimated. A key or parent that
    is not a node id, a sink with a parent, or a node whose parents never
    reach a root is a ConfigError."""
    n = topology.n
    for child, parent in parents.items():
        check_node_id(child, n, "parents")
        check_node_id(parent, n, f"parents: node {child}'s parent")
    if topology.sink in parents:
        raise ConfigError(f"parents: the sink {topology.sink} must be a root, "
                          f"got parent {parents[topology.sink]!r}")
    states = [RouteState(node=i, is_sink=(i not in parents)) for i in range(n)]
    for child, parent in parents.items():
        hops, cur = 1, parent
        while cur in parents and hops <= len(parents):
            hops, cur = hops + 1, parents[cur]
        if cur in parents:
            raise ConfigError(f"parents: {child}: {parent} leads into a cycle, "
                              f"never to a root")
        states[child].parent = parent
        states[child].my_cost = float(hops)
    return states


def disjoint_nodes(states):
    return [st.node for st in states if not st.is_sink and st.parent is None]
