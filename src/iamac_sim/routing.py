"""ETX spanning-tree construction.

Phase one: every node broadcasts a fixed number of probes and counts
receptions per neighbor; final report rounds piggyback the counts so both
directions become known. Phase two: costs propagate outward from the sink
(cost 0) and each node picks the parent minimizing advertised cost plus link
ETX, subject to the per-node children cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class NeighborEntry:
    neighbor: int
    received_count: int = 0
    heard_forward_count: int = -1    # our delivery count at them, learned via report
    etx: float = math.inf
    advertised_cost: float = math.inf
    advertised_children: int = 0

    @property
    def usable(self):
        return math.isfinite(self.etx)


@dataclass
class RouteState:
    node: int
    is_sink: bool = False
    my_cost: float = math.inf
    parent: int | None = None
    children: set = field(default_factory=set)
    neighbors: dict = field(default_factory=dict)   # id -> NeighborEntry

    def __post_init__(self):
        if self.is_sink:
            self.my_cost = 0.0


def estimate_links(topology, streams, broadcast_count=25, report_rounds=3,
                   control_bytes=34):
    """Bootstrap link estimation over a contention-free probe schedule.

    Returns a list of RouteState with populated neighbor tables. ETX is
    1/(p_f * p_r); an entry with zero receptions in either direction, or whose
    count report never got through, is unusable.
    """
    rng = streams.stream("bootstrap")
    n = topology.n
    model = topology.model
    counts = [[0] * n for _ in range(n)]   # counts[i][j]: j's tally of i's probes

    prr = {}
    for i in range(n):
        for j in topology.sense_out[i]:
            prr[(i, j)] = model.prr_from_rx_power(topology.rx_dbm[i, j], control_bytes)

    for _ in range(broadcast_count):
        for i in range(n):
            for j in topology.sense_out[i]:
                if rng.random() < prr[(i, j)]:
                    counts[i][j] += 1

    # report rounds: j broadcasts its counts; i hearing any round learns counts[i][j]
    heard = [[False] * n for _ in range(n)]   # heard[i][j]: i learned its count at j
    for _ in range(report_rounds):
        for j in range(n):
            for i in topology.sense_out[j]:
                # i must hear j's report (direction j -> i)
                if rng.random() < prr[(j, i)]:
                    heard[i][j] = True

    states = [RouteState(node=i, is_sink=(i == topology.sink)) for i in range(n)]
    for i in range(n):
        for j in topology.sense_out[i]:
            entry = NeighborEntry(neighbor=int(j))
            entry.received_count = counts[j][i]
            if heard[i][j]:
                entry.heard_forward_count = counts[i][j]
            p_r = counts[j][i] / broadcast_count
            p_f = (entry.heard_forward_count / broadcast_count
                   if entry.heard_forward_count > 0 else 0.0)
            if p_f > 0.0 and p_r > 0.0:
                entry.etx = 1.0 / (p_f * p_r)
            states[i].neighbors[int(j)] = entry
    return states


def select_parent(candidates, max_children):
    """Best admissible candidate: min (advertised_cost + etx), ties to lower id.

    A candidate is admissible when its link is usable, its cost is finite and,
    if the cap is enabled (max_children > 0), it advertises spare capacity.
    """
    best = None
    best_cost = math.inf
    for entry in candidates:
        if not entry.usable or not math.isfinite(entry.advertised_cost):
            continue
        if max_children > 0 and entry.advertised_children >= max_children:
            continue
        cost = entry.advertised_cost + entry.etx
        if cost < best_cost or (cost == best_cost and (best is None or entry.neighbor < best)):
            best = entry.neighbor
            best_cost = cost
    return best, best_cost


def build_tree(states, max_children, max_rounds=None):
    """Deterministic sequential cost relaxation until a fixpoint.

    Nodes re-evaluate in id order; children counts update immediately so the
    cap is respected throughout. Converges on any static link estimate.
    """
    n = len(states)
    if max_rounds is None:
        max_rounds = n + 2
    children_count = [0] * n
    for _ in range(max_rounds):
        changed = False
        for st in states:
            if st.is_sink:
                continue
            candidates = []
            for entry in st.neighbors.values():
                other = states[entry.neighbor]
                entry.advertised_cost = other.my_cost
                entry.advertised_children = children_count[entry.neighbor]
                if entry.neighbor == st.parent:
                    # re-adopting the current parent never re-counts us
                    entry = NeighborEntry(
                        neighbor=entry.neighbor, etx=entry.etx,
                        advertised_cost=entry.advertised_cost,
                        advertised_children=entry.advertised_children - 1,
                    )
                candidates.append(entry)
            new_parent, new_cost = select_parent(candidates, max_children)
            if new_parent is None:
                continue
            better = new_cost < st.my_cost - 1e-12
            tie_lower = (abs(new_cost - st.my_cost) <= 1e-12
                         and st.parent is not None and new_parent < st.parent)
            if better or tie_lower:
                if st.parent is not None:
                    children_count[st.parent] -= 1
                    states[st.parent].children.discard(st.node)
                st.parent = new_parent
                st.my_cost = new_cost
                children_count[new_parent] += 1
                states[new_parent].children.add(st.node)
                changed = True
        if not changed:
            break
    return states


def preset_tree(topology, parents):
    """A fixed tree that skips bootstrap. `parents` maps child -> parent;
    nodes outside it are roots (local collection points, cost 0). Costs count
    hops and every sensed neighbor is a perfect link (ETX 1)."""
    states = [RouteState(node=i, is_sink=(i not in parents)) for i in range(topology.n)]
    for child, parent in parents.items():
        hops, cur = 1, parent
        while cur in parents and hops <= len(parents):
            hops, cur = hops + 1, parents[cur]
        states[child].parent = parent
        states[child].my_cost = float(hops)
        states[parent].children.add(child)
    for st in states:
        for j in topology.sense_out[st.node]:
            st.neighbors[int(j)] = NeighborEntry(neighbor=int(j), etx=1.0,
                                                 advertised_cost=0.0)
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


def shortest_path_oracle(states, sink):
    """Offline Dijkstra over the same link estimates (uncapped reference)."""
    import heapq

    n = len(states)
    dist = [math.inf] * n
    dist[sink] = 0.0
    heap = [(0.0, sink)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        # relax: v hears u's cost over link v->u (v's estimate of that link)
        for v in range(n):
            entry = states[v].neighbors.get(u)
            if entry is None or not entry.usable:
                continue
            nd = d + entry.etx
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    parents = [None] * n
    for v in range(n):
        if v == sink or not math.isfinite(dist[v]):
            continue
        best, best_cost = None, math.inf
        for u, entry in states[v].neighbors.items():
            if not entry.usable or not math.isfinite(dist[u]):
                continue
            cost = dist[u] + entry.etx
            if cost < best_cost or (cost == best_cost and (best is None or u < best)):
                best, best_cost = u, cost
        parents[v] = best
    return dist, parents
