import hashlib
import itertools
import math
from types import SimpleNamespace

import pytest

from iamac_sim.config import desk_preset, paper_density_preset, paper_preset
from iamac_sim.harness import star_simulation
from iamac_sim.routing import (RouteState, build_tree, disjoint_nodes, estimate_links,
                               tree_is_acyclic)
from iamac_sim.simulation import Simulation


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
            etx = states[v].etx.get(u)
            if etx is None:
                continue
            nd = d + etx
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    parents = [None] * n
    for v in range(n):
        if v == sink or not math.isfinite(dist[v]):
            continue
        best, best_cost = None, math.inf
        for u, etx in states[v].etx.items():
            if not math.isfinite(dist[u]):
                continue
            cost = dist[u] + etx
            if cost < best_cost or (cost == best_cost and (best is None or u < best)):
                best, best_cost = u, cost
        parents[v] = best
    return dist, parents


def tree(links, max_children):
    """`build_tree` over hand-made ETX maps (node -> {neighbor: etx}, the
    highest node a key), node 0 the sink; the (parent, cost) of every node."""
    states = [RouteState(node=i, is_sink=(i == 0), etx=dict(links.get(i, {})))
              for i in range(max(links) + 1)]
    return [(st.parent, st.my_cost) for st in build_tree(states, max_children)]


def test_build_tree_single_candidate():
    assert tree({1: {0: 2.0}, 2: {1: 1.5}}, 8) == [(None, 0.0), (0, 2.0), (1, 3.5)]


def test_build_tree_respects_children_cap():
    # the sink is full after nodes 1 and 2, so node 3 goes through node 1
    links = {1: {0: 1.0}, 2: {0: 1.0}, 3: {0: 1.0, 1: 1.0}}
    assert tree(links, 2)[3] == (1, 2.0)


def test_build_tree_cap_disabled():
    links = {1: {0: 1.0}, 2: {0: 1.0}, 3: {0: 1.0, 1: 1.0}}
    assert tree(links, 0)[3] == (0, 1.0)


def test_build_tree_tie_breaks_to_lower_id():
    # node 9 hears 7 and 4 at equal cost
    assert tree({4: {0: 1.0}, 7: {0: 1.0}, 9: {7: 1.0, 4: 1.0}}, 8)[9] == (4, 2.0)
    # node 4 is routed only on the second pass, through node 8: node 9 takes
    # 7 first, then moves to 4 at equal cost
    links = {4: {8: 0.5}, 7: {0: 1.0}, 8: {0: 0.5}, 9: {7: 1.0, 4: 1.0}}
    assert tree(links, 8)[9] == (4, 2.0)


def test_build_tree_no_candidate_with_finite_cost():
    # nodes 1 and 2 hear only each other, node 3 hears nobody
    got = tree({1: {2: 1.0}, 2: {1: 1.0}, 3: {}}, 8)
    assert got == [(None, 0.0)] + [(None, math.inf)] * 3


def test_build_tree_parent_at_cap_is_kept():
    # node 2 fills up (children 1 and 4) before it moves from the sink to the
    # cheaper node 3; its children stay and follow its cost down
    links = {1: {2: 2.0}, 2: {0: 3.0, 3: 1.0}, 3: {0: 1.0}, 4: {2: 3.0}}
    assert tree(links, 2) == [(None, 0.0), (2, 4.0), (3, 2.0), (0, 1.0), (2, 5.0)]


def _bootstrap(sc):
    sim = Simulation(sc)
    states = estimate_links(sim.topo, sim.streams, sc.broadcast_count,
                            sc.report_rounds, sc.control_bytes + sc.header_bytes)
    return sim, states


def two_node_etx(prr_01, draws, broadcast_count=4):
    """ETX of nodes 0 and 1 from `estimate_links` on a two-node network whose
    link 0->1 has reception probability `prr_01` (1->0 is perfect); the
    bootstrap stream hands out `draws` in a cycle."""
    prr = {(0, 1): prr_01, (1, 0): 1.0}
    topo = SimpleNamespace(n=2, sink=0, sense_out=[[1], [0]], rx_dbm=prr,
                           model=SimpleNamespace(prr_from_rx_power=lambda p, _: p))
    rng = SimpleNamespace(random=itertools.cycle(draws).__next__)
    streams = SimpleNamespace(stream=lambda name: rng)
    states = estimate_links(topo, streams, broadcast_count, 1, 20)
    return states[0].etx, states[1].etx


def test_etx_perfect_link_is_one():
    assert two_node_etx(1.0, [0.5]) == ({1: 1.0}, {0: 1.0})


def test_etx_half_forward_ratio():
    # probes alternate 0->1, 1->0; every second 0->1 probe is lost
    etx0, etx1 = two_node_etx(0.5, [0.0, 0.0, 0.99, 0.0])
    assert etx0 == {1: pytest.approx(2.0)}
    assert etx1 == {0: pytest.approx(2.0)}


def test_bootstrap_tree_full_and_acyclic():
    sc = desk_preset(seed=4)
    sim, states = _bootstrap(sc)
    build_tree(states, sc.max_children)
    assert disjoint_nodes(states) == []
    assert tree_is_acyclic(states)


def test_costs_strictly_decrease_toward_sink():
    sc = desk_preset(seed=4)
    sim, states = _bootstrap(sc)
    build_tree(states, sc.max_children)
    for st in states:
        if st.parent is not None:
            assert states[st.parent].my_cost < st.my_cost


def test_children_cap_respected():
    sc = desk_preset(seed=4, max_children=3)
    sim, states = _bootstrap(sc)
    build_tree(states, 3)
    counts = {}
    for st in states:
        if st.parent is not None:
            counts[st.parent] = counts.get(st.parent, 0) + 1
    assert all(c <= 3 for c in counts.values())


def test_uncapped_tree_matches_shortest_path_oracle():
    sc = paper_density_preset(seed=1, node_count=20, area=(28.0, 28.0))
    sim, states = _bootstrap(sc)
    build_tree(states, max_children=0)
    dist, parents = shortest_path_oracle(states, sim.topo.sink)
    for st in states:
        if st.is_sink:
            continue
        if parents[st.node] is None:
            assert st.parent is None
        else:
            assert st.my_cost == pytest.approx(dist[st.node], rel=1e-9)
            assert st.parent == parents[st.node]


def test_every_etx_comes_from_probe_tallies():
    sc = desk_preset(seed=3)
    sim, states = _bootstrap(sc)
    bc = sc.broadcast_count
    tallies = {1.0 / ((f / bc) * (r / bc))
               for f in range(1, bc + 1) for r in range(1, bc + 1)}
    usable = sensed = 0
    for st in states:
        neighbors = {int(j) for j in sim.topo.sense_out[st.node]}
        assert set(st.etx) <= neighbors
        assert all(etx in tallies for etx in st.etx.values())
        usable += len(st.etx)
        sensed += len(neighbors)
    assert 0 < usable < sensed


def test_without_count_reports_no_link_is_usable():
    sim = Simulation(desk_preset(seed=3, report_rounds=0))
    sim.bootstrap_routing()
    assert all(st.etx == {} for st in sim.route_states)
    assert sim.status == "disjoint"


def test_low_power_network_reported_disjoint():
    sc = paper_density_preset(seed=1, output_power_dbm=-10.0)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    assert sim.status == "disjoint"


def test_reference_scale_disjoint_below_minus_eight_dbm():
    sc = paper_preset(seed=1, output_power_dbm=-10.0, horizon_s=5.0)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    assert sim.status == "disjoint"


def test_preset_tree_star_and_chain():
    star = star_simulation(desk_preset(node_count=7, shadowing_sigma=0.0)).route_states
    chain = Simulation(desk_preset(output_power_dbm=0.0), [(6.0 * k, 0.0) for k in range(4)],
                       parents={1: 0, 2: 1, 3: 2}).route_states
    cases = [(star, [None] + [0] * 6, [0.0] + [1.0] * 6),
             (chain, [None, 0, 1, 2], [0.0, 1.0, 2.0, 3.0])]
    for states, parents, costs in cases:
        assert [st.node for st in states if st.is_sink] == [0]
        assert [st.parent for st in states] == parents
        assert [st.my_cost for st in states] == costs
        # preset trees carry no link estimates
        assert all(st.etx == {} for st in states)
        assert tree_is_acyclic(states)
        assert disjoint_nodes(states) == []


# SHA-256 of repr([(parent, my_cost), ...]) after bootstrap; the cap of 3
# moves parents at `desk` seed 4, while at `paper` seed 1 no node has over 6
PINNED_BOOTSTRAP_TREES = {
    ("paper", 1, 8): "3cd876243bde8b055559718ea5aa602b87180d478d7e5bceb7edc9f355340527",
    ("paper", 3, 8): "f6d1bda7ba920f44959e7cc82c33a3ebd982d4f2b6bef84e4028710f3a426512",
    ("desk", 4, 8): "d750ea3bc4f1e469738f4c491524529245463d0052e3a1e250da4ffcf7581c36",
    ("desk", 4, 3): "c4457b8edee1ed5630a83c58219be887e93f2935a1d25d233865d35d227bfc65",
}


def test_bootstrap_trees_match_pinned_digests():
    presets = {"paper": paper_preset, "desk": desk_preset}
    got = {}
    for name, seed, cap in PINNED_BOOTSTRAP_TREES:
        sim = Simulation(presets[name](seed=seed, max_children=cap))
        sim.bootstrap_routing()
        assert sim.status == "ok"
        tree = repr([(st.parent, st.my_cost) for st in sim.route_states])
        got[name, seed, cap] = hashlib.sha256(tree.encode("utf-8")).hexdigest()
    assert got == PINNED_BOOTSTRAP_TREES
