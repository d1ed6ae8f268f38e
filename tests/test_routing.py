import math

import pytest

from iamac_sim.config import desk_preset, paper_density_preset
from iamac_sim.harness import star_simulation
from iamac_sim.routing import (NeighborEntry, build_tree, disjoint_nodes,
                               estimate_links, preset_tree, select_parent,
                               shortest_path_oracle, tree_is_acyclic)
from iamac_sim.simulation import Simulation
from iamac_sim.topology import fixed_topology


def entry(nid, etx=1.0, cost=0.0, children=0):
    return NeighborEntry(neighbor=nid, etx=etx, advertised_cost=cost,
                         advertised_children=children)


def test_etx_perfect_link_is_one():
    e = NeighborEntry(neighbor=1)
    e.etx = 1.0 / (1.0 * 1.0)
    assert e.etx == 1.0


def test_etx_half_forward_ratio():
    assert 1.0 / (0.5 * 1.0) == pytest.approx(2.0)


def test_select_parent_single_candidate():
    assert select_parent([entry(3, etx=1.5, cost=2.0)], 8) == (3, 3.5)


def test_select_parent_respects_children_cap():
    best_but_full = entry(1, etx=1.0, cost=0.0, children=8)
    second = entry(2, etx=1.0, cost=1.0, children=2)
    parent, cost = select_parent([best_but_full, second], 8)
    assert parent == 2
    assert cost == pytest.approx(2.0)


def test_select_parent_cap_disabled():
    best_but_full = entry(1, etx=1.0, cost=0.0, children=99)
    parent, _ = select_parent([best_but_full, entry(2, etx=1.0, cost=1.0)], 0)
    assert parent == 1


def test_select_parent_tie_breaks_to_lower_id():
    parent, _ = select_parent([entry(7, etx=1.0, cost=1.0),
                               entry(4, etx=1.0, cost=1.0)], 8)
    assert parent == 4


def test_select_parent_empty_admissible_set():
    parent, cost = select_parent([entry(1, etx=math.inf, cost=0.0)], 8)
    assert parent is None


def _bootstrap(sc):
    sim = Simulation(sc)
    states = estimate_links(sim.topo, sim.streams, sc.broadcast_count,
                            sc.report_rounds, sc.control_bytes + sc.header_bytes)
    return sim, states


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


def test_zero_reception_links_unusable():
    sc = desk_preset(seed=3)
    sim, states = _bootstrap(sc)
    for st in states:
        for e in st.neighbors.values():
            if e.received_count == 0 or e.heard_forward_count <= 0:
                assert not e.usable


def test_low_power_network_reported_disjoint():
    sc = paper_density_preset(seed=1, output_power_dbm=-10.0)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    assert sim.status == "disjoint"


def test_reference_scale_disjoint_below_minus_eight_dbm():
    from iamac_sim.config import paper_preset

    sc = paper_preset(seed=1, output_power_dbm=-10.0, horizon_s=5.0)
    sim = Simulation(sc)
    sim.bootstrap_routing()
    assert sim.status == "disjoint"


def test_preset_tree_star_and_chain():
    star = star_simulation(desk_preset(node_count=7, shadowing_sigma=0.0)).route_states
    chain_topo = fixed_topology([(6.0 * k, 0.0) for k in range(4)], sink=0,
                                model=desk_preset().link_model(), tx_power_dbm=0.0)
    chain = preset_tree(chain_topo, {1: 0, 2: 1, 3: 2})
    cases = [
        (star, [0], [None] + [0] * 6, {0: set(range(1, 7))}),
        (chain, [0], [None, 0, 1, 2], {0: {1}, 1: {2}, 2: {3}}),
    ]
    for states, roots, parents, children in cases:
        assert [st.node for st in states if st.is_sink] == roots
        assert [st.parent for st in states] == parents
        for st in states:
            assert st.children == children.get(st.node, set())
            assert all(e.etx == 1.0 for e in st.neighbors.values())
        assert tree_is_acyclic(states)
        assert disjoint_nodes(states) == []
    assert [st.my_cost for st in chain] == [0.0, 1.0, 2.0, 3.0]
