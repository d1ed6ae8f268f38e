import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from iamac_sim.config import ConfigError, desk_preset, paper_density_preset, paper_preset
from iamac_sim.engine import RandomStreams
from iamac_sim.harness import star_simulation
from iamac_sim.routing import RouteState, build_tree, disjoint_nodes, estimate_links
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


def tree(links, max_children, sinks=(0,)):
    """`build_tree` over hand-made ETX maps (node -> {neighbor: etx}, the
    highest node a key), node 0 the sink unless `sinks` says otherwise; the
    (parent, cost) of every node."""
    states = [RouteState(node=i, is_sink=(i in sinks), etx=dict(links.get(i, {})))
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


def test_build_tree_re_evaluates_the_holders_of_a_parent_that_fills():
    # cap 1, sinks 0, 6 and 9. In sweep 2 node 7 drops to 3 - 1e-13 and
    # node 10 stays on node 5 at 4.0 (7 is cheaper by less than 1e-12 and
    # has the higher id). In sweep 3 node 2 takes node 7's one place, so node
    # 10 looks again: node 3 ties node 5 at 4.0 and has the lower id
    links = {1: {0: 1.0}, 2: {7: 1.0 + 1e-13, 10: 1.0}, 3: {1: 2.0}, 4: {9: 1.0},
             5: {6: 2.0}, 7: {3: 1.0, 8: 1.0 - 1e-13}, 8: {4: 1.0},
             10: {3: 1.0, 5: 2.0, 7: 1.0}}
    got = tree(links, 1, sinks=(0, 6, 9))
    assert got[2][0] == 7 and got[7] == (8, 2.0 + (1.0 - 1e-13))
    assert got[10] == (3, 4.0)


def assert_acyclic(states):
    """Every routed node's cost exceeds its parent's, and every node without
    a parent is a root (cost 0) or stranded (cost inf). Costs then fall along
    every chain of parents, which so ends at a root: no node is its own
    ancestor, and every routed node reaches a root."""
    for st in states:
        if st.parent is not None:
            assert st.my_cost > states[st.parent].my_cost
        else:
            assert st.my_cost == (0.0 if st.is_sink else math.inf)


def _bootstrap(sc):
    sim = Simulation(sc)
    states = estimate_links(sim.topo, sim.streams, sc.broadcast_count,
                            sc.report_rounds, sc.control_bytes + sc.header_bytes)
    return sim, states


def two_node_etx(prr_01, draws, broadcast_count=4):
    """ETX of nodes 0 and 1 from `estimate_links` on a two-node network whose
    link 0->1 has reception probability `prr_01` (1->0 is perfect); the
    bootstrap stream hands out `draws` in a cycle."""
    prr = np.array([[np.nan, prr_01], [1.0, np.nan]])   # the diagonal is no link
    topo = SimpleNamespace(n=2, sink=0, sense_out=[np.array([1]), np.array([0])],
                           rx_dbm=prr,
                           model=SimpleNamespace(prr_from_rx_power=lambda p, _: p))
    cycle = itertools.cycle(draws)
    rng = SimpleNamespace(random=lambda size: np.array(list(itertools.islice(cycle, size))))
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
    assert_acyclic(states)


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
    # a scenario rejects report_rounds=0, so drive the estimator directly
    sc = desk_preset(seed=3)
    sim = Simulation(sc)
    states = estimate_links(sim.topo, sim.streams, sc.broadcast_count, 0,
                            sc.control_bytes + sc.header_bytes)
    assert all(st.etx == {} for st in states)
    assert len(disjoint_nodes(build_tree(states, sc.max_children))) == sc.node_count - 1


def scalar_estimate_links(topology, streams, broadcast_count, report_rounds, control_bytes):
    """The bootstrap estimator as one scalar draw per link and round, in
    loop order: the oracle for `estimate_links`' one vector draw per round."""
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
    heard = [[False] * n for _ in range(n)]   # heard[i][j]: i learned its count at j
    for _ in range(report_rounds):
        for j in range(n):
            for i in topology.sense_out[j]:
                if rng.random() < prr[(j, i)]:
                    heard[i][j] = True
    states = [RouteState(node=i, is_sink=(i == topology.sink)) for i in range(n)]
    for i in range(n):
        for j in topology.sense_out[i]:
            forward = counts[i][j] if heard[i][j] else 0
            reverse = counts[j][i]
            if forward > 0 and reverse > 0:
                states[i].etx[int(j)] = 1.0 / ((forward / broadcast_count)
                                              * (reverse / broadcast_count))
    return states


def assert_estimates_match_the_scalar_loop(sim, report_rounds=None):
    sc = sim.scenario
    rounds = sc.report_rounds if report_rounds is None else report_rounds
    args = (sc.broadcast_count, rounds, sc.control_bytes + sc.header_bytes)
    got = estimate_links(sim.topo, RandomStreams(sc.seed), *args)
    want = scalar_estimate_links(sim.topo, RandomStreams(sc.seed), *args)
    # same entries in the same order, each the same float
    assert [list(st.etx.items()) for st in got] == [list(st.etx.items()) for st in want]
    assert all(type(j) is int and type(etx) is float
               for st in got for j, etx in st.etx.items())
    return got


@pytest.mark.parametrize("preset, seed", [(desk_preset, 1), (desk_preset, 2),
                                          (desk_preset, 3), (desk_preset, 4),
                                          (paper_preset, 1)])
def test_vector_estimates_equal_the_scalar_loop(preset, seed):
    states = assert_estimates_match_the_scalar_loop(Simulation(preset(seed=seed)))
    assert any(st.etx for st in states)


def test_vector_estimates_without_reports_equal_the_scalar_loop():
    states = assert_estimates_match_the_scalar_loop(Simulation(desk_preset(seed=2)),
                                                    report_rounds=0)
    assert all(st.etx == {} for st in states)


def isolated_node_line():
    """The 8.75 m line of six nodes plus one node far from the rest."""
    positions = [(8.75 * k, 0.0) for k in range(6)] + [(500.0, 500.0)]
    return Simulation(desk_preset(seed=5, node_count=7), positions)


def test_vector_estimates_with_an_isolated_node_equal_the_scalar_loop():
    # a line of nodes 8.75 m apart, so two hops (17.5 m) lose about half of
    # their probes, and one node far from the rest
    sim = isolated_node_line()
    assert len(sim.topo.sense_out[6]) == 0
    assert all(6 not in out for out in sim.topo.sense_out)
    states = assert_estimates_match_the_scalar_loop(sim)
    assert states[6].etx == {}
    assert any(etx > 1.0 for st in states for etx in st.etx.values())


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
        assert_acyclic(states)
        assert disjoint_nodes(states) == []


@pytest.mark.parametrize("network, message", [
    (dict(parents={1: 2, 2: 1}), r"parents: 1: 2 leads into a cycle"),
    (dict(parents={1: 1}), r"parents: 1: 1 leads into a cycle"),
    (dict(parents={1: 0, 2: -1}), r"parents: node 2's parent: -1 is not a node id in \[0, 3\)"),
    (dict(parents={1: 7}), r"parents: node 1's parent: 7 is not a node id"),
    (dict(parents={5: 0}), r"parents: 5 is not a node id"),
    (dict(parents={1: 0.0}), r"parents: node 1's parent: 0.0 is not a node id"),
    (dict(sink=9), r"sink: 9 is not a node id"),
    (dict(parents={1: 0, 2: 1}, sink=2), r"parents: the sink 2 must be a root, got parent 1"),
    (dict(fixed_contention={9: [(0, 0.0)]}), r"fixed_contention: 9 is not a node id"),
])
def test_a_malformed_hand_placed_network_is_a_config_error(network, message):
    line = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]
    with pytest.raises(ConfigError, match=message):
        Simulation(desk_preset(), line, **network)


@pytest.mark.parametrize("protocol", ["iamac", "smac", "adaptive-smac"])
def test_a_one_node_placed_network_runs_its_frames_without_traffic(protocol):
    """The lone node is the sink, so no node samples: the run still frames
    out its horizon and conserves its (zero) packets."""
    sim = Simulation(desk_preset(protocol=protocol, horizon_s=10.0), [(0.0, 0.0)])
    res = sim.run()
    assert (res["status"], res["frames"], res["generated_packets"]) == ("ok", 10, 0)
    assert res["conserved"]


def full_sweep_build_tree(states, max_children):
    """`build_tree` as full sweeps, every non-sink node evaluated in id order
    each sweep: the oracle for its stale-only re-evaluation."""
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


@pytest.mark.parametrize("preset, seed, node_count", [
    (desk_preset, 1, 50), (desk_preset, 2, 50), (desk_preset, 3, 50), (desk_preset, 4, 50),
    (paper_preset, 1, 200), (paper_preset, 3, 200), (paper_preset, 2, 400),
    (isolated_node_line, None, 7),
])
def test_stale_only_tree_equals_full_sweeps(preset, seed, node_count):
    # at `desk` seed 2 the sink has no usable link and nothing is routed
    if preset is isolated_node_line:
        sim = isolated_node_line()
    else:
        sim = Simulation(preset(seed=seed, node_count=node_count))
    sc = sim.scenario
    links = estimate_links(sim.topo, sim.streams, sc.broadcast_count, sc.report_rounds,
                           sc.control_bytes + sc.header_bytes)
    for cap in (0, 1, 2, 8):
        got, want = ([RouteState(node=st.node, is_sink=st.is_sink, etx=st.etx)
                      for st in links] for _ in range(2))
        build_tree(got, cap)
        full_sweep_build_tree(want, cap)
        assert [(st.parent, st.my_cost) for st in got] == \
            [(st.parent, st.my_cost) for st in want]
