import tracemalloc

import numpy as np
import pytest

from iamac_sim.channel import MIN_DISTANCE_M
from iamac_sim.config import desk_preset, paper_preset
from iamac_sim.engine import RandomStreams
from iamac_sim.simulation import Simulation
from iamac_sim.topology import INFLUENCE_MARGIN_DB, Topology, random_topology


def per_row_topology(positions, model, tx_power_dbm, rng=None):
    """`Topology`'s matrices and neighbor lists built the plain way: squared
    coordinate differences summed over the last axis, and one `np.nonzero`
    per row or column. The oracle for its in-place, whole-mask build."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    dist = np.maximum(dist, MIN_DISTANCE_M)
    shadow = np.zeros((n, n)) if rng is None else rng.normal(
        0.0, model.shadowing_sigma, size=(n, n))
    np.fill_diagonal(shadow, 0.0)
    pl = (model.pl_d0 + 10.0 * model.path_loss_exponent * np.log10(dist / model.d0)
          + shadow)
    rx_dbm = tx_power_dbm - pl
    sense = rx_dbm >= model.busy_threshold_dbm
    influence = rx_dbm >= model.noise_floor - INFLUENCE_MARGIN_DB
    return {
        "dist": dist,
        "rx_dbm": rx_dbm,
        "rx_mw": np.power(10.0, rx_dbm / 10.0),
        "sense_out": [np.nonzero(row)[0] for row in sense],
        "influence_out": [np.nonzero(row)[0] for row in influence],
        "sense_in": [set(np.nonzero(col)[0].tolist()) for col in sense.T],
    }


def assert_topology_matches(topo, want):
    for name in ("dist", "rx_dbm", "rx_mw"):
        got = getattr(topo, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape
        assert got.tobytes() == want[name].tobytes(), name
    for name in ("sense_out", "influence_out"):
        got = getattr(topo, name)
        assert len(got) == len(want[name])
        for row, want_row in zip(got, want[name]):
            assert row.dtype == want_row.dtype
            assert row.tobytes() == want_row.tobytes(), name
    assert topo.sense_in == want["sense_in"]


@pytest.mark.parametrize("preset, seed", [(desk_preset, 1), (desk_preset, 4),
                                          (paper_preset, 1), (paper_preset, 3)])
def test_random_topology_equals_the_per_row_build(preset, seed):
    sc = preset(seed=seed)
    model = sc.link_model()
    topo = random_topology(sc.node_count, sc.area[0], sc.area[1], model,
                           sc.output_power_dbm, RandomStreams(seed))
    want = per_row_topology(topo.positions, model, sc.output_power_dbm,
                            RandomStreams(seed).stream("shadowing"))
    assert_topology_matches(topo, want)


def test_placed_topology_with_an_empty_last_row_equals_the_per_row_build():
    # a line of nodes, then one far away: the last node senses and
    # influences nobody, and nobody senses it
    positions = [(8.75 * k, 0.0) for k in range(6)] + [(500.0, 500.0)]
    sc = desk_preset(node_count=7)
    model = sc.link_model()
    topo = Topology(positions, 0, model, sc.output_power_dbm)
    assert len(topo.sense_out[-1]) == len(topo.influence_out[-1]) == 0
    assert topo.sense_in[-1] == set()
    assert all(len(row) for row in topo.sense_out[:-1])
    assert_topology_matches(topo, per_row_topology(positions, model, sc.output_power_dbm))


@pytest.mark.parametrize("positions", [
    np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(4), np.zeros((2, 2, 2)),
])
def test_positions_not_shaped_n_by_2_are_rejected(positions):
    model = desk_preset().link_model()
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        Topology(positions, 0, model, 0.0)


def test_setup_peaks_below_nine_n_by_n_float64_matrices():
    # `config.MAX_NODES` sizes the node count on this many matrices
    n = 300
    sc = paper_preset(seed=1, node_count=n)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sim = Simulation(sc)
        sim.bootstrap_routing()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert sim.status == "ok"
    assert peak < 9 * 8 * n * n
