"""Node placement and the quasi-static per-link channel realization."""

from __future__ import annotations

import numpy as np

from .channel import MIN_DISTANCE_M, dbm_to_mw

INFLUENCE_MARGIN_DB = 6.0  # dB below the noise floor that still counts as interference


class Topology:
    """Positions plus frozen per-ordered-pair shadowing and received powers.

    Shadowing offsets are drawn from `rng` once per ordered pair (A->B and
    B->A independent); without `rng` there is no shadowing.
    """

    def __init__(self, positions, sink, model, tx_power_dbm, rng=None):
        self.positions = np.asarray(positions, dtype=float)
        self.n = len(self.positions)
        self.sink = sink
        self.model = model

        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self.dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(self.dist, np.inf)
        self.dist = np.maximum(self.dist, MIN_DISTANCE_M)

        if rng is None:
            shadow = np.zeros((self.n, self.n))
        else:
            shadow = rng.normal(0.0, model.shadowing_sigma, size=(self.n, self.n))
        np.fill_diagonal(shadow, 0.0)

        pl = (model.pl_d0
              + 10.0 * model.path_loss_exponent * np.log10(self.dist / model.d0)
              + shadow)
        self.rx_dbm = tx_power_dbm - pl          # rx_dbm[i, j]: i transmits, heard at j
        self.rx_mw = np.power(10.0, self.rx_dbm / 10.0)

        busy_thr = model.busy_threshold_dbm
        sense = self.rx_dbm >= busy_thr
        influence = self.rx_dbm >= model.noise_floor - INFLUENCE_MARGIN_DB
        # sense_out[i]: the j that can sense/decode i's transmissions
        self.sense_out = [np.nonzero(row)[0] for row in sense]
        # sense_in[j]: the senders i that j can sense (the transpose, as a set)
        self.sense_in = [set(np.nonzero(col)[0].tolist()) for col in sense.T]
        # influence_out[i]: the j where i's power is non-negligible (SINR bookkeeping)
        self.influence_out = [np.nonzero(row)[0] for row in influence]

        self.busy_thr_mw = dbm_to_mw(busy_thr)

    def average_neighbor_count(self):
        return float(np.mean([len(s) for s in self.sense_out]))


def random_topology(n, width, height, model, tx_power_dbm, streams):
    """Uniform placement with the sink injected at the middle of the top edge."""
    rng_pos = streams.stream("topology")
    pts = np.column_stack([
        rng_pos.uniform(0.0, width, size=n - 1),
        rng_pos.uniform(0.0, height, size=n - 1),
    ])
    sink_pos = np.array([[width / 2.0, height]])
    positions = np.vstack([sink_pos, pts])
    return Topology(positions, sink=0, model=model, tx_power_dbm=tx_power_dbm,
                    rng=streams.stream("shadowing"))
