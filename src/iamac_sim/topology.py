"""Node placement and the quasi-static per-link channel realization."""

from __future__ import annotations

import numpy as np

from .channel import MIN_DISTANCE_M, dbm_to_mw

INFLUENCE_MARGIN_DB = 6.0  # dB below the noise floor that still counts as interference


def _rows(mask):
    """The column indices of a square mask's True entries, row by row and
    ascending within a row, from one `nonzero` over the flattened mask; and
    each row's (start, end) slice bounds into them."""
    n = len(mask)
    flat = mask.ravel().nonzero()[0]
    ends = flat.searchsorted(np.arange(n, n * n + 1, n)).tolist()
    return np.remainder(flat, n, out=flat), zip([0] + ends, ends)


class Topology:
    """Positions plus frozen per-ordered-pair shadowing and received powers.

    Shadowing offsets are drawn from `rng` once per ordered pair (A->B and
    B->A independent); without `rng` there is no shadowing.
    """

    def __init__(self, positions, sink, model, tx_power_dbm, rng=None):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(f"positions must be shaped (n, 2), got {self.positions.shape}")
        self.n = n = len(self.positions)
        self.sink = sink
        self.model = model

        # dist[i, j] = sqrt(dx*dx + dy*dy), dx = x[i] - x[j], built in place;
        # each temporary goes before the next n x n array is allocated, so at
        # most three n x n float64 arrays are alive at once
        x, y = self.positions.T
        dist = np.subtract.outer(x, x)
        dist *= dist
        dy = np.subtract.outer(y, y)
        dy *= dy
        dist += dy
        del dy
        np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, np.inf)
        self.dist = np.maximum(dist, MIN_DISTANCE_M, out=dist)

        if rng is None:
            shadow = np.zeros((n, n))
        else:
            shadow = rng.normal(0.0, model.shadowing_sigma, size=(n, n))
        np.fill_diagonal(shadow, 0.0)

        # rx_dbm[i, j]: i transmits, heard at j; tx - (pl_d0 + 10*ple*log10(d/d0) + shadow)
        rx = self.dist / model.d0
        np.log10(rx, out=rx)
        rx *= 10.0 * model.path_loss_exponent
        rx += model.pl_d0
        rx += shadow
        del shadow
        self.rx_dbm = np.subtract(tx_power_dbm, rx, out=rx)
        self.rx_mw = self.rx_dbm / 10.0
        np.power(10.0, self.rx_mw, out=self.rx_mw)

        busy_thr = model.busy_threshold_dbm
        sense = self.rx_dbm >= busy_thr
        # sense_out[i]: the j that can sense/decode i's transmissions
        receivers, bounds = _rows(sense)
        self.sense_out = [receivers[start:end] for start, end in bounds]
        # sense_in[j]: the senders i that j can sense (the transpose, as a set)
        senders, bounds = _rows(sense.T)
        senders = senders.tolist()
        self.sense_in = [set(senders[start:end]) for start, end in bounds]
        # influence_out[i]: the j where i's power is non-negligible (SINR bookkeeping)
        heard, bounds = _rows(self.rx_dbm >= model.noise_floor - INFLUENCE_MARGIN_DB)
        self.influence_out = [heard[start:end] for start, end in bounds]

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
