"""Lossy wireless medium math: log-distance path loss with shadowing, SNR,
non-coherent FSK bit errors, packet reception probability and the
transitional-region characterization. The error model takes a linear SNR (or
SINR); link-budget callers in dB convert with `dbm_to_mw`."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

MIN_DISTANCE_M = 1e-3  # link budgets treat closer nodes as this far apart


@dataclass
class LinkModel:
    path_loss_exponent: float
    pl_d0: float                   # dB at reference distance
    d0: float                      # meters
    noise_floor: float             # dBm
    shadowing_sigma: float         # dB, per ordered link realization
    bandwidth_to_rate: float       # noise bandwidth over bit rate in the FSK BER map
    radio_speed: float             # bits/second
    cs_threshold: float            # dB above noise floor -> carrier "busy"

    def __post_init__(self):
        if self.path_loss_exponent <= 0 or self.d0 <= 0 or self.radio_speed <= 0:
            raise ValueError("path_loss_exponent, d0 and radio_speed must be positive")
        if self.shadowing_sigma < 0:
            raise ValueError("shadowing_sigma must be >= 0")

    # -- deterministic link budget ------------------------------------

    def path_loss(self, d, shadow=0.0):
        if d <= 0:
            raise ValueError(f"distance must be positive, got {d}")
        return self.pl_d0 + 10.0 * self.path_loss_exponent * math.log10(d / self.d0) + shadow

    def snr(self, tx_power_dbm, d, shadow=0.0):
        return tx_power_dbm - self.path_loss(d, shadow) - self.noise_floor

    # -- error model ---------------------------------------------------

    def bit_error_rate(self, snr_lin):
        """Non-coherent FSK over NRZ: 0.5*exp(-snr/2 * bw_ratio), with `snr_lin`
        a non-negative linear ratio, so the rate never exceeds 0.5."""
        arg = 0.5 * snr_lin * self.bandwidth_to_rate
        if arg > 700.0:
            return 0.0
        return 0.5 * math.exp(-arg)

    def packet_reception_prob(self, snr_lin, length_bytes):
        if length_bytes < 1:
            raise ValueError(f"packet length must be >= 1 byte, got {length_bytes}")
        pb = self.bit_error_rate(snr_lin)
        if pb == 0.0:
            return 1.0
        return (1.0 - pb) ** (8 * length_bytes)

    def prr_from_rx_power(self, rx_dbm, length_bytes):
        return self.packet_reception_prob(dbm_to_mw(rx_dbm - self.noise_floor), length_bytes)

    # -- threshold helpers ----------------------------------------------

    @property
    def busy_threshold_dbm(self):
        return self.noise_floor + self.cs_threshold

    @property
    def noise_mw(self):
        return 10.0 ** (self.noise_floor / 10.0)


def dbm_to_mw(dbm):
    """dBm to mW; equally, a power ratio in dB to a linear ratio."""
    return 10.0 ** (dbm / 10.0)


# Gauss-Hermite abscissas for marginalizing N(0, sigma) shadowing.
_GH_POINTS = 33


@functools.cache
def _gauss_hermite():
    # computed on first use: importing numpy.polynomial costs about 2 MiB
    import numpy.polynomial.hermite_e

    x, w = numpy.polynomial.hermite_e.hermegauss(_GH_POINTS)
    return x, w / w.sum()


def expected_prr(model, tx_power_dbm, d, length_bytes):
    """Reception probability at distance d with shadowing marginalized out."""
    if model.shadowing_sigma == 0.0:
        return model.packet_reception_prob(dbm_to_mw(model.snr(tx_power_dbm, d)), length_bytes)
    total = 0.0
    for x, w in zip(*_gauss_hermite()):
        s = model.shadowing_sigma * x
        snr = dbm_to_mw(model.snr(tx_power_dbm, d, s))
        total += w * model.packet_reception_prob(snr, length_bytes)
    return total


def _crossing_distance(model, tx_power_dbm, length_bytes, level, d_max):
    """Bisect the (monotone, shadow-marginalized) PRR curve for PRR == level."""
    lo, hi = model.d0 * 1e-3, d_max
    if expected_prr(model, tx_power_dbm, hi, length_bytes) > level:
        return hi  # still above the level at the search bound: degenerate
    if expected_prr(model, tx_power_dbm, lo, length_bytes) < level:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if expected_prr(model, tx_power_dbm, mid, length_bytes) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def transitional_region(model, tx_power_dbm, length_bytes, d_max=1000.0):
    """(begin, end) distances where expected PRR crosses 0.9 and 0.1.

    If the whole search range stays above 0.9 both ends collapse to d_max,
    which callers should treat as a degenerate (everything-connected) case.
    """
    begin = _crossing_distance(model, tx_power_dbm, length_bytes, 0.9, d_max)
    end = _crossing_distance(model, tx_power_dbm, length_bytes, 0.1, d_max)
    if end < begin:
        end = begin
    return begin, end
