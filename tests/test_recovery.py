import itertools
import math

import numpy as np
import pytest

from iamac_sim.harness import transfer_benchmark
from iamac_sim.medium import Medium
from iamac_sim.recovery import (RecoveryParams, arq_capacity,
                                rts_success_prob, seda_capacity)


# -- contention probability ----------------------------------------------------

def enumerate_all_distinct(n, w):
    """Exhaustive oracle: fraction of slot assignments with no repeats."""
    total = 0
    good = 0
    for combo in itertools.product(range(w), repeat=n):
        total += 1
        good += len(set(combo)) == n
    return good / total


def test_single_contender_always_succeeds():
    for w in range(1, 9):
        assert rts_success_prob(1, w, "paper") == 1.0
        assert rts_success_prob(1, w, "distinct-slot") == 1.0


def test_two_contenders_four_slots():
    assert rts_success_prob(2, 4, "paper") == pytest.approx(0.75)
    assert rts_success_prob(2, 4, "distinct-slot") == pytest.approx(0.75)


def test_three_contenders_modes_diverge():
    assert rts_success_prob(3, 4, "paper") == pytest.approx(0.1875)
    assert rts_success_prob(3, 4, "distinct-slot") == pytest.approx(0.375)


def test_distinct_mode_matches_enumeration_exactly():
    for w in range(1, 7):
        for n in range(1, w + 1):
            assert rts_success_prob(n, w, "distinct-slot") == pytest.approx(
                enumerate_all_distinct(n, w), abs=1e-12)


def test_paper_mode_matches_printed_formula():
    for w in range(1, 7):
        for n in range(1, w + 1):
            printed = math.comb(w, n) * n * (1.0 / w) ** n
            assert rts_success_prob(n, w, "paper") == pytest.approx(
                min(printed, 1.0), abs=1e-12)


def test_distinct_mode_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    trials = 1_000_000
    for w in (4, 8):
        for n in (2, 3, w):
            draws = rng.integers(0, w, size=(trials, n))
            distinct = np.array([len(np.unique(row)) == n
                                 for row in draws[:200_000]])
            est = distinct.mean()
            p = rts_success_prob(n, w, "distinct-slot")
            se = math.sqrt(max(p * (1 - p), 1e-9) / len(distinct))
            assert abs(est - p) < 3 * se + 1e-3


def test_domain_errors():
    with pytest.raises(ValueError):
        rts_success_prob(0, 4)
    with pytest.raises(ValueError):
        rts_success_prob(2, 0)
    assert rts_success_prob(5, 4, "distinct-slot") == 0.0


# -- capacity closed forms --------------------------------------------------------

def test_arq_capacity_error_free():
    assert arq_capacity(1.0, 0.0) == 35          # floor(19200 / (360 + 184))


def test_arq_capacity_at_1e3():
    assert arq_capacity(1.0, 1e-3) == 27


def test_arq_capacity_saturation_limit():
    # every packet retransmitted once: floor(19200 / (2 * 544))
    assert arq_capacity(1.0, 1.0 - 1e-12) == 17


def test_seda_capacity_error_free():
    assert seda_capacity(1.0, 0.0) == 76         # floor((19200 - 128) / 248)


def test_capacities_monotone_grid():
    params = RecoveryParams()
    bers = [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2]
    budgets = [0.25, 0.5, 1.0, 2.0]
    for d in budgets:
        arqs = [arq_capacity(d, b, params) for b in bers]
        sedas = [seda_capacity(d, b, params) for b in bers]
        assert arqs == sorted(arqs, reverse=True)
        assert sedas == sorted(sedas, reverse=True)
    for b in bers:
        arqs = [arq_capacity(d, b, params) for d in budgets]
        sedas = [seda_capacity(d, b, params) for d in budgets]
        assert arqs == sorted(arqs)
        assert sedas == sorted(sedas)


def test_seda_payload_dominates_arq_on_grid():
    params = RecoveryParams()
    for ber in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        assert (seda_capacity(1.0, ber, params) * params.payload_len
                >= arq_capacity(1.0, ber, params) * params.payload_len)


def test_both_capacities_tend_to_fixed_values_at_high_ber():
    assert arq_capacity(1.0, 0.99) == arq_capacity(1.0, 0.999)
    assert seda_capacity(1.0, 0.99) == seda_capacity(1.0, 0.999)


def test_gamma_reduces_budget():
    assert arq_capacity(1.0, 0.0, RecoveryParams(gamma=0.5)) == arq_capacity(0.5, 0.0)


def test_domain_errors_capacity():
    with pytest.raises(ValueError):
        arq_capacity(1.0, 1.0)
    with pytest.raises(ValueError):
        seda_capacity(1.0, -0.1)
    assert arq_capacity(0.0, 0.0) == 0


# -- event-level transfers ---------------------------------------------------------

def test_arq_perfect_channel_timeline():
    """Five packets over a clean link: elapsed = 5(t_pkt + t_ack) + 4 gaps."""
    params = RecoveryParams(turnaround=0.002)
    r = transfer_benchmark("arq", 1.0, 0.0, frames=1, params=params, supply=5)
    t_pkt = params.airtime_bytes(params.pkt_len)
    t_ack = params.airtime_bytes(params.ack_len)
    assert r["delivered_per_frame"] == 5
    assert r["elapsed_first"] == pytest.approx(5 * (t_pkt + t_ack) + 4 * 0.002,
                                               abs=1e-6)


def test_arq_zero_budget_sends_nothing():
    r = transfer_benchmark("arq", 1e-6, 0.0, frames=1)
    assert r["mean_packets_sent"] == 0


def test_arq_dead_channel_consumes_retries_delivers_nothing():
    r = transfer_benchmark("arq", 0.5, 0.495, frames=1)
    assert r["mean_delivered_payload"] == 0
    assert r["mean_packets_sent"] > 0


def test_seda_perfect_channel_no_recovery_frames():
    r = transfer_benchmark("seda", 1.0, 0.0, frames=2)
    assert r["recovery_frames"] == 0
    assert r["mean_delivered_payload"] == pytest.approx(
        seda_capacity(1.0, 0.0) * 29)


def test_seda_single_corruption_one_recovery_one_retransmission(monkeypatch):
    """Force exactly one corrupted block: one recovery frame comes back and
    only that block is retransmitted."""
    calls = []

    def force_one(self, sinr, n_blocks, block_bytes):
        calls.append(n_blocks)
        if len(calls) == 1:
            flips = [False] * n_blocks
            flips[3] = True
            return flips
        return [False] * n_blocks

    monkeypatch.setattr(Medium, "block_corruption_draws", force_one)
    r = transfer_benchmark("seda", 1.0, 0.0, frames=1, supply=20)
    assert calls[0] == 20
    assert calls[1] == 1            # retransmission carries one block
    assert r["recovery_frames"] == 1
    assert r["mean_delivered_payload"] == pytest.approx(20 * 29)


def test_seda_cutoff_retransmission_keeps_block_queued(monkeypatch):
    """A recovery round with no budget left: the corrupted block stays queued
    rather than dropping (it never got its retransmission chance)."""
    calls = []

    def force_one(self, sinr, n_blocks, block_bytes):
        calls.append(n_blocks)
        if len(calls) == 1:
            flips = [False] * n_blocks
            flips[3] = True
            return flips
        return [False] * n_blocks

    monkeypatch.setattr(Medium, "block_corruption_draws", force_one)
    r = transfer_benchmark("seda", 1.0, 0.0, frames=1)
    assert len(calls) == 1
    assert r["recovery_frames"] == 1
    assert r["delivered_per_frame"] == calls[0] - 1


def test_transfer_consistency_with_capacity():
    for ber in (1e-4, 1e-3):
        cap = arq_capacity(1.0, ber)
        r = transfer_benchmark("arq", 1.0, ber, frames=150)
        assert r["mean_sent_payload"] == pytest.approx(cap * 29, rel=0.10)
        cap_s = seda_capacity(1.0, ber)
        rs = transfer_benchmark("seda", 1.0, ber, frames=150)
        assert rs["mean_delivered_payload"] == pytest.approx(cap_s * 29, rel=0.10)


PINNED_TRANSFERS = {
    ("arq", 0.0): {
        "mean_packets_sent": 35.0, "mean_sent_payload": 1015.0,
        "mean_delivered_payload": 1015.0, "delivered_per_frame": 35,
        "elapsed_first": 0.9916666666666663, "recovery_frames": 0, "frames": 60},
    ("arq", 1e-4): {
        "mean_packets_sent": 33.38333333333333, "mean_sent_payload": 968.1166666666667,
        "mean_delivered_payload": 965.7, "delivered_per_frame": 30,
        "elapsed_first": 0.9916716666666665, "recovery_frames": 0, "frames": 60},
    ("arq", 1e-3): {
        "mean_packets_sent": 25.0, "mean_sent_payload": 725.0,
        "mean_delivered_payload": 653.4666666666667, "delivered_per_frame": 23,
        "elapsed_first": 0.991682666666667, "recovery_frames": 0, "frames": 60},
    ("seda", 0.0): {
        "mean_packets_sent": 76.0, "mean_sent_payload": 2204.0,
        "mean_delivered_payload": 2204.0, "delivered_per_frame": 76,
        "elapsed_first": 0.9970853333333334, "recovery_frames": 0, "frames": 60},
    ("seda", 1e-4): {
        "mean_packets_sent": 74.83333333333333, "mean_sent_payload": 2170.1666666666665,
        "mean_delivered_payload": 2105.883333333333, "delivered_per_frame": 70,
        "elapsed_first": 0.9995853333333334, "recovery_frames": 56, "frames": 60},
    ("seda", 1e-3): {
        "mean_packets_sent": 69.45, "mean_sent_payload": 2014.0500000000002,
        "mean_delivered_payload": 1672.8166666666666, "delivered_per_frame": 59,
        "elapsed_first": 0.9933363333333335, "recovery_frames": 109, "frames": 60},
}


@pytest.mark.parametrize("recovery,ber", sorted(PINNED_TRANSFERS))
def test_transfer_benchmark_pinned(recovery, ber):
    """Exact per-frame figures of 60 transfer frames, recorded from the
    reference implementation; any drift in wiring or RNG use shows here."""
    assert transfer_benchmark(recovery, 1.0, ber, frames=60) == PINNED_TRANSFERS[(recovery, ber)]
