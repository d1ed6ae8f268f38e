import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamac_sim.channel import dbm_to_mw, expected_prr, transitional_region
from iamac_sim.config import Scenario
from iamac_sim.energy import RadioState
from iamac_sim.packets import Packet, PacketKind
from iamac_sim.simulation import Simulation


@pytest.fixture
def model():
    return Scenario().link_model()


def test_path_loss_reference_distance(model):
    assert model.path_loss(1.0) == pytest.approx(55.0)


def test_path_loss_decade(model):
    assert model.path_loss(10.0) == pytest.approx(55.0 + 40.0)


def test_path_loss_shadow_shift(model):
    assert model.path_loss(model.d0, shadow=7.5) == pytest.approx(62.5)


def test_path_loss_rejects_nonpositive_distance(model):
    with pytest.raises(ValueError):
        model.path_loss(0.0)


def test_snr_closed_forms(model):
    assert model.snr(0.0, 1.0) == pytest.approx(50.0)
    assert model.snr(-8.0, 1.0) == pytest.approx(42.0)


def test_snr_linear_in_tx_power(model):
    base = model.snr(0.0, 7.3)
    assert model.snr(4.0, 7.3) == pytest.approx(base + 4.0)


def test_ber_limits(model):
    assert model.bit_error_rate(dbm_to_mw(80.0)) == 0.0
    assert model.bit_error_rate(dbm_to_mw(-300.0)) == pytest.approx(0.5)


def test_ber_monotone_sampled(model):
    assert model.bit_error_rate(dbm_to_mw(10.0)) > model.bit_error_rate(dbm_to_mw(20.0))


def test_prr_perfect_channel(model):
    assert model.packet_reception_prob(dbm_to_mw(90.0), 500) == 1.0


def test_prr_closed_form():
    # pick the SNR realizing pb = 1e-3 and check (1-1e-3)^360
    m = Scenario().link_model()
    snr_lin = 2.0 * math.log(0.5 / 1e-3) / m.bandwidth_to_rate
    snr = 10.0 * math.log10(snr_lin)
    assert m.packet_reception_prob(dbm_to_mw(snr), 45) == pytest.approx((1 - 1e-3) ** 360,
                                                                        rel=1e-6)


def test_prr_shorter_packets_never_worse(model):
    for snr in (-5.0, 5.0, 10.0, 15.0):
        assert (model.packet_reception_prob(dbm_to_mw(snr), 18)
                >= model.packet_reception_prob(dbm_to_mw(snr), 28))


def test_prr_rejects_zero_length(model):
    with pytest.raises(ValueError):
        model.packet_reception_prob(dbm_to_mw(10.0), 0)


def test_prr_against_bit_flip_oracle(model):
    """Monte-Carlo: flip 8L independent bits at rate pb, compare the
    all-clean frequency within three standard errors."""
    length = 45
    snr = dbm_to_mw(9.0)
    pb = model.bit_error_rate(snr)
    assert 0.0 < pb < 0.1
    rng = np.random.default_rng(42)
    trials = 100_000
    clean = (rng.random((trials, 8 * length)) >= pb).all(axis=1).mean()
    p = model.packet_reception_prob(snr, length)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(clean - p) < 3 * se + 1e-12


def resolved_sinr_db(wanted_mw, interference_mw):
    """The SINR, in dB, of the linear ratio the medium hands `on_packet` for
    a frame received at `wanted_mw` whose worst-case interference was
    `interference_mw` (at the default -105 dBm noise floor)."""
    sim = Simulation(Scenario(node_count=2, seed=1, shadowing_sigma=0.0),
                     [(0.0, 0.0), (3.0, 0.0)])
    for node in sim.nodes:
        node.state = RadioState.LISTEN
    got = []
    sim.nodes[0].on_packet = lambda pkt, sinr: got.append(sinr)
    # a Seda block frame is handed on whatever its SINR
    frame = Packet(kind=PacketKind.SEDA_BLOCK, src=1, dst=0, size=45)
    end = sim.medium.transmit(1, frame)
    (rec,) = sim.medium.receptions[0].values()
    # [wanted_mw, max_other_mw, interferers]
    rec[0], rec[1] = wanted_mw, interference_mw
    sim.engine.run_until(end + 1e-9)
    (sinr,) = got
    return 10.0 * math.log10(sinr)


def test_sinr_no_interferers_equals_snr(model):
    wanted = dbm_to_mw(-80.0)
    assert resolved_sinr_db(wanted, 0.0) == pytest.approx(-80.0 + 105.0)


def test_sinr_equal_power_interferer_hand_sum(model):
    wanted = dbm_to_mw(-80.0)
    expected = -80.0 - 10.0 * math.log10(model.noise_mw + wanted)
    assert resolved_sinr_db(wanted, wanted) == pytest.approx(expected)
    # wanted and interferer balance: the ratio sits essentially at 0 dB
    assert resolved_sinr_db(wanted, wanted) == pytest.approx(0.0, abs=0.02)


def test_sinr_noise_equal_interferer_costs_three_db(model):
    wanted = dbm_to_mw(-80.0)
    clean = resolved_sinr_db(wanted, 0.0)
    degraded = resolved_sinr_db(wanted, model.noise_mw)
    assert clean - degraded == pytest.approx(10.0 * math.log10(2.0))


def test_sinr_vanishing_interferer_limit(model):
    wanted = dbm_to_mw(-80.0)
    assert resolved_sinr_db(wanted, 1e-30) == pytest.approx(resolved_sinr_db(wanted, 0.0))


def test_sinr_strictly_below_snr_with_interference(model):
    wanted = dbm_to_mw(-80.0)
    assert resolved_sinr_db(wanted, dbm_to_mw(-100.0)) < resolved_sinr_db(wanted, 0.0)


@given(st.floats(min_value=0.5, max_value=80.0),
       st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_prr_monotone_in_distance_and_power(power_margin, d):
    m = Scenario(shadowing_sigma=0.0).link_model()
    tx = power_margin - 40.0
    p_near = m.packet_reception_prob(dbm_to_mw(m.snr(tx, d)), 45)
    p_far = m.packet_reception_prob(dbm_to_mw(m.snr(tx, d * 1.3)), 45)
    p_loud = m.packet_reception_prob(dbm_to_mw(m.snr(tx + 2.0, d)), 45)
    assert p_far <= p_near + 1e-12
    assert p_loud >= p_near - 1e-12


def test_transitional_region_zero_sigma_matches_closed_form():
    m = Scenario(shadowing_sigma=0.0).link_model()
    length = 45
    begin, end = transitional_region(m, 0.0, length)

    def crossing(level):
        pb = 1.0 - level ** (1.0 / (8 * length))
        snr_lin = 2.0 * math.log(0.5 / pb) / m.bandwidth_to_rate
        snr = 10.0 * math.log10(snr_lin)
        # snr = tx - pl_d0 - 10 eta log10(d) - noise
        return 10.0 ** ((0.0 - m.pl_d0 - m.noise_floor - snr)
                        / (10.0 * m.path_loss_exponent))

    assert begin == pytest.approx(crossing(0.9), rel=1e-3)
    assert end == pytest.approx(crossing(0.1), rel=1e-3)
    assert begin <= end


def test_transitional_region_degenerate_everything_connected():
    m = Scenario(shadowing_sigma=0.0).link_model()
    begin, end = transitional_region(m, 60.0, 45, d_max=50.0)
    assert begin == end == 50.0


def test_transitional_region_width_recorded():
    """The achieved default-region width is a recorded artifact property."""
    m = Scenario().link_model()
    begin, end = transitional_region(m, 0.0, 45)
    assert 0.0 < begin < end < 40.0


def test_expected_prr_marginalizes_shadowing():
    m = Scenario(shadowing_sigma=4.0).link_model()
    mid = 0.5 * sum(transitional_region(m, 0.0, 45))
    val = expected_prr(m, 0.0, mid, 45)
    assert 0.0 < val < 1.0
    # quadrature against plain Monte-Carlo over shadow draws
    rng = np.random.default_rng(7)
    draws = rng.normal(0.0, m.shadowing_sigma, 20_000)
    mc = np.mean([m.packet_reception_prob(dbm_to_mw(m.snr(0.0, mid, s)), 45)
                  for s in draws])
    assert val == pytest.approx(mc, abs=0.01)


def prr_through_db(model, wanted_mw, other_mw, noise_mw, length_bytes):
    """The reception chain as it was computed in dB: the SINR from two
    logarithms, then back to a linear ratio inside the bit error rate."""
    def mw_to_dbm(mw):
        return -math.inf if mw <= 0.0 else 10.0 * math.log10(mw)

    snr_db = mw_to_dbm(wanted_mw) - mw_to_dbm(noise_mw + other_mw)
    arg = 0.5 * 10.0 ** (snr_db / 10.0) * model.bandwidth_to_rate
    pb = 0.0 if arg > 700.0 else min(0.5 * math.exp(-arg), 0.5)
    return 1.0 if pb == 0.0 else (1.0 - pb) ** (8 * length_bytes)


def test_linear_sinr_prr_matches_the_db_round_trip():
    saturated = near_half = 0
    for noise_floor in (-115.0, -105.0, -95.0):
        model = Scenario(noise_floor=noise_floor).link_model()
        noise = model.noise_mw
        for wanted_dbm in np.arange(-140.0, -19.0, 1.25):
            wanted = dbm_to_mw(wanted_dbm)
            for other in (0.0, 1e-30, 0.01 * noise, noise, 0.5 * wanted,
                          dbm_to_mw(-100.0), dbm_to_mw(-70.0)):
                sinr = wanted / (noise + other)
                arg = 0.5 * sinr * model.bandwidth_to_rate
                saturated += arg > 700.0
                near_half += model.bit_error_rate(sinr) > 0.49
                for length in (1, 18, 45, 300):
                    new = model.packet_reception_prob(sinr, length)
                    old = prr_through_db(model, wanted, other, noise, length)
                    # `random()` draws multiples of 2**-53, so a draw below
                    # a smaller probability succeeds only at 0.0 either way
                    assert new == pytest.approx(old, rel=1e-12, abs=2.0 ** -53)
                    assert (new == 1.0) == (old == 1.0)
    # the grid reaches both the saturated branch and a coin-flip channel
    assert saturated > 0 and near_half > 0
