import pytest

from iamac_sim.config import desk_preset
from iamac_sim.energy import EnergyTable, RadioState
from iamac_sim.metrics import MetricsLedger
from iamac_sim.simulation import Simulation


def colliding_sets_offline(tx_log, rx_log, sense_in):
    """Recompute per-frame colliding sets from logged intervals.

    tx_log: (sender, t_start, t_end) for every data transmission.
    rx_log: (receiver, wanted_sender, t_start, t_end, frame_idx) per data reception.
    Returns {frame_idx: {receiver: cs_count}}.
    """
    frames = {}
    for receiver, wanted, t0, t1, frame in rx_log:
        bucket = frames.setdefault(frame, {}).setdefault(receiver, set())
        for sender, s0, s1 in tx_log:
            if sender == wanted or sender == receiver:
                continue
            if sender not in sense_in[receiver]:
                continue
            if s0 < t1 and t0 < s1:
                bucket.add(sender)
    return {
        frame: {r: len(s) for r, s in per_rx.items()}
        for frame, per_rx in frames.items()
    }


@pytest.fixture
def table():
    return EnergyTable()


def test_sleep_second_energy(table):
    # 1 s at 0.03 mA and 3 V
    assert table.energy_mj(RadioState.SLEEP, 1.0) == pytest.approx(0.09)


def test_zero_duration_zero_energy(table):
    ledger = MetricsLedger(1, table)
    # charging nothing leaves the whole battery as the residual it returns
    assert ledger.account(0, RadioState.LISTEN, 0.0) == table.battery_mj
    assert ledger.spent_mj(0) == 0.0 and ledger.state_time[0] == [0.0, 0.0, 0.0]


def test_listening_drains_more_than_sleeping(table):
    assert (table.energy_mj(RadioState.LISTEN, 1.0)
            > table.energy_mj(RadioState.SLEEP, 1.0))


def test_tx_current_non_decreasing_in_power(table):
    powers = [-10.0, -8.0, -4.0, 0.0, 4.0]
    currents = [table.tx_ma(p) for p in powers]
    assert currents == sorted(currents)
    assert table.tx_ma(0.0) == pytest.approx(25.4)


def test_idle_lifetime_closed_form(table):
    # a node asleep forever dies at capacity / sleep draw
    seconds = table.battery_mj / (table.sleep_ma * table.voltage)
    assert seconds == pytest.approx(2400.0 * 3600.0 / 0.03)
    doubled = EnergyTable(battery_mah=4800.0)
    assert doubled.battery_mj / (doubled.sleep_ma * doubled.voltage) == pytest.approx(2 * seconds)


def test_always_asleep_duty_cycle_is_zero(table):
    ledger = MetricsLedger(1, table)
    ledger.account(0, RadioState.SLEEP, 100.0)
    assert ledger.duty_cycle(0) == 0.0


def test_negative_duration_rejected(table):
    ledger = MetricsLedger(1, table)
    with pytest.raises(ValueError):
        ledger.account(0, RadioState.SLEEP, -1.0)


def test_delivery_before_birth_rejected(table):
    ledger = MetricsLedger(1, table)
    with pytest.raises(ValueError):
        ledger.record_delivery(0, 10.0, 9.0, 29)


def test_queue_time_weighted_mean(table):
    ledger = MetricsLedger(2, table)
    ledger.measure_end = 10.0
    ledger.queue_changed(0, 4, 2.0)   # len 0 for [0,2)
    ledger.queue_changed(0, 0, 7.0)   # len 4 for [2,7)
    ledger.close_queues(10.0)         # len 0 for [7,10)
    # node 0 integral = 20 over 10 s, node 1 contributes zero
    assert ledger.mean_queue_len() == pytest.approx(20.0 / (10.0 * 2))


def test_energy_ledger_conservation_on_a_run():
    sc = desk_preset(horizon_s=25.0, sampling_interval_s=5.0, seed=4,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    sim.run()
    table = sim.energy_table
    for node in range(sim.topo.n):
        spent = sim.ledger.spent_mj(node)
        drained = table.battery_mj - sim.ledger.residual_mj[node]
        assert spent == pytest.approx(drained, rel=1e-9)


def test_per_frame_state_times_sum_to_frame_duration():
    sc = desk_preset(horizon_s=20.0, sampling_interval_s=5.0, seed=4,
                     stop_on_first_death=False, collect_detail=True)
    sim = Simulation(sc)
    sim.run()
    assert sim.ledger.frame_state_deltas
    for deltas in sim.ledger.frame_state_deltas:
        for node_deltas in deltas:
            assert sum(node_deltas.values()) == pytest.approx(sc.frame_s, abs=1e-9)


def test_colliding_set_online_matches_offline_oracle():
    sc = desk_preset(node_count=20, area=(40.0, 40.0), horizon_s=60.0,
                     sampling_interval_s=4.0, seed=6, stop_on_first_death=False,
                     collect_detail=True)
    sim = Simulation(sc)
    res = sim.run()
    assert res["status"] == "ok"
    offline = colliding_sets_offline(sim.medium.tx_log, sim.rx_log,
                                     sim.topo.sense_in)
    online = {f: {r: c for r, c in d.items() if c > 0}
              for f, d in sim.ledger.cs_frames}
    online = {f: d for f, d in online.items() if d}
    offline = {f: {r: c for r, c in d.items() if c > 0}
               for f, d in offline.items()}
    offline = {f: d for f, d in offline.items() if d}
    assert online == offline


def test_lone_transmitter_has_empty_colliding_set():
    from iamac_sim.fixtures import build_fig6

    sim = build_fig6()
    sim.run()
    # sequential grants around one parent: nobody collides
    assert sim.ledger.cs_stats()["max_sum"] == 0


def test_payload_double_entry_bookkeeping():
    sc = desk_preset(horizon_s=30.0, sampling_interval_s=5.0, seed=3,
                     stop_on_first_death=False)
    sim = Simulation(sc)
    res = sim.run()
    assert res["conserved"]
    assert res["generated_packets"] == (res["delivered_packets"]
                                        + res["queued_packets"]
                                        + res["dropped_packets"])


def test_first_death_marks_lifetime():
    sc = desk_preset(horizon_s=400.0, seed=4, battery_mah=0.1)
    sim = Simulation(sc)
    res = sim.run()
    assert not res["lifetime_censored"]
    assert res["lifetime_s"] == sim.ledger.first_death_time
    assert res["lifetime_s"] < 400.0


def test_censored_lifetime_reports_horizon():
    sc = desk_preset(horizon_s=20.0, seed=4)
    res = Simulation(sc).run()
    assert res["lifetime_censored"]
    assert res["lifetime_s"] == 20.0


def test_accounting_freezes_when_the_run_stops_early():
    """After the lifetime event ends the run, later sample timers must not
    keep inflating generation counts or queue integrals."""
    sc = desk_preset(horizon_s=3000.0, seed=4, battery_mah=0.1,
                     sampling_interval_s=5.0)
    sim = Simulation(sc)
    res = sim.run()
    assert not res["lifetime_censored"]
    end = sim.measured_until
    expected_max = sim.topo.n * (end / sc.sampling_interval_s + 1)
    assert res["generated_packets"] <= expected_max
    assert res["conserved"]
    assert res["mean_queue_len"] >= 0.0
