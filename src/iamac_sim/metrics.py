"""Per-run accounting: energy by radio state, colliding sets, latency,
throughput, duty cycle and queue statistics."""

from __future__ import annotations

import math

from .energy import RadioState

SLEEP, LISTEN = RadioState.SLEEP, RadioState.LISTEN


class MetricsLedger:
    def __init__(self, n_nodes, energy_table, topology=None, collect_detail=False):
        self.n = n_nodes
        self.table = energy_table
        self.topo = topology
        self.collect_detail = collect_detail

        # per node, seconds and mJ in each state, in RadioState order:
        # SLEEP, LISTEN, TX
        self.state_time = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        self.state_energy = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        # mJ per second in a state: the (current * voltage) factor of
        # EnergyTable.energy_mj, so rate * duration is the same product
        self._sleep_rate = energy_table.current_ma(SLEEP) * energy_table.voltage
        self._listen_rate = energy_table.current_ma(LISTEN) * energy_table.voltage
        self._tx_rate = {}                   # output power (dBm) -> rate
        self.switch_energy = [0.0] * n_nodes
        self.sample_energy = [0.0] * n_nodes
        self.residual_mj = [energy_table.battery_mj] * n_nodes

        self.first_death_time = None

        # colliding sets: per-frame sets rebuilt at each frame boundary
        self._frame_cs = {}                  # receiver -> set of interferer ids
        self.cs_sum_per_frame = []
        self.cs_frames = []                  # (frame_idx, {receiver: cs})  when detail
        self.interferer_distances = []

        # traffic accounting (payload bytes)
        self.generated_packets = 0
        self.delivered_records = []          # (origin, born_at, delivered_at, payload)
        self.dropped_packets = 0

        # queue statistics: time-weighted integral per node
        self._queue_len = [0] * n_nodes
        self._queue_last_t = [0.0] * n_nodes
        self._queue_integral = [0.0] * n_nodes

        self.measure_end = 0.0

        # per-frame state-time snapshots (tests)
        self._frame_state_mark = None
        self.frame_state_deltas = []

        # criterion 3 style counters
        self.data_packets_started = 0

    # -- energy ---------------------------------------------------------

    def account(self, node, state, duration, power_dbm=0.0):
        """Charge `duration` seconds in `state`; returns the energy in mJ."""
        if duration < 0:
            raise ValueError("negative duration")
        if duration == 0.0:
            return 0.0
        if state is SLEEP:
            k, rate = 0, self._sleep_rate
        elif state is LISTEN:
            k, rate = 1, self._listen_rate
        else:
            k, rate = 2, self._tx_rate.get(power_dbm)
            if rate is None:
                table = self.table
                rate = self._tx_rate[power_dbm] = table.current_ma(state, power_dbm) * table.voltage
        mj = rate * duration
        self.state_time[node][k] += duration
        self.state_energy[node][k] += mj
        self.residual_mj[node] -= mj
        return mj

    def account_switch(self, node):
        mj = self.table.switch_mj
        self.switch_energy[node] += mj
        self.residual_mj[node] -= mj

    def account_sample(self, node):
        mj = self.table.sample_mj
        self.sample_energy[node] += mj
        self.residual_mj[node] -= mj

    def record_death(self, t):
        if self.first_death_time is None:
            self.first_death_time = t

    def spent_mj(self, node):
        return (sum(self.state_energy[node])
                + self.switch_energy[node] + self.sample_energy[node])

    # -- colliding set ----------------------------------------------------

    def record_data_reception(self, receiver, wanted_sender, interferers):
        if not interferers:
            return
        bucket = self._frame_cs.setdefault(receiver, set())
        for i in interferers:
            if i == wanted_sender or i in bucket:
                continue
            bucket.add(i)
            if self.topo is not None:
                self.interferer_distances.append(self.topo.distance(i, receiver))

    def flush_frame_cs(self, frame_idx):
        total = sum(len(s) for s in self._frame_cs.values())
        self.cs_sum_per_frame.append(total)
        if self.collect_detail:
            self.cs_frames.append((frame_idx, {r: len(s) for r, s in self._frame_cs.items()}))
        self._frame_cs = {}

    # -- traffic -----------------------------------------------------------

    def record_generated(self):
        self.generated_packets += 1

    def record_delivery(self, origin, born_at, delivered_at, payload):
        if delivered_at < born_at:
            raise ValueError("delivery precedes generation")
        self.delivered_records.append((origin, born_at, delivered_at, payload))

    def record_drop(self, n=1):
        self.dropped_packets += n

    # -- queues -------------------------------------------------------------

    def queue_changed(self, node, new_len, t):
        self._queue_integral[node] += self._queue_len[node] * (t - self._queue_last_t[node])
        self._queue_len[node] = new_len
        self._queue_last_t[node] = t

    def close_queues(self, t):
        for node in range(self.n):
            self.queue_changed(node, self._queue_len[node], t)

    def mean_queue_len(self):
        if self.measure_end <= 0:
            return 0.0
        return sum(self._queue_integral) / (self.measure_end * self.n)

    # -- per-frame state bookkeeping (tests) ---------------------------------

    def mark_frame_state(self):
        if not self.collect_detail:
            return
        self._frame_state_mark = [list(st) for st in self.state_time]

    def snap_frame_state(self):
        if self._frame_state_mark is None:
            return
        self.frame_state_deltas.append([
            {s: now - then for s, now, then in zip(RadioState, st, mark)}
            for st, mark in zip(self.state_time, self._frame_state_mark)
        ])
        self._frame_state_mark = [list(st) for st in self.state_time]

    # -- summaries ---------------------------------------------------------

    def duty_cycle(self, node):
        times = self.state_time[node]
        total = sum(times)
        if total == 0.0:
            return 0.0
        return (times[1] + times[2]) / total   # LISTEN + TX

    def mean_duty_cycle(self):
        return sum(self.duty_cycle(i) for i in range(self.n)) / self.n

    def latency_stats(self):
        if not self.delivered_records:
            return None
        lats = sorted(d - b for _, b, d, _ in self.delivered_records)
        mean = sum(lats) / len(lats)
        p95 = lats[min(len(lats) - 1, int(math.ceil(0.95 * len(lats))) - 1)]
        return {"mean": mean, "p95": p95, "count": len(lats)}

    def throughput_bps(self):
        if self.measure_end <= 0:
            return 0.0
        return sum(p for _, _, _, p in self.delivered_records) / self.measure_end

    def cs_stats(self):
        if not self.cs_sum_per_frame:
            return {"mean_sum": 0.0, "max_sum": 0}
        mean_sum = sum(self.cs_sum_per_frame) / len(self.cs_sum_per_frame)
        return {
            "mean_sum": mean_sum,
            "max_sum": max(self.cs_sum_per_frame),
        }


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
