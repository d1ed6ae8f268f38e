"""Per-run accounting: energy by radio state, colliding sets, latency,
throughput, duty cycle and queue statistics."""

from __future__ import annotations

import math

from .energy import RadioState

SLEEP, LISTEN, TX = RadioState.SLEEP, RadioState.LISTEN, RadioState.TX


def colliding_sets(data_log):
    """`{frame: {receiver: interferer ids}}` from a traced run's
    `Simulation.data_log`, by the rule of `MetricsLedger.record_data_reception`;
    a frame without interferers is absent."""
    frames = {}
    for sender, dst, _, _, frame, interferers in data_log:
        if interferers:
            frames.setdefault(frame, {}).setdefault(dst, set()).update(
                i for i in interferers if i != sender)
    return frames


class MetricsLedger:
    def __init__(self, n_nodes, energy_table, output_power_dbm=0.0):
        self.n = n_nodes
        self.table = energy_table

        # per node, seconds and mJ in each state, in RadioState order:
        # SLEEP, LISTEN, TX
        self.state_time = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        self.state_energy = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        # mJ per second in a state: the (current * voltage) factor of
        # EnergyTable.energy_mj, so rate * duration is the same product;
        # every transmission of a run uses its one output power
        self._sleep_rate = energy_table.current_ma(SLEEP) * energy_table.voltage
        self._listen_rate = energy_table.current_ma(LISTEN) * energy_table.voltage
        self._tx_rate = energy_table.current_ma(TX, output_power_dbm) * energy_table.voltage
        self.switch_energy = [0.0] * n_nodes
        self.sample_energy = [0.0] * n_nodes
        self.residual_mj = [energy_table.battery_mj] * n_nodes

        self.first_death_time = None

        # colliding sets: per-frame sets rebuilt at each frame boundary
        self._frame_cs = {}                  # receiver -> set of interferer ids
        self.cs_sum_per_frame = []

        # traffic accounting (payload bytes)
        self.generated_packets = 0
        self.delivered_records = []          # (origin, born_at, delivered_at, payload)
        self.delivered_payload = 0           # the records' payload bytes
        self.dropped_packets = 0

        # queue statistics: time-weighted integral per node
        self._queue_len = [0] * n_nodes
        self._queue_last_t = [0.0] * n_nodes
        self._queue_integral = [0.0] * n_nodes

        self.measure_end = 0.0

    # -- energy ---------------------------------------------------------

    def account(self, node, state, duration):
        """Charge `duration` seconds in `state`; returns the residual energy
        in mJ."""
        if duration < 0:
            raise ValueError("negative duration")
        return self.account_radio(node, state, duration, state)

    def account_radio(self, node, state, elapsed, new_state):
        """A radio change in one call: charge `elapsed` seconds in `state`
        (none when `elapsed` is not positive), then one switch when
        `new_state` differs from `state`. Returns the residual energy in mJ."""
        residual = self.residual_mj[node]
        if elapsed > 0:
            if state is SLEEP:
                k, rate = 0, self._sleep_rate
            elif state is LISTEN:
                k, rate = 1, self._listen_rate
            else:
                k, rate = 2, self._tx_rate
            mj = rate * elapsed
            self.state_time[node][k] += elapsed
            self.state_energy[node][k] += mj
            residual -= mj
        if new_state is not state:
            mj = self.table.switch_mj
            self.switch_energy[node] += mj
            residual -= mj
        self.residual_mj[node] = residual
        return residual

    def account_switch(self, node):
        # uncalled: `account_radio` charges switches; this stays while the
        # benchmark's tracer (`simbench/tracing.py`) wraps it by name
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

    # -- colliding sets and frame boundaries -------------------------------

    def record_data_reception(self, receiver, wanted_sender, interferers):
        if not interferers:
            return
        bucket = self._frame_cs.setdefault(receiver, set())
        bucket.update(i for i in interferers if i != wanted_sender)

    def flush_frame_cs(self):
        total = sum(len(s) for s in self._frame_cs.values())
        self.cs_sum_per_frame.append(total)
        self._frame_cs = {}

    def mark_frame_state(self):
        """Nothing calls this. It stays while the benchmark's tracer
        (`simbench/tracing.py`) wraps it by name."""

    # -- traffic -----------------------------------------------------------

    def record_generated(self):
        self.generated_packets += 1

    def record_delivery(self, origin, born_at, delivered_at, payload):
        if delivered_at < born_at:
            raise ValueError("delivery precedes generation")
        self.delivered_records.append((origin, born_at, delivered_at, payload))
        self.delivered_payload += payload

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
        return self.delivered_payload / self.measure_end

    def cs_stats(self):
        sums = self.cs_sum_per_frame
        if not sums:
            return {"mean_sum": 0.0, "max_sum": 0}
        return {"mean_sum": sum(sums) / len(sums), "max_sum": max(sums)}
