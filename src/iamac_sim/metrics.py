"""Per-run accounting: energy by radio state, colliding sets, latency,
throughput, duty cycle and queue statistics."""

from __future__ import annotations

import math
from array import array

import numpy as np

from .energy import RadioState

SLEEP, LISTEN, TX = RadioState.SLEEP, RadioState.LISTEN, RadioState.TX

# numpy's sort pages in about 256 KiB of its code on first use; a sorted list
# of Python floats costs 32 B per latency, so below this many latencies the
# list is the smaller peak
NUMPY_SORT_FROM = 8192


def colliding_sets(data_log):
    """`{frame: {receiver: interferer ids}}` from a traced run's
    `Simulation.data_log`, by the rule of `MetricsLedger.record_data_reception`;
    a frame without interferers is absent."""
    frames = {}
    for _, dst, _, _, frame, interferers in data_log:
        if interferers:
            frames.setdefault(frame, {}).setdefault(dst, set()).update(interferers)
    return frames


class MetricsLedger:
    """Storage and summaries of one run's accounts. The ledger charges
    samples (`account_sample`). Radio time is charged in place, into the
    per-node rows, by `Node.set_radio`, `Simulation._frame_end` and
    `Simulation.charge_synch_slot`, with `account`'s expressions; a switch
    costs `switch_mj`."""

    def __init__(self, n_nodes, energy_table, output_power_dbm):
        self.n = n_nodes
        self.table = energy_table

        # per node, seconds and mJ in each state, indexed by the state
        self.state_time = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        self.state_energy = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        # mJ per second in each state, indexed by the state: the
        # (current * voltage) factor of EnergyTable.energy_mj, so
        # rate * duration is the same product; every transmission of a run
        # uses its one output power
        self.rates = [energy_table.current_ma(state, output_power_dbm) * energy_table.voltage
                      for state in (SLEEP, LISTEN, TX)]
        self.switch_mj = energy_table.switch_mj
        self.switch_energy = [0.0] * n_nodes
        self.sample_energy = [0.0] * n_nodes
        self.residual_mj = [energy_table.battery_mj] * n_nodes

        self.first_death_time = None

        # colliding sets: per-frame sets rebuilt at each frame boundary
        self._frame_cs = {}                  # receiver -> set of interferer ids
        self.cs_sum_per_frame = []

        # traffic accounting (payload bytes)
        self.generated_packets = 0
        # one entry per packet the sink received, in delivery order: 32 B,
        # and no Python object, per packet
        self._origins = array("l")
        self._born = array("d")
        self._delivered = array("d")
        self._payloads = array("l")
        self.delivered_payload = 0           # the records' payload bytes
        self.dropped_packets = 0

        # queue statistics: time-weighted integral per node
        self._queue_len = [0] * n_nodes
        self._queue_last_t = [0.0] * n_nodes
        self._queue_integral = [0.0] * n_nodes

        self.measure_end = 0.0

    @property
    def delivered_records(self):
        """One `(origin, born_at, delivered_at, payload)` tuple per delivered
        packet, in delivery order, built from the columns on each read."""
        return list(zip(self._origins, self._born, self._delivered, self._payloads))

    # -- energy ---------------------------------------------------------

    def account(self, node, state, duration):
        """Charge `duration` seconds in `state`; returns the residual energy
        in mJ. `Node.set_radio`, `Simulation._frame_end` and
        `Simulation.charge_synch_slot` write this same charge in place; this
        method serves only tests, and stays while the benchmark's tracer
        (`simbench/tracing.py`) wraps it by name."""
        if duration < 0:
            raise ValueError("negative duration")
        if duration > 0:
            mj = self.rates[state] * duration
            self.state_time[node][state] += duration
            self.state_energy[node][state] += mj
            self.residual_mj[node] -= mj
        return self.residual_mj[node]

    def account_switch(self, node):
        """Nothing calls this: `Node.set_radio` charges switches. It stays
        while the benchmark's tracer (`simbench/tracing.py`) wraps it by name."""

    def account_sample(self, node, queue_len, times):
        """The ledger side of the samples `node` took at `times`, in order,
        which leave its queue holding `queue_len` packets: per sample the
        queue change, one generated packet and the sample's energy, with the
        floats `queue_changed`, `record_generated` and the sample charge
        would book one by one."""
        integral = self._queue_integral[node]
        held = self._queue_len[node]
        last = self._queue_last_t[node]
        mj = self.table.sample_mj
        spent = self.sample_energy[node]
        residual = self.residual_mj[node]
        for after, t in enumerate(times, queue_len - len(times) + 1):
            integral += held * (t - last)
            held, last = after, t
            spent += mj
            residual -= mj
        self._queue_integral[node] = integral
        self._queue_len[node] = queue_len
        self._queue_last_t[node] = last
        self.generated_packets += len(times)
        self.sample_energy[node] = spent
        self.residual_mj[node] = residual

    def record_death(self, t):
        if self.first_death_time is None:
            self.first_death_time = t

    def spent_mj(self, node):
        return (sum(self.state_energy[node])
                + self.switch_energy[node] + self.sample_energy[node])

    # -- colliding sets and frame boundaries -------------------------------

    def record_data_reception(self, receiver, interferers):
        """`interferers` holds the senders of other data frames, and no node
        sends two frames at once, so the wanted sender is never among them;
        it is None when the addressee resolved no reception."""
        if not interferers:
            return
        self._frame_cs.setdefault(receiver, set()).update(interferers)

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

    def record_delivery(self, pkts, delivered_at):
        """The queue entries `pkts`, at least one, reached the sink at
        `delivered_at`, in this order. Each column is built whole and then
        appended once, so a batch that raises (a packet born after
        `delivered_at`, a value its column cannot hold) records none of its
        packets."""
        _, origins, born, payloads = zip(*pkts)
        if max(born) > delivered_at:
            raise ValueError("delivery precedes generation")
        origin_col = array("l", origins)
        born_col = array("d", born)
        delivered_col = array("d", (delivered_at,)) * len(born)
        payload_col = array("l", payloads)
        self._origins += origin_col
        self._born += born_col
        self._delivered += delivered_col
        self._payloads += payload_col
        self.delivered_payload += sum(payloads)

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
        return (times[LISTEN] + times[TX]) / total

    def mean_duty_cycle(self):
        return sum(self.duty_cycle(i) for i in range(self.n)) / self.n

    def latency_stats(self):
        n = len(self._born)
        if not n:
            return None
        lats = np.frombuffer(self._delivered) - np.frombuffer(self._born)
        if n < NUMPY_SORT_FROM:
            lats = lats.tolist()
            lats.sort()
        else:
            lats.sort()
            lats = memoryview(lats)
        # either way `sum` adds exact Python floats in sorted order, as over
        # a sorted list: the same rounding (compensated from Python 3.12 on)
        mean = sum(lats) / n
        p95 = lats[min(n - 1, int(math.ceil(0.95 * n)) - 1)]
        return {"mean": mean, "p95": p95, "count": n}

    def throughput_bps(self):
        if self.measure_end <= 0:
            return 0.0
        return self.delivered_payload / self.measure_end

    def cs_stats(self):
        sums = self.cs_sum_per_frame
        if not sums:
            return {"mean_sum": 0.0, "max_sum": 0}
        return {"mean_sum": sum(sums) / len(sums), "max_sum": max(sums)}
