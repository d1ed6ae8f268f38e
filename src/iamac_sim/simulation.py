"""Run wiring: nodes, bootstrap routing, traffic, the protocol driver and the
result summary. One Simulation owns one engine, one RNG family and one ledger;
independent runs share nothing."""

from __future__ import annotations

import math
from collections import deque
from numbers import Integral, Real

from .channel import dbm_to_mw
from .config import DRIVERS, ConfigError, check_node_id
from .energy import RadioState
from .engine import Engine, RandomStreams
from .medium import Medium
from .metrics import MetricsLedger
from .packets import make_data_packet
from .routing import build_tree, disjoint_nodes, estimate_links, preset_tree
from .topology import Topology, random_topology

SLEEP, LISTEN, TX = RadioState.SLEEP, RadioState.LISTEN, RadioState.TX


class Node:
    """Radio-state bookkeeping and queue ownership for one sensor node. The
    node charges its own radio energy where its radio changes: it binds its
    rows of the ledger's `state_time` and `state_energy` (mutated, never
    rebound) and its reception dict in the medium, and `set_radio`,
    `Simulation._frame_end` and `Simulation.charge_synch_slot` write those
    charges in place. The ledger keeps the storage and the summaries."""

    def __init__(self, sim, nid):
        self.sim = sim
        self.id = nid
        # fixed for the run, so the radio path binds them once
        self.engine = sim.engine
        self.ledger = sim.ledger
        self._time = sim.ledger.state_time[nid]
        self._energy = sim.ledger.state_energy[nid]
        self._receptions = sim.medium.receptions[nid]
        self.alive = True
        self.queue = []
        self.active_session = None
        self.last_rise_t = -1.0
        self.state = SLEEP
        self._state_since = 0.0

    # -- radio state --------------------------------------------------------

    def set_radio(self, state):
        """Charge the time spent in the old state, then one switch when
        `state` differs from it: `rate * elapsed` is added to the old state's
        time and energy and taken from the residual, as `MetricsLedger.account`
        charges it, then `switch_mj` is added to `switch_energy` and taken
        from the residual. Leaving listen drops the node's open receptions.
        The node dies when the charge leaves its residual at or below zero, so
        a switch alone can empty a battery."""
        if not self.alive:
            return
        now = self.engine.now
        old = self.state
        ledger = self.ledger
        nid = self.id
        residual = ledger.residual_mj[nid]
        elapsed = now - self._state_since
        if elapsed > 0:
            mj = ledger.rates[old] * elapsed
            self._time[old] += elapsed
            self._energy[old] += mj
            residual -= mj
        self._state_since = now
        if state != old:
            mj = ledger.switch_mj
            ledger.switch_energy[nid] += mj
            residual -= mj
            self.state = state
            if old == LISTEN:
                self._receptions.clear()
        ledger.residual_mj[nid] = residual
        if residual <= 0.0:
            self._deplete()

    def flush_energy(self):
        """Charge the time spent in the current state, as `set_radio` to
        that state does. Only tests call this; it stays while the benchmark's
        tracer (`simbench/tracing.py`) wraps it by name."""
        self.set_radio(self.state)

    def _deplete(self):
        # the battery of this live node is empty: it dies now
        self.alive = False
        self.ledger.record_death(self.engine.now)
        self._receptions.clear()

    # -- medium callbacks -----------------------------------------------------

    def on_air_rise(self, tx):
        """Nothing calls this: `Medium.transmit` writes `last_rise_t` itself.
        It and the MACs' `on_air_rise` stay while the benchmark's tracer
        (`simbench/tracing.py`) wraps them by name."""

    def on_packet(self, pkt, sinr):
        """A frame decoded here; `sinr` is its worst-case SINR over the
        frame, as a linear ratio (not dB). It goes to the node's session if
        the node holds one, else to the MAC driver. A node holds a session
        only in IAMAC's communication phase, where the driver ignores every
        frame, or in `transfer_benchmark`, which has no driver."""
        if self.active_session is not None:
            self.active_session.on_packet(self.id, pkt, sinr)
            return
        driver = self.sim.driver
        if driver is not None:
            driver.on_packet(self, pkt, sinr)

    def on_air_resolved_corrupt(self, tx):
        if self.active_session is not None:
            self.active_session.on_corrupt(self.id, tx)
            return
        driver = self.sim.driver
        if driver is not None:
            driver.on_corrupt(self, tx)


def _is_time(x):
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x) and x >= 0


def _contention_fault(protocol, w, plan):
    """Why `plan` is not one injected contention plan under `protocol`, or
    None: IAMAC takes a `(slot, backoff)` pair, with an int slot in `[0, w)`;
    S-MAC and adaptive S-MAC take a delay. Times are finite seconds >= 0."""
    if protocol == "iamac":
        if not isinstance(plan, (tuple, list)) or len(plan) != 2:
            return f"IAMAC takes (slot, backoff) pairs, got {plan!r}"
        slot, backoff = plan
        if not isinstance(slot, Integral) or isinstance(slot, bool) or not 0 <= slot < w:
            return f"slot {slot!r} is not an int in [0, {w})"
        if not _is_time(backoff):
            return f"backoff {backoff!r} is not a time in seconds >= 0"
    elif not _is_time(plan):
        return f"S-MAC takes a delay in seconds >= 0, got {plan!r}"
    return None


class Simulation:
    """One run. Nodes are placed at random over `scenario.area` with the sink
    at node 0, or at the given `positions` with zero shadowing and the given
    `sink`. The routing tree is bootstrapped, or fixed by `parents` (child ->
    parent; nodes outside it are roots), which `preset_tree` checks. A `sink`
    or `fixed_contention` key that is not a node id is a ConfigError."""

    def __init__(self, scenario, positions=None, sink=0, parents=None,
                 fixed_contention=None, trace=False):
        self.scenario = scenario
        self.streams = RandomStreams(scenario.seed)
        self.engine = Engine()
        self.model = scenario.link_model()
        self.energy_table = scenario.energy_table()

        power = scenario.output_power_dbm
        if positions is None:
            topology = random_topology(scenario.node_count, scenario.area[0],
                                       scenario.area[1], self.model, power, self.streams)
        else:
            topology = Topology(positions, sink, self.model, power)
            check_node_id(sink, topology.n, "sink")
        self.topo = topology
        self.medium = Medium(self.engine, topology, self.streams,
                             control_corruption_disabled=scenario.control_corruption_disabled)
        self.ledger = MetricsLedger(topology.n, self.energy_table, power)
        self.nodes = [Node(self, i) for i in range(topology.n)]
        self.medium.nodes = self.nodes
        self.medium.on_data_resolved = self._data_resolved

        self.route_states = None if parents is None else preset_tree(topology, parents)
        self.parents = None   # each node's parent or None, once routing has bootstrapped
        # each node's injected contention plans, popped by the MAC in order
        self.fixed_contention = {nid: list(plans)
                                 for nid, plans in (fixed_contention or {}).items()}
        for nid, plans in self.fixed_contention.items():
            check_node_id(nid, topology.n, "fixed_contention")
            for plan in plans:
                why = _contention_fault(scenario.protocol, scenario.w, plan)
                if why is not None:
                    raise ConfigError(f"fixed_contention: node {nid}: {why}")
        # the one recording switch; it may be set any time before `run`
        self.trace_enabled = trace
        self.trace_log = []
        self.data_log = []
        self.status = "ok"
        self.stranded = []
        self.stopped = False
        self.frame_idx = -1
        self.driver = None
        self._next_uid = 0    # samples and `inject` number packets from here
        # each sampling node's next sample as (time, seq, nid), in key order:
        # a rotation of the nodes (see `_take_samples`)
        self._samples = deque()

    # -- tracing ---------------------------------------------------------------

    def trace(self, node, label, fmt="", *args):
        """Record `label` with the detail `fmt % args`. Callers test
        `trace_enabled` first, so an untraced run formats nothing."""
        self.trace_log.append((round(self.engine.now, 9), node, label, fmt % args))

    # -- routing ----------------------------------------------------------------

    def bootstrap_routing(self):
        """Link estimation and tree construction before duty cycling begins,
        unless `parents` fixed the tree; then `parents` lists each node's parent."""
        sc = self.scenario
        if self.route_states is None:
            states = estimate_links(self.topo, self.streams, sc.broadcast_count,
                                    sc.report_rounds, sc.control_bytes + sc.header_bytes)
            self.route_states = build_tree(states, sc.max_children)
        self.parents = [st.parent for st in self.route_states]
        stranded = disjoint_nodes(self.route_states)
        if len(stranded) > sc.disjoint_tolerance * (self.topo.n - 1):
            self.status = "disjoint"
        self.stranded = stranded

    def refresh_routing(self):
        """Nothing calls this: the tree is fixed once `bootstrap_routing` has
        run. It stays while the benchmark's tracer (`simbench/tracing.py`)
        wraps it by name."""

    # -- frame loop ---------------------------------------------------------------

    def _frame_begin(self, event):
        """Open the next frame: each sleeping node wakes for the Synch/Routing
        slot, as `set_radio(LISTEN)` would charge it, `charge_synch_slot`
        charges every listening node its beacon, and the MAC opens the
        frame's slots. The wake is a
        switch only: a node asleep now went to sleep at or before the previous
        frame's end, whose flush at this same instant left it no elapsed time
        (the first frame opens at 0.0 on nodes asleep since 0.0)."""
        self.frame_idx += 1
        t0 = self.engine.now
        ledger = self.ledger
        residual_mj = ledger.residual_mj
        switch_energy = ledger.switch_energy
        switch_mj = ledger.switch_mj
        for node in self.nodes:
            if node.alive and node.state == SLEEP:
                nid = node.id
                residual = residual_mj[nid] = residual_mj[nid] - switch_mj
                switch_energy[nid] += switch_mj
                node.state = LISTEN
                node._state_since = t0
                if residual <= 0.0:
                    node._deplete()
        self.charge_synch_slot()
        driver = self.driver
        driver.start(t0)
        self.engine.schedule(t0 + driver.period, self._frame_end)

    def _frame_end(self, event):
        """Close the frame's accounts, then open the next frame if it fits
        the horizon and no node death stops the run. Each live node pays its
        time since its last change as `account(nid, state, elapsed)` would
        charge it, so every flush death is known before any node wakes for
        the next frame."""
        now = self.engine.now
        ledger = self.ledger
        residual_mj = ledger.residual_mj
        rates = ledger.rates
        for node in self.nodes:
            if not node.alive:
                continue
            elapsed = now - node._state_since
            if elapsed > 0:
                state = node.state
                mj = rates[state] * elapsed
                node._time[state] += elapsed
                node._energy[state] += mj
                nid = node.id
                residual = residual_mj[nid] = residual_mj[nid] - mj
                node._state_since = now
                if residual <= 0.0:
                    node._deplete()
        ledger.flush_frame_cs()
        ledger.measure_end = now
        sc = self.scenario
        stop = sc.stop_on_first_death and ledger.first_death_time is not None
        if not stop and now + self.driver.period <= sc.horizon_s + 1e-9:
            self._frame_begin(event)
        else:
            self.stopped = True

    # -- traffic -----------------------------------------------------------------

    def start_traffic(self):
        """Give each non-sink node its first sample, a uniform draw within one
        interval. The samples run from one engine event, `_take_samples`; the
        earliest sample's number is the one `schedule` takes for that event,
        so every sample holds the number its own event would."""
        rng = self.streams.draws("traffic")
        interval = self.scenario.sampling_interval_s
        firsts = [(rng.uniform(0.0, interval), nid) for nid in range(self.topo.n)
                  if nid != self.topo.sink]
        if not firsts:
            return
        lead = min(firsts)
        engine = self.engine
        entries = []
        for t, nid in firsts:
            if (t, nid) == lead:
                seq = engine.schedule(t, self._take_samples).seq
            else:
                seq = engine.next_seq
                engine.next_seq = seq + 1
            entries.append((t, seq, nid))
        self._samples.extend(sorted(entries))

    def _take_samples(self, ev):
        """Take every sample that orders before the engine's next event and
        within the current `run_until`, node by node, then re-arm at the next
        one. Each sample queues the entry `(uid, origin, born_at,
        payload_len)` that `Simulation.inject` would build, with the uid, and
        the re-arm seq, that one event per sample would give it; a node's
        samples are booked with one `account_sample` call. A dead node
        samples no more, and after the run has stopped no node does.

        With one interval `c`, the samples come in a fixed rotation of the
        nodes. Taking the head at `t_a` re-arms it at `(fl(t_a + c), s)`. The
        tail `(fl(t_p + c), s_p)` was re-armed from a sample at `t_p <= t_a`
        taken earlier, so monotone rounding and `s > s_p` put the head behind
        the tail; a first re-arm is behind every first sample, as
        `uniform(0, c) <= c`. So the due nodes are a prefix of the rotation,
        and only all of it can take several rounds. Of the `m` live due
        nodes, the one at place `o` takes its `j`-th sample at `t + j*c`,
        summed as the events would, with uid `u0 + o + j*m` and re-arm seq
        `s0 + o + j*m`, up to its first key that is not due."""
        if self.stopped:
            return
        engine = self.engine
        bound = engine.next_key()
        bound_t, bound_seq = bound
        rotation = self._samples
        nodes = self.nodes
        due = []
        while rotation and rotation[0] < bound:
            entry = rotation.popleft()
            if nodes[entry[2]].alive:
                due.append(entry)
        m = len(due)
        if m:
            sc = self.scenario
            interval = sc.sampling_interval_s
            payload = sc.payload_bytes
            account_sample = self.ledger.account_sample
            uid0 = self._next_uid
            seq0 = engine.next_seq
            taken = 0
            for o, (t, _, nid) in enumerate(due):
                queue = nodes[nid].queue
                uid, seq = uid0 + o, seq0 + o
                born = []
                while True:
                    # `make_data_packet` built in place
                    queue.append((uid, nid, t, payload))
                    born.append(t)
                    t += interval
                    if t > bound_t or (t == bound_t and seq > bound_seq):
                        break
                    uid += m
                    seq += m
                account_sample(nid, len(queue), born)
                rotation.append((t, seq, nid))
                taken += len(born)
            self._next_uid = uid0 + taken
            engine.next_seq = seq0 + taken
            # only a batch that took the whole rotation can end part way
            # through a round, and then the rotation holds its nodes alone
            rotation.rotate(-(taken % m))
        if rotation:
            t, seq, _ = rotation[0]
            engine.rearm(ev, t, seq)

    def inject(self, origin, payload_len):
        """Queue a new payload of `payload_len` >= 1 bytes, born now at `origin`."""
        if payload_len < 1:
            raise ConfigError(f"payload_len: must be >= 1, got {payload_len!r}")
        uid = self._next_uid
        self._next_uid = uid + 1
        self.enqueue(origin, make_data_packet(uid, origin, self.engine.now, payload_len))
        self.ledger.record_generated()

    # -- queue plumbing -------------------------------------------------------------

    def enqueue(self, nid, entry):
        node = self.nodes[nid]
        node.queue.append(entry)
        self.ledger.queue_changed(nid, len(node.queue), self.engine.now)

    def remove_from_queue(self, nid, uid):
        """Remove from `nid`'s queue the earliest entry with `uid`, with one
        queue change; an absent uid removes nothing."""
        queue = self.nodes[nid].queue
        for i, entry in enumerate(queue):
            if entry[0] == uid:
                del queue[i]
                self.ledger.queue_changed(nid, len(queue), self.engine.now)
                return

    def replace_queue_head(self, nid, n, kept):
        """Put `kept` in place of the first `n` entries of `nid`'s queue. The
        ledger sees one queue change when the queue shrinks and none
        otherwise: a change at an unchanged length would split the queue's
        time-weighted integral and move its floats."""
        if len(kept) < n:
            queue = self.nodes[nid].queue
            queue[:n] = kept
            self.ledger.queue_changed(nid, len(queue), self.engine.now)

    def deliver_to(self, nid, pkts):
        """Hand the queue entries `pkts` to `nid` in order: the sink records
        them delivered in one ledger call; any other node queues them for its
        parent with one queue change, as same-instant changes add nothing to
        the time-weighted queue length. An empty batch changes nothing."""
        if not pkts:
            return
        if nid == self.topo.sink:
            self.ledger.record_delivery(pkts, self.engine.now)
        else:
            queue = self.nodes[nid].queue
            queue.extend(pkts)
            self.ledger.queue_changed(nid, len(queue), self.engine.now)

    # -- metrics hooks -----------------------------------------------------------------

    def _data_resolved(self, tx, interferers):
        # the addressee's own reception only: bystanders have no colliding set
        self.ledger.record_data_reception(tx.packet.dst, interferers)
        if self.trace_enabled:
            self.data_log.append((tx.sender, tx.packet.dst, tx.t_start, tx.t_end,
                                  self.frame_idx, interferers))

    # -- run ----------------------------------------------------------------------------

    def run(self):
        sc = self.scenario
        self.bootstrap_routing()
        if self.status == "disjoint":
            return self._result()
        self.driver = DRIVERS[sc.protocol](self)
        self.start_traffic()
        self.engine.schedule(0.0, self._frame_begin)
        self.engine.run_until(sc.horizon_s)
        # `horizon_s > frame_s`, so the first frame's end wrote `measure_end`
        self.ledger.close_queues(self.ledger.measure_end)
        return self._result()

    def _result(self):
        ledger = self.ledger
        lat = ledger.latency_stats()
        cs = ledger.cs_stats()
        res = {
            "status": self.status,
            "stranded": len(self.stranded),
            "frames": self.frame_idx + 1,
            "lifetime_s": (ledger.first_death_time
                           if ledger.first_death_time is not None
                           else self.scenario.horizon_s),
            "lifetime_censored": ledger.first_death_time is None,
            "delivered_packets": lat["count"] if lat else 0,
            "delivered_payload": ledger.delivered_payload,
            "throughput_bps": ledger.throughput_bps(),
            "mean_latency_s": lat["mean"] if lat else None,
            "p95_latency_s": lat["p95"] if lat else None,
            "mean_queue_len": ledger.mean_queue_len(),
            "mean_duty_cycle": ledger.mean_duty_cycle(),
            "cs_mean_sum": cs["mean_sum"],
            "cs_max_sum": cs["max_sum"],
            "generated_packets": ledger.generated_packets,
            "dropped_packets": ledger.dropped_packets,
            "queued_packets": sum(len(n.queue) for n in self.nodes),
            "avg_neighbors": self.topo.average_neighbor_count(),
        }
        res["conserved"] = (res["generated_packets"]
                            == res["delivered_packets"] + res["dropped_packets"]
                            + res["queued_packets"])
        return res

    # -- helpers shared by drivers ----------------------------------------------------

    def link_ber_estimate(self, child, parent):
        """Zero-interference BER on the child->parent link (the nodes' own
        link-quality knowledge is assumed accurate)."""
        snr = self.topo.rx_dbm[child, parent] - self.model.noise_floor
        return self.model.bit_error_rate(dbm_to_mw(snr))

    def wake(self, nid):
        node = self.nodes[nid]
        if node.alive and node.state == SLEEP:
            node.set_radio(LISTEN)

    def sleep(self, nid):
        node = self.nodes[nid]
        if node.alive and node.state != SLEEP:
            node.set_radio(SLEEP)

    def charge_synch_slot(self):
        """Synchronization beacons are modeled as airtime and energy only:
        every awake node pays one transmit burst, receptions are abstract.
        This charges every beacon of a run, at each frame start and in IAMAC's
        mid-cycle Synch slots, as `account(nid, TX, airtime)` would."""
        airtime = self.scenario.control_air
        residual_mj = self.ledger.residual_mj
        beacon_mj = self.ledger.rates[TX] * airtime
        for node in self.nodes:
            if node.alive and node.state == LISTEN:
                node._time[TX] += airtime
                node._energy[TX] += beacon_mj
                nid = node.id
                residual = residual_mj[nid] = residual_mj[nid] - beacon_mj
                # the transmit burst replaces listen time inside the slot
                node._state_since += airtime
                if residual <= 0.0:
                    node._deplete()
