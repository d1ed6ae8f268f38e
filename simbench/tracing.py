"""Spans and call counts around each simulator module's entry points.

The wrappers are installed from outside the package, on the classes and on
the names `simulation` imports, and removed again by `uninstall`. Every event
callback runs inside a root span named after the module that defines the
callback and identified by the event's `seq`; the wrapped entry points it
reaches become its child spans and share that id. Spans stay in memory, in
flat arrays, until the run ends.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from iamac_sim import (channel, energy, engine, mac_iamac, mac_smac, medium,
                       metrics, packets, recovery, simulation, topology)

NO_PARENT = -1

# (owner, attribute names, layer): the public entry points of each module.
ENTRY_POINTS = [
    (engine.Engine, ("run_until",), "engine"),
    (topology.Topology, ("__init__",), "topology"),
    (simulation, ("estimate_links", "build_tree"), "routing"),
    (channel.LinkModel, ("bit_error_rate", "packet_reception_prob",
                         "prr_from_rx_power"), "channel"),
    (medium.Medium, ("__init__", "transmit", "carrier_busy", "abort_receptions",
                     "block_corruption_draws"), "medium"),
    (simulation.Node, ("set_radio", "flush_energy", "on_packet",
                       "on_air_resolved_corrupt", "on_air_rise"), "simulation"),
    (simulation.Simulation, ("__init__", "bootstrap_routing", "run", "wake", "sleep",
                             "enqueue", "remove_from_queue", "deliver_to",
                             "charge_synch_slot", "refresh_routing",
                             "link_ber_estimate"), "simulation"),
    (energy.EnergyTable, ("energy_mj",), "energy"),
    (metrics.MetricsLedger, ("__init__", "account", "account_switch",
                             "account_sample", "queue_changed", "record_data_reception",
                             "record_delivery", "record_drop", "record_generated",
                             "flush_frame_cs", "mark_frame_state", "close_queues"),
     "metrics"),
    (mac_iamac.IamacDriver, ("start", "on_packet", "on_corrupt", "on_air_rise"),
     "mac_iamac"),
    (mac_smac.SmacDriver, ("start", "on_packet", "on_corrupt", "on_air_rise"),
     "mac_smac"),
    (recovery.ArqSession, ("start", "on_packet"), "recovery"),
    (recovery.SedaSession, ("start", "on_packet", "on_corrupt"), "recovery"),
    (recovery._SessionBase, ("on_corrupt",), "recovery"),
    (packets.Packet, ("__init__",), "packets"),
    (simulation, ("make_data_packet",), "packets"),
]

TX_CLASS = {
    packets.PacketKind.SYNCH_ROUTING: "control",
    packets.PacketKind.RTS: "control",
    packets.PacketKind.CTS: "control",
    packets.PacketKind.DATA: "data",
    packets.PacketKind.SEDA_BLOCK: "data",
    packets.PacketKind.ACK: "ack",
    packets.PacketKind.RECOVERY_FRAME: "recovery",
}

IAMAC_DEACTIVATIONS = ("rts-for-other-pair", "cts-for-other-pair",
                       "busy-at-cts-timer", "undecodable-in-cts")


def layer_of(fn):
    """The simulator module that defines a callable, e.g. 'medium'."""
    module = getattr(fn, "__module__", None) or "unknown"
    return module.rsplit(".", 1)[-1] if module.startswith("iamac_sim.") else module


def self_times(name, start, end, parent, n_names):
    """Self time per span name: each span's duration minus the durations of
    its direct children. Spans nest strictly on one thread, so the direct
    children never overlap and their durations are the time they cover."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    return np.bincount(np.asarray(name, dtype=np.int64), weights=dur - covered,
                       minlength=n_names)


class Tracer:
    def __init__(self):
        self.names = []             # span name per name id
        self.name_layer = []        # layer per name id
        self._name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.root = array("q")      # event seq shared by a span tree; -1 outside events
        self.calls = Counter()
        self.sessions = []
        self._stack = [NO_PARENT]
        self._undo = []

    # -- spans -------------------------------------------------------------------

    def name_id(self, name, layer):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def open(self, nid, root=None):
        idx = len(self.start)
        parent = self._stack[-1]
        if root is None:
            root = NO_PARENT if parent == NO_PARENT else self.root[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(root)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def current_layer(self):
        top = self._stack[-1]
        return None if top == NO_PARENT else self.name_layer[self.name[top]]

    # -- wrappers ----------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, layer, before=None):
        orig = owner.__dict__[attr]
        key = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        nid = self.name_id(key, layer)
        calls, open_, close = self.calls, self.open, self.close

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(*args, **kwargs)
            idx = open_(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                close(idx)

        self._patch(owner, attr, wrapper)

    def _wrap_schedule(self):
        orig = engine.Engine.__dict__["schedule"]
        sched_nid = self.name_id("Engine.schedule", "engine")
        open_, close, name_id = self.open, self.close, self.name_id

        @functools.wraps(orig)
        def schedule(eng, fire_time, fn, *args, **kwargs):
            layer = layer_of(fn)
            event_nid = name_id("event:" + layer, layer)

            def traced_event(ev):
                idx = open_(event_nid, root=ev.seq)
                try:
                    fn(ev)
                finally:
                    close(idx)

            idx = open_(sched_nid)
            try:
                return orig(eng, fire_time, traced_event, *args, **kwargs)
            finally:
                close(idx)

        self._patch(engine.Engine, "schedule", schedule)

    def _count_tx(self, medium_, sender, packet, on_resolved=None):
        kind = TX_CLASS[packet.kind]
        self.calls["tx." + kind] += 1
        if kind == "data" and self.current_layer() == "recovery":
            self.calls["recovery.data_tx"] += 1

    def _count_switch(self, node, state):
        if node.alive and state is not node.state:
            self.calls["radio_switches"] += 1

    def _keep_session(self, session):
        self.sessions.append(session)

    def install(self):
        hooks = {
            (medium.Medium, "transmit"): self._count_tx,
            (simulation.Node, "set_radio"): self._count_switch,
            (recovery.ArqSession, "start"): self._keep_session,
            (recovery.SedaSession, "start"): self._keep_session,
        }
        self._wrap_schedule()
        for owner, attrs, layer in ENTRY_POINTS:
            for attr in attrs:
                self._wrap(owner, attr, layer, hooks.get((owner, attr)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "root": np.frombuffer(self.root, dtype=np.int64),
        }

    def self_time_by_layer(self):
        a = self.arrays()
        per_name = self_times(a["name"], a["start"], a["end"], a["parent"], len(self.names))
        out = Counter()
        for nid, s in enumerate(per_name):
            out[self.name_layer[nid]] += float(s)
        return out

    def duration_by_name(self):
        a = self.arrays()
        dur = np.bincount(a["name"].astype(np.int64), weights=a["end"] - a["start"],
                          minlength=len(self.names))
        return Counter({n: float(d) for n, d in zip(self.names, dur)})

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name_layer=np.array(self.name_layer), **self.arrays())


def _share(num, den):
    return num / den if den else 0.0


def tree_depth(states):
    """Hops from the deepest routed node to the sink."""
    depth = 0
    for st in states:
        hops, cur = 0, st
        while cur.parent is not None:
            hops += 1
            cur = states[cur.parent]
        depth = max(depth, hops)
    return depth


def layer_metrics(tracer, sim):
    """Every per-layer metric a traced run yields, except the two that need
    the untraced run's host time (`engine.events_per_s`, `trace.overhead`).
    Times are shares of the traced set-up and run: a layer a workload never
    enters reads 0, not a host time."""
    c = tracer.calls
    own = tracer.self_time_by_layer()
    total = sum(own.values())
    share = Counter({layer: s / total for layer, s in own.items()})
    dur = Counter({name: d / total for name, d in tracer.duration_by_name().items()})
    eng = sim.engine
    labels = Counter(label for _, _, label, _ in sim.trace_log)
    deact = Counter(detail for _, _, label, detail in sim.trace_log
                    if label == "deactivated")
    n_tx = sum(c["tx." + k] for k in ("control", "data", "ack", "recovery"))
    rx_ok = c["Node.on_packet"]
    rx_bad = c["Node.on_air_resolved_corrupt"]
    rec_delivered = sum(s.result.delivered_packets for s in tracer.sessions)
    sense = [len(s) for s in sim.topo.sense_out]
    influence = [len(s) for s in sim.topo.influence_out]
    return {
        "engine.scheduled": eng.scheduled_count,
        "engine.dispatched": eng.dispatched_count,
        "engine.cancelled": eng.cancelled_count,
        "engine.cancel_share": _share(eng.cancelled_count, eng.scheduled_count),
        "engine.self_time_share": share["engine"],
        "topology.build_time_share": dur["Topology.__init__"],
        "topology.sense_fanout": sum(sense) / len(sense),
        "topology.influence_fanout": sum(influence) / len(influence),
        "routing.estimate_links_time_share": dur["estimate_links"],
        "routing.build_tree_time_share": dur["build_tree"],
        "routing.tree_depth": tree_depth(sim.route_states),
        "channel.prr_calls": c["LinkModel.packet_reception_prob"],
        "channel.ber_calls": c["LinkModel.bit_error_rate"],
        "channel.self_time_share": share["channel"],
        "medium.tx.control": c["tx.control"],
        "medium.tx.data": c["tx.data"],
        "medium.tx.ack": c["tx.ack"],
        "medium.tx.recovery": c["tx.recovery"],
        "medium.rx_delivered": rx_ok,
        "medium.rx_corrupt": rx_bad,
        "medium.rx_delivered_share": _share(rx_ok, rx_ok + rx_bad),
        "medium.callbacks_per_tx": _share(rx_ok + rx_bad + c["Node.on_air_rise"], n_tx),
        "medium.carrier_sense_calls": c["Medium.carrier_busy"],
        "medium.self_time_share": share["medium"],
        "simulation.set_radio_calls": c["Node.set_radio"],
        "simulation.radio_switches": c["radio_switches"],
        "simulation.self_time_share": share["simulation"],
        "energy.energy_mj_calls": c["EnergyTable.energy_mj"],
        "energy.self_time_share": share["energy"],
        "metrics.account_calls": c["MetricsLedger.account"],
        "metrics.queue_changed_calls": c["MetricsLedger.queue_changed"],
        "metrics.delivery_records": len(sim.ledger.delivered_records),
        "metrics.self_time_share": share["metrics"],
        "mac_iamac.rts_sent": labels["rts-tx"],
        "mac_iamac.cts_trains": labels["cts-train"],
        "mac_iamac.grants": labels["granted"],
        **{f"mac_iamac.deact.{why}": deact[why] for why in IAMAC_DEACTIVATIONS},
        "mac_iamac.repicks": labels["repick"] + labels["repick-undecodable"],
        "mac_iamac.contention_exhausted": labels["contention-exhausted"],
        "mac_iamac.grant_use_share": (_share(len(tracer.sessions), labels["granted"])
                                      if sim.scenario.protocol == "iamac" else 0.0),
        "mac_iamac.self_time_share": share["mac_iamac"],
        "mac_smac.rts_sent": labels["smac-rts"],
        "mac_smac.cts": labels["smac-cts"],
        "mac_smac.no_cts": labels["smac-no-cts"],
        "mac_smac.rx_timeouts": labels["smac-rx-timeout"],
        "mac_smac.nav_sleeps": labels["nav-sleep"],
        "mac_smac.adaptive_wakes": labels["adaptive-wake"],
        "mac_smac.self_time_share": share["mac_smac"],
        "recovery.sessions": len(tracer.sessions),
        "recovery.data_tx": c["recovery.data_tx"],
        "recovery.delivered": rec_delivered,
        "recovery.tx_per_delivered": _share(c["recovery.data_tx"], rec_delivered),
        "recovery.recovery_frames": c["tx.recovery"],
        "recovery.self_time_share": share["recovery"],
        "packets.self_time_share": share["packets"],
    }
