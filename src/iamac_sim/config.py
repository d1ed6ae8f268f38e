"""Scenario configuration: defaults, presets and the plain-text loader.

The defaults reproduce the reference settings: 200 nodes on 100x100 m^2, sink
at the middle of the top edge, FSK/NRZ radio at 19200 bps and 0 dBm, 45-byte
data frames, and the tabulated ARQ/Seda lengths. They are the only copy:
every derived object and capacity bound takes its values from a Scenario it is
given. Scenario files are flat `key = value` lines using exactly the field
names below; unknown keys are rejected so a typo can never silently fall back
to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral

from .channel import MIN_DISTANCE_M, LinkModel, dbm_to_mw
from .energy import EnergyTable
from .frames import build_frame_plan
from .packets import airtime
from .recovery import SESSIONS


class ConfigError(ValueError):
    pass


def check_node_id(value, n, where):
    """Raise a ConfigError naming `where` unless `value` is an int node id in `[0, n)`."""
    if not isinstance(value, Integral) or isinstance(value, bool) or not 0 <= value < n:
        raise ConfigError(f"{where}: {value!r} is not a node id in [0, {n})")


# smallest accepted value of each count, duration and energy
_MINIMUM = {
    "seed": 0, "max_children": 0, "retry_cap": 0,
    "synch_slot_s": 0.0, "max_backoff_s": 0.0, "sifs_s": 0.0, "gamma_s": 0.0,
    "turnaround_s": 0.0, "smac_adaptive_err": 0.0, "disjoint_tolerance": 0.0,
    "switch_mj": 0.0, "sample_mj": 0.0,
}

# a set-up (`Simulation` plus `bootstrap_routing`) peaks below the memory of
# nine n x n float64 matrices (about seven, at 300 and 600 nodes on the
# reference area); nine must fit this budget, so node_count <= 3861
TOPOLOGY_BUDGET_BYTES = 2 ** 30
MAX_NODES = math.isqrt(TOPOLOGY_BUDGET_BYTES // (9 * 8))
MAX_AREA_SIDE_M = 1e6   # far beyond radio range; squared distances stay finite
MAX_FRAME_BYTES = 65535  # a 16-bit length field; bit counts stay far below float range

# accepted ranges: dBm levels a low-power radio can emit or hear, shadowing
# spread in dB, a sink and at least one node within the topology budget,
# bootstrap rounds (the bootstrap draws one double per round and directed
# link), and frame sizes in bytes
_RANGE = {
    "output_power_dbm": (-60.0, 30.0), "noise_floor": (-200.0, 0.0),
    "shadowing_sigma": (0.0, 100.0), "node_count": (2, MAX_NODES),
    "broadcast_count": (1, 1000), "report_rounds": (1, 1000),
    "control_bytes": (1, MAX_FRAME_BYTES), "header_bytes": (0, MAX_FRAME_BYTES),
    "payload_bytes": (1, MAX_FRAME_BYTES), "ack_len": (1, MAX_FRAME_BYTES),
    "block_overhead": (0, MAX_FRAME_BYTES), "rf_overhead": (0, MAX_FRAME_BYTES),
}


@dataclass
class Scenario:
    seed: int = 1
    node_count: int = 200
    area: tuple = (100.0, 100.0)
    protocol: str = "iamac"            # iamac | smac | adaptive-smac
    recovery: str = "arq"              # a key of recovery.SESSIONS
    frame_s: float = 1.0
    sampling_interval_s: float = 60.0
    horizon_s: float = 300.0
    output_power_dbm: float = 0.0
    stop_on_first_death: bool = True
    control_corruption_disabled: bool = False

    # routing
    broadcast_count: int = 25
    max_children: int = 8              # 0 disables the cap
    report_rounds: int = 3

    # packet sizes (bytes)
    control_bytes: int = 18            # 28 is the large-control variant
    header_bytes: int = 16
    payload_bytes: int = 29

    # slotted MAC layout
    synch_slot_s: float = 0.05
    w: int = 8
    mini_slot_s: float = 0.016
    cts_slot_s: float = 0.05
    max_backoff_s: float = 0.0015
    sifs_s: float = 0.001
    smac_adaptive_err: float = 0.1

    # link model
    path_loss_exponent: float = 4.0
    pl_d0: float = 55.0
    d0: float = 1.0
    noise_floor: float = -105.0
    shadowing_sigma: float = 4.0
    bandwidth_to_rate: float = 1.5625   # noise bandwidth / bit rate
    radio_speed: float = 19200.0
    cs_threshold: float = 3.0
    disjoint_tolerance: float = 0.05   # stranded fraction that aborts the run

    # energy table: order-of-magnitude stand-ins for a MICA2-class radio,
    # NOT taken from any published measurement table; every ordering-based
    # study is insensitive to them
    sleep_ma: float = 0.03
    listen_ma: float = 15.0
    tx0_ma: float = 25.4
    voltage: float = 3.0
    switch_mj: float = 0.002
    sample_mj: float = 0.09
    battery_mah: float = 2400.0

    # error recovery
    ack_len: int = 23
    block_overhead: int = 2
    rf_overhead: int = 5
    gamma_s: float = 0.0
    retry_cap: int = 1
    turnaround_s: float = 0.0

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in parts):
                raise ConfigError(f"{f.name}: must be finite, got {value!r}")
        if not isinstance(self.area, tuple) or len(self.area) != 2:
            raise ConfigError(f"area: need width and height, got {self.area!r}")
        for key, low in _MINIMUM.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key}: must be >= {low}, got {getattr(self, key)!r}")
        for key, (low, high) in _RANGE.items():
            if not low <= getattr(self, key) <= high:
                raise ConfigError(f"{key}: must be in [{low}, {high}], "
                                  f"got {getattr(self, key)!r}")
        # a Seda recovery frame is the RF overhead and the header alone
        if self.rf_overhead + self.header_bytes < 1:
            raise ConfigError("rf_overhead, header_bytes: a recovery frame needs at least "
                              f"1 byte, got {self.rf_overhead!r} + {self.header_bytes!r}")
        for key in ("battery_mah", "bandwidth_to_rate"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key}: must be > 0, got {getattr(self, key)!r}")
        if self.smac_adaptive_err > 1.0:
            raise ConfigError("smac_adaptive_err: must be <= 1")
        if not all(0 < side <= MAX_AREA_SIDE_M for side in self.area):
            raise ConfigError(f"area: sides must be in (0, {MAX_AREA_SIDE_M:g}] m, "
                              f"got {self.area!r}")
        if self.protocol not in ("iamac", "smac", "adaptive-smac"):
            raise ConfigError(f"protocol: unknown value {self.protocol!r}")
        if self.recovery not in SESSIONS:
            raise ConfigError(f"recovery: unknown value {self.recovery!r}")
        if self.horizon_s <= self.frame_s:
            raise ConfigError("horizon_s: must exceed one frame")
        model = self._derive("path_loss_exponent, d0, radio_speed, shadowing_sigma",
                             self.link_model)
        # the dBm-to-mW values a run converts
        self._derive("noise_floor", lambda: model.noise_mw)
        self._derive("noise_floor, cs_threshold", lambda: dbm_to_mw(model.busy_threshold_dbm))
        # the strongest link a run can draw: the closest distance, ten sigma of shadowing gain
        self._derive("output_power_dbm, pl_d0, d0, path_loss_exponent, shadowing_sigma",
                     lambda: dbm_to_mw(self.output_power_dbm - model.path_loss(
                         MIN_DISTANCE_M, -10.0 * self.shadowing_sigma)))
        table = self._derive("sleep_ma, listen_ma, tx0_ma, voltage", self.energy_table)
        self._derive("output_power_dbm", lambda: table.tx_ma(self.output_power_dbm))
        # a sample per node faster than one data packet's airtime only
        # floods the event queue (at 1 ns the run never finishes)
        data_airtime = self._derive("payload_bytes, header_bytes, radio_speed",
                                    lambda: airtime(self.payload_bytes + self.header_bytes,
                                                    self.radio_speed))
        if self.sampling_interval_s < data_airtime:
            raise ConfigError(f"sampling_interval_s: must be >= one data packet airtime "
                              f"({data_airtime:.6g} s), got {self.sampling_interval_s!r}")
        control_air = self._derive("control_bytes, header_bytes, radio_speed",
                                   lambda: self.control_air)
        self._derive("frame_s, synch_slot_s, w, mini_slot_s, cts_slot_s, max_backoff_s",
                     self.frame_plan)
        if self.cts_slot_s <= control_air + 0.002:
            raise ConfigError(f"cts_slot_s: must exceed one grant airtime plus guard "
                              f"({control_air + 0.002:.4f} s)")
        return self

    @staticmethod
    def _derive(keys, build):
        """Build and return a derived object; its ValueError or overflow
        becomes a ConfigError naming `keys`."""
        try:
            return build()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{keys}: {exc}") from exc

    # -- derived objects -------------------------------------------------

    def link_model(self):
        return LinkModel(
            path_loss_exponent=self.path_loss_exponent, pl_d0=self.pl_d0,
            d0=self.d0, noise_floor=self.noise_floor,
            shadowing_sigma=self.shadowing_sigma,
            bandwidth_to_rate=self.bandwidth_to_rate,
            radio_speed=self.radio_speed, cs_threshold=self.cs_threshold,
        )

    @property
    def control_air(self):
        """Airtime of one RTS, CTS or Synch beacon: all three are control frames."""
        return airtime(self.control_bytes + self.header_bytes, self.radio_speed)

    def frame_plan(self):
        return build_frame_plan(
            self.frame_s, synch_slot=self.synch_slot_s, w=self.w,
            mini_slot=self.mini_slot_s, cts_slot=self.cts_slot_s,
            max_backoff=self.max_backoff_s, rts_airtime=self.control_air,
        )

    def energy_table(self):
        return EnergyTable(
            sleep_ma=self.sleep_ma, listen_ma=self.listen_ma, tx0_ma=self.tx0_ma,
            voltage=self.voltage, switch_mj=self.switch_mj,
            sample_mj=self.sample_mj, battery_mah=self.battery_mah,
        )


def paper_preset(**overrides):
    """The full-scale tabulated configuration."""
    return replace(Scenario(), **overrides).validate()


def desk_preset(**overrides):
    """CI-sized scenario: 50 nodes, short horizon, small battery so lifetime
    events land within minutes of simulated time.

    The layout is half the reference node density, so the default output
    power is raised to keep the expected usable-neighbor count comparable;
    radio/medium constants are otherwise untouched.
    """
    base = Scenario(
        node_count=50, area=(70.0, 70.0), horizon_s=240.0,
        sampling_interval_s=20.0, battery_mah=0.6, output_power_dbm=8.0,
    )
    return replace(base, **overrides).validate()


def paper_density_preset(**overrides):
    """50 nodes at the reference 0.02 nodes/m^2 density (50x50 m^2): the
    power-sweep and interference studies keep the tabulated 0 dBm physics."""
    base = Scenario(
        node_count=50, area=(50.0, 50.0), horizon_s=240.0,
        sampling_interval_s=20.0, battery_mah=0.6,
    )
    return replace(base, **overrides).validate()


PRESETS = {"paper": paper_preset, "desk": desk_preset,
           "paper-density": paper_density_preset}

_FIELDS = {f.name: f for f in fields(Scenario)}


def _coerce(name, raw):
    f = _FIELDS[name]
    kind = f.type
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple":
            parts = raw.replace("x", " ").replace(",", " ").split()
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from exc


def parse_scenario(text, base=None):
    """Build a Scenario from `key = value` lines; `preset = name` applies a
    preset base before the remaining keys override it."""
    values = {}
    preset = None
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key == "preset":
            if raw not in PRESETS:
                raise ConfigError(f"preset: unknown preset {raw!r}")
            preset = raw
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _coerce(key, raw)
    if preset is not None:
        base = PRESETS[preset]()
    elif base is None:
        base = Scenario()
    return replace(base, **values).validate()


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
