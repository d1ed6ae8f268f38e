"""Radio-state energy accounting."""

from __future__ import annotations

from dataclasses import dataclass


class RadioState:
    """The radio states. Each value is also the state's column in the
    ledger's `state_time`, `state_energy` and `rates`. They are plain ints,
    not an `IntEnum`: CPython 3.11 specializes list subscripts only for exact
    ints."""

    SLEEP = 0
    LISTEN = 1    # idle listen and receive draw the same current
    TX = 2


@dataclass
class EnergyTable:
    """Current draw per radio state; `Scenario.energy_table` builds it."""

    sleep_ma: float
    listen_ma: float
    tx0_ma: float                 # at 0 dBm output power
    voltage: float
    switch_mj: float              # per radio state transition
    sample_mj: float              # per sensor sample
    battery_mah: float

    def __post_init__(self):
        if min(self.sleep_ma, self.listen_ma, self.tx0_ma, self.voltage) <= 0:
            raise ValueError("all currents and the supply voltage must be positive")
        if self.sleep_ma >= self.listen_ma:
            raise ValueError("sleep current must be the smallest draw")

    def tx_ma(self, power_dbm):
        """Transmit current scales with radiated power, never below listen."""
        scaled = self.listen_ma + (self.tx0_ma - self.listen_ma) * 10.0 ** (power_dbm / 10.0)
        return max(scaled, self.listen_ma)

    def current_ma(self, state, power_dbm=0.0):
        if state == RadioState.SLEEP:
            return self.sleep_ma
        if state == RadioState.LISTEN:
            return self.listen_ma
        return self.tx_ma(power_dbm)

    def energy_mj(self, state, duration, power_dbm=0.0):
        if duration < 0:
            raise ValueError("duration must be >= 0")
        return self.current_ma(state, power_dbm) * self.voltage * duration

    @property
    def battery_mj(self):
        return self.battery_mah * 3600.0 * self.voltage
