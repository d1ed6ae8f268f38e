"""The benchmark's workloads and the CSV hash that guards their output.

Each workload is one fixed scenario, wired exactly as the simulator's own
entry points wire it. Its seed is the scenario seed; hashes are recorded in
`expected.json` for the default seed and one held-out seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from iamac_sim.config import desk_preset, paper_preset  # noqa: E402
from iamac_sim.harness import (RUN_COLUMNS, RUN_METRICS, _fmt,  # noqa: E402
                               rows_to_csv, star_simulation)
from iamac_sim.simulation import Simulation  # noqa: E402

DEFAULT_SEED = 1

# Horizons are sized so that one untraced run takes about 1-3 s of host time
# on a 2-core x86 host (Python 3.11): long enough to dominate process start-up,
# short enough that a 30 s measurement holds several runs.
WORKLOADS = ("paper-iamac", "paper-adaptive-smac", "star-seda")


def scenario(workload, seed=DEFAULT_SEED):
    """The validated Scenario of a workload at a scenario seed."""
    if workload == "paper-iamac":
        return paper_preset(seed=seed)
    if workload == "paper-adaptive-smac":
        return paper_preset(seed=seed, protocol="adaptive-smac", horizon_s=100.0)
    if workload == "star-seda":
        return desk_preset(seed=seed, node_count=7, area=(20.0, 20.0),
                           frame_s=10.0, horizon_s=2000.0,
                           sampling_interval_s=0.08, recovery="seda",
                           shadowing_sigma=0.0, battery_mah=2400.0,
                           stop_on_first_death=False)
    raise KeyError(workload)


def build(workload, sc, trace=False):
    """A bootstrapped Simulation: the set-up that `setup_s` times."""
    if workload == "star-seda":
        sim = star_simulation(sc)
        sim.trace_enabled = trace
    else:
        sim = Simulation(sc, trace=trace)
    sim.bootstrap_routing()
    return sim


def csv_hash(sc, result):
    """SHA-256 of the rows `harness.run_experiment` emits for this result."""
    result = dict(result)
    result["status_code"] = {"ok": 0, "disjoint": 3}.get(result["status"], 1)
    rows = [["run", sc.protocol, sc.recovery, _fmt(sc.frame_s), str(sc.seed),
             metric, _fmt(result.get(metric))] for metric in RUN_METRICS]
    return hashlib.sha256(rows_to_csv(RUN_COLUMNS, rows).encode("utf-8")).hexdigest()


def expected():
    """Recorded hashes and the held-out seed, from `expected.json`."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)
