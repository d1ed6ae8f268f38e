"""Discrete-event simulator of a duty-cycled, interference-avoiding sensor
MAC (with S-MAC baselines), a lossy-link channel, ETX tree routing, ARQ and
block-recovery transfers, and an experiment harness."""

from .channel import LinkModel, transitional_region
from .config import Scenario, desk_preset, load_scenario, paper_density_preset, paper_preset
from .engine import Engine, RandomStreams
from .frames import FramePlan, build_frame_plan
from .recovery import arq_capacity, rts_success_prob, seda_capacity
from .simulation import Simulation

__all__ = [
    "Engine", "RandomStreams", "LinkModel", "transitional_region",
    "FramePlan", "build_frame_plan", "rts_success_prob",
    "arq_capacity", "seda_capacity", "Scenario", "load_scenario",
    "desk_preset", "paper_preset", "paper_density_preset", "Simulation",
]
