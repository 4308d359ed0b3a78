"""Feedforward latency accounting against the memory coherence time."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class LatencyBudget:
    """Per-cycle latency terms and the memory budget, all in microseconds."""

    eom_response: float
    optical_propagation: float
    signal_processing: float
    storage_before_first_readout: float = 0.0
    coherence_time: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")


# Reference numbers of the demonstrated configuration.
REFERENCE_BUDGET = LatencyBudget(
    eom_response=1.56,
    optical_propagation=0.02,
    signal_processing=0.11,
    storage_before_first_readout=2.27,
    coherence_time=14.27,
)

# Projection with fast EOM drivers (65 ns rise time) and a long-lived memory
# (100 ms coherence).
FAST_EOM_BUDGET = LatencyBudget(
    eom_response=0.065,
    optical_propagation=0.02,
    signal_processing=0.11,
    storage_before_first_readout=0.0,
    coherence_time=100_000.0,
)

# The step-budget formula below subtracts the first-readout storage time from
# the coherence time before dividing by the cycle; it is an inference from the
# reference numbers, not a measured rule, and outputs are labeled accordingly.
MAX_STEPS_FORMULA_NOTE = (
    "max_steps = floor((coherence_time - storage_before_first_readout) / cycle_time); "
    "inferred formula, clamped at 0"
)


def cycle_time(budget: LatencyBudget) -> float:
    """One feedforward cycle: EOM response + optical path + signal processing."""
    return budget.eom_response + budget.optical_propagation + budget.signal_processing


def max_steps(budget: LatencyBudget) -> int:
    """Feedforward steps that fit in the coherence window after first storage."""
    cycle = cycle_time(budget)
    if cycle <= 0:
        raise ValueError("cycle_time must be > 0 to budget feedforward steps")
    remaining = budget.coherence_time - budget.storage_before_first_readout
    if remaining <= 0:
        return 0
    steps = remaining / cycle
    if not math.isfinite(steps):
        raise ValueError(f"step budget {remaining} / {cycle} overflows")
    return max(0, math.floor(steps))
