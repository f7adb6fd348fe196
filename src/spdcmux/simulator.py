"""Cycle-by-cycle Monte Carlo of the multiplexed source.

A run strings together emission sampling, heralding and routing for a
configured number of clock cycles, carrying the storage register state
across cycles, and tallies lack and multi-pair errors on the emitted
train.  Runs are deterministic in the configuration: the same config
replays the same uniforms and therefore the same plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .emission import herald, sample_cycle_emissions
from .errors import (
    ConservationError,
    ParameterError,
    check_capacity,
    check_mean_pairs,
    check_source_count,
    is_whole,
)
from .register import _cached_topology
from .scheduler import CyclePlan, plan_cycle, storage_capacity

__all__ = [
    "BoundaryMode",
    "FeedbackMode",
    "FeedbackPolicy",
    "SimConfig",
    "SimMetrics",
    "apply_feedback",
    "derive_point_seed",
    "run_cycle",
    "run_simulation",
]


class FeedbackMode(str, Enum):
    """How the pump reacts to the storage fill level."""

    OFF = "off"
    BOOST = "boost"
    TURBO_BOOST = "turbo_boost"


class BoundaryMode(str, Enum):
    """Whether edge rows keep their restricted reachability windows."""

    CONSTRAINED = "constrained"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class FeedbackPolicy:
    """Pump adjustment rule.

    ``boost`` raises the pump by the full strength whenever storage has
    room; ``turbo_boost`` scales the raise by the fraction of storage
    still empty, backing off smoothly as the register fills.
    """

    mode: FeedbackMode = FeedbackMode.OFF
    strength: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", FeedbackMode(self.mode))
        strength = float(self.strength)
        if not math.isfinite(strength) or strength < 0.0:
            raise ParameterError(
                f"feedback strength must be finite and non-negative, got {self.strength!r}"
            )
        object.__setattr__(self, "strength", strength)


def apply_feedback(
    policy: FeedbackPolicy,
    storage_level: int,
    capacity: int,
    base_mean: float,
) -> float:
    """Effective mean pair number for the coming cycle."""
    check_capacity(capacity)
    if not 0 <= storage_level <= capacity:
        raise ParameterError(
            f"storage level {storage_level} outside [0, {capacity}]"
        )
    if policy.mode is FeedbackMode.OFF or capacity == 0:
        return base_mean
    if policy.mode is FeedbackMode.BOOST:
        if storage_level < capacity:
            return base_mean * (1.0 + policy.strength)
        return base_mean
    headroom = (capacity - storage_level) / capacity
    return base_mean * (1.0 + policy.strength * headroom)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    source_count: int
    multiple: int
    mean_pairs: float
    step_count: int = 3
    cycles: int = 100_000
    seed: int = 0
    feedback: FeedbackPolicy = field(default_factory=FeedbackPolicy)
    boundary: BoundaryMode = BoundaryMode.CONSTRAINED

    def __post_init__(self) -> None:
        check_source_count(self.source_count)
        # delegates range checking of step count and multiple to the capacity rule
        storage_capacity(self.step_count, self.multiple)
        check_mean_pairs(self.mean_pairs)
        if not is_whole(self.cycles) or self.cycles < 0:
            raise ParameterError(
                f"cycle count must be a non-negative integer, got {self.cycles!r}"
            )
        if not is_whole(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        # whole floats become ints, so format_config writes what parse_config reads
        for name in ("source_count", "step_count", "multiple", "cycles", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if isinstance(self.feedback, (str, FeedbackMode)):
            try:
                object.__setattr__(self, "feedback", FeedbackPolicy(mode=self.feedback))
            except ValueError as exc:
                raise ParameterError(f"unknown feedback mode {self.feedback!r}") from exc
        elif not isinstance(self.feedback, FeedbackPolicy):
            raise ParameterError("feedback must be a FeedbackPolicy, mode name or FeedbackMode")
        try:
            object.__setattr__(self, "boundary", BoundaryMode(self.boundary))
        except ValueError as exc:
            raise ParameterError(f"unknown boundary mode {self.boundary!r}") from exc

    @cached_property
    def capacity(self) -> int:
        return storage_capacity(self.step_count, self.multiple)


@dataclass(frozen=True)
class SimMetrics:
    """Tallies from a finished run.

    Counts are totals over the whole run; the rate properties normalise
    by emitted slots and return NaN for an empty run.
    """

    cycles: int
    multiple: int
    lack_count: int
    multi_count: int
    filled_count: int
    discarded_count: int
    herald_count: int
    final_storage_level: int
    mean_storage_level: float

    @property
    def total_slots(self) -> int:
        return self.cycles * self.multiple

    @property
    def lack_rate(self) -> float:
        """Fraction of emitted slots that went out empty."""
        if self.total_slots == 0:
            return math.nan
        return self.lack_count / self.total_slots

    @property
    def multi_rate(self) -> float:
        """Fraction of emitted slots carrying more than one pair."""
        if self.total_slots == 0:
            return math.nan
        return self.multi_count / self.total_slots

    @property
    def relative_multi_rate(self) -> float:
        """Multi-pair fraction among filled slots only."""
        if self.filled_count == 0:
            return math.nan
        return self.multi_count / self.filled_count


def run_cycle(
    config: SimConfig,
    storage_in: tuple[int, ...],
    rng: np.random.Generator,
) -> CyclePlan:
    """Simulate a single cycle: feedback, emission, heralding, routing.

    ``storage_in`` holds the stored pair multiplicities, position 0 first.
    """
    topology = _cached_topology(config.source_count, config.step_count)
    mean = apply_feedback(
        config.feedback, len(storage_in), config.capacity, config.mean_pairs
    )
    counts = sample_cycle_emissions(config.source_count, mean, rng)
    clicks = herald(counts)
    return plan_cycle(
        topology,
        clicks,
        counts,
        storage_in,
        config.multiple,
        boundary_limits=config.boundary is BoundaryMode.CONSTRAINED,
    )


def run_simulation(config: SimConfig) -> SimMetrics:
    """Run the configured number of cycles and aggregate error statistics.

    Conservation (heralds in plus storage in equals filled plus storage
    out plus discarded) is re-checked on every cycle and again on the run
    totals; a violation aborts the run, since it would mean the planner
    lost or invented a photon.

    Parameters
    ----------
    config : SimConfig

    Returns
    -------
    SimMetrics
    """
    rng = np.random.default_rng(config.seed)
    storage: tuple[int, ...] = ()

    lack = 0
    multi = 0
    filled = 0
    discarded = 0
    heralds = 0
    level_sum = 0

    m = int(config.multiple)
    for cycle in range(config.cycles):
        plan = run_cycle(config, storage, rng)
        if not plan.conservation_ok():
            raise ConservationError(f"photon conservation violated at cycle {cycle}")
        # one count per slot kind: empty slots are lacks, the rest are
        # filled, and filled slots that do not hold exactly one pair are multi
        lacks = plan.slots.count(0)
        lack += lacks
        filled += m - lacks
        multi += m - lacks - plan.slots.count(1)
        discarded += plan.discarded
        heralds += plan.herald_count
        storage = plan.storage_out
        level_sum += len(storage)

    if heralds != filled + len(storage) + discarded:
        raise ConservationError("photon conservation violated across the run totals")

    return SimMetrics(
        cycles=config.cycles,
        multiple=config.multiple,
        lack_count=lack,
        multi_count=multi,
        filled_count=filled,
        discarded_count=discarded,
        herald_count=heralds,
        final_storage_level=len(storage),
        mean_storage_level=level_sum / config.cycles if config.cycles else math.nan,
    )


def derive_point_seed(master_seed: int, point_index: int) -> int:
    """Independent child seed for one sweep point.

    Spawns a dedicated seed sequence per (master, index) pair so sweep
    points can run in any order, or in parallel, without sharing streams.
    """
    if master_seed < 0 or point_index < 0:
        raise ParameterError("master seed and point index must be non-negative")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(point_index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
