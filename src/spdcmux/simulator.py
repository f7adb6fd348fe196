"""Cycle-by-cycle Monte Carlo of the multiplexed source.

A run strings together emission sampling, heralding and routing for a
configured number of clock cycles, carrying the storage level across
cycles, and tallies lack and multi-pair errors on the emitted
train.  Runs are deterministic in the configuration: the same config
replays the same uniforms and therefore the same plans.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

import numpy as np

from .emission import _pair_count_cdf, herald, sample_cycle_emissions
from .errors import (
    ConservationError,
    ParameterError,
    check_mean_pairs,
    check_real,
    check_source_count,
    check_whole,
    is_whole,
)
from .scheduler import BoundaryMode, CyclePlan, plan_cycle, storage_capacity

__all__ = [
    "BoundaryMode",
    "FeedbackMode",
    "SimConfig",
    "SimMetrics",
    "apply_feedback",
    "derive_point_seed",
    "run_cycles",
    "run_simulation",
]


class FeedbackMode(str, Enum):
    """How the pump reacts to the storage fill level.

    ``boost`` raises the pump by the full strength whenever storage has
    room; ``turbo_boost`` scales the raise by the fraction of storage
    still empty, backing off smoothly as the register fills.
    """

    OFF = "off"
    BOOST = "boost"
    TURBO_BOOST = "turbo_boost"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one bank and of a run of it.

    S = ``source_count`` sources feed a K = ``step_count`` stage register
    that emits an m = ``multiple`` photon train; each source makes
    ``mean_pairs`` pairs a cycle on average, raised by the ``feedback``
    rule with gain ``feedback_strength`` (see :attr:`pumps`).
    ``boundary`` keeps or drops the edge rows' reachability limits.
    ``cycles`` and ``seed`` set the Monte Carlo run; the exact chain
    ignores them.  Whole floats become ints, the pump and its gain become
    floats, and the modes take a name or the enum member.
    """

    source_count: int
    multiple: int
    mean_pairs: float
    step_count: int = 3
    cycles: int = 100_000
    seed: int = 0
    feedback: FeedbackMode = FeedbackMode.OFF
    feedback_strength: float = 1.0
    boundary: BoundaryMode = BoundaryMode.CONSTRAINED

    def __post_init__(self) -> None:
        strength = check_real(self.feedback_strength, "feedback strength", positive=False)
        object.__setattr__(self, "feedback_strength", strength)
        check_source_count(self.source_count)
        # delegates range checking of step count and multiple to the capacity rule
        storage_capacity(self.step_count, self.multiple)
        object.__setattr__(self, "mean_pairs", check_mean_pairs(self.mean_pairs))
        check_whole(self.cycles, "cycle count")
        check_whole(self.seed, "seed")
        # whole floats become ints, so the repr of each field reads back through --config
        for name in ("source_count", "step_count", "multiple", "cycles", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name, mode in (("feedback", FeedbackMode), ("boundary", BoundaryMode)):
            try:
                object.__setattr__(self, name, mode(getattr(self, name)))
            except ValueError as exc:
                raise ParameterError(f"unknown {name} mode {getattr(self, name)!r}") from exc

    @cached_property
    def capacity(self) -> int:
        return storage_capacity(self.step_count, self.multiple)

    @cached_property
    def pumps(self) -> tuple[float, ...]:
        """``pumps[L]`` is the pump of a cycle that starts with L photons stored,
        raised by the feedback rule.  A bank with no storage has nothing to react to."""
        capacity, mean, gain = self.capacity, self.mean_pairs, self.feedback_strength
        if self.feedback is FeedbackMode.OFF or capacity == 0:
            return (mean,) * (capacity + 1)
        if self.feedback is FeedbackMode.BOOST:
            return (mean * (1.0 + gain),) * capacity + (mean,)
        return tuple(mean * (1.0 + gain * ((capacity - n) / capacity)) for n in range(capacity + 1))


def apply_feedback(config: SimConfig, storage_level: int) -> float:
    """The pump of a cycle that starts with ``storage_level`` photons stored, checked."""
    return config.pumps[check_whole(storage_level, "storage level", 0, config.capacity)]


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


def run_cycles(config: SimConfig) -> Iterator[tuple[np.ndarray, CyclePlan]]:
    """Yield the pair counts and the plan of each of ``config.cycles`` cycles.

    The run starts from empty storage and replays one uniform stream from
    ``config.seed``.  A cycle pumps at ``config.pumps`` of the level it
    starts from, samples every source, heralds the clicks and routes them;
    its plan's ``storage_level`` is where the next cycle starts.  A bank
    whose largest pump cannot be sampled raises :class:`ParameterError`
    before the first cycle, naming the pump setting it came from.
    """
    rng = np.random.default_rng(config.seed)
    pumps = config.pumps
    try:
        _pair_count_cdf(max(pumps))
    except ParameterError as exc:
        raise ParameterError(
            f"{exc}; the bank's largest pump, from mean pair number {config.mean_pairs!r} "
            f"with feedback {config.feedback.value} at gain {config.feedback_strength!r}"
        ) from None
    level = 0
    for _ in range(config.cycles):
        counts = sample_cycle_emissions(config.source_count, pumps[level], rng)
        plan = plan_cycle(config, herald(counts), level)
        yield counts, plan
        level = plan.storage_level


def run_simulation(config: SimConfig) -> SimMetrics:
    """Run the configured number of cycles and aggregate error statistics.

    The cycles are those of :func:`run_cycles`.  Photons leave the device
    in the order they were kept: storage drains from position 0, and fresh
    photons take the later slots and then the positions behind, in row
    order.  So the multi-pair slots are the multi-pair photons kept over
    the run, less those among the last ``final_storage_level`` kept, which
    are still stored at the end.  Photon conservation fixes the other
    totals: every kept photon leaves in a slot except those still stored,
    so the filled slots are the kept photons less the final level, the
    lacks are the slots left over, and the discards are the heralds that
    were not kept.

    Every cycle's delays must rise strictly from the storage level, so
    that no two photons share a target and none lands on a stored photon;
    a plan that breaks this aborts the run, since it would mean the
    planner lost or invented a photon.

    Parameters
    ----------
    config : SimConfig

    Returns
    -------
    SimMetrics
    """
    level = heralds = level_sum = kept = multi_kept = 0
    # positions in keeping order of the latest multi-pair photons, enough
    # to count those among the last ``capacity`` photons kept
    recent_multis: deque[int] = deque(maxlen=config.capacity)

    for cycle, (counts, plan) in enumerate(run_cycles(config)):
        last = level - 1
        for row, delay in plan.assignments:
            if delay <= last:
                raise ConservationError(f"photon conservation violated at cycle {cycle}")
            last = delay
            if counts[row - 1] > 1:
                recent_multis.append(kept)
                multi_kept += 1
            kept += 1
        heralds += plan.herald_count
        level = plan.storage_level
        level_sum += level

    stored_multis = sum(1 for position in recent_multis if position >= kept - level)
    filled = kept - level
    return SimMetrics(
        cycles=config.cycles,
        multiple=config.multiple,
        lack_count=config.multiple * config.cycles - filled,
        multi_count=multi_kept - stored_multis,
        filled_count=filled,
        discarded_count=heralds - kept,
        herald_count=heralds,
        final_storage_level=level,
        mean_storage_level=level_sum / config.cycles if config.cycles else math.nan,
    )


def derive_point_seed(master_seed: int, point_index: int) -> int:
    """Independent child seed for one sweep point.

    Spawns a dedicated seed sequence per (master, index) pair so sweep
    points can run in any order, or in parallel, without sharing streams.
    """
    if not all(is_whole(value) and value >= 0 for value in (master_seed, point_index)):
        raise ParameterError(
            "master seed and point index must be non-negative integers, "
            f"got {master_seed!r} and {point_index!r}"
        )
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(point_index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
