"""Test-only references: the per-photon bookkeeping that the library does
without, and the check that a cycle's routing is monotone."""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from spdcmux import (
    CyclePlan,
    ParameterError,
    SimConfig,
    SimMetrics,
    herald,
    plan_cycle,
    sample_cycle_emissions,
)


def verify_monotone_assignment(assignments: Sequence[tuple[int, int]]) -> bool:
    """Check that routed (source, delay) pairs never cross.

    Sorting by source index must give strictly increasing delays: the
    fastest row that fires takes the shortest delay still open, and so on
    down the stack.  A plan with crossings would need some photon pair to
    swap register positions twice, which the hardware cannot do.

    Raises
    ------
    ParameterError
        If an entry is not a (source, delay) pair, or any source index or
        delay value appears twice.
    """
    try:
        sources = [s for s, _ in assignments]
        delays = [d for _, d in assignments]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"assignments must be (source, delay) pairs: {exc}") from None
    if len(set(sources)) != len(sources):
        raise ParameterError("assignment reuses a source index")
    if len(set(delays)) != len(delays):
        raise ParameterError("assignment reuses a delay value")
    ordered = sorted(assignments)
    return all(a[1] < b[1] for a, b in zip(ordered, ordered[1:]))


def place_photons(
    storage: tuple[int, ...], counts: np.ndarray, plan: CyclePlan, multiple: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pair counts of the output slots and of storage after one cycle.

    ``storage`` holds the stored pair counts, position 0 first.  They drain
    into the leading slots, and each kept photon lands at its delay: a slot
    below ``multiple``, else the next storage position.  A slot left empty
    reads 0.
    """
    slots = [*storage[:multiple], *[0] * (multiple - len(storage))]
    stored = list(storage[multiple:])
    for row, delay in plan.assignments:
        if delay < multiple:
            slots[delay] = int(counts[row - 1])
        else:
            stored.append(int(counts[row - 1]))
    return tuple(slots), tuple(stored)


def reference_cycles(config: SimConfig) -> Iterator[tuple[np.ndarray, tuple, CyclePlan, tuple, tuple]]:
    """The cycles of ``run_simulation(config)``, on the same uniforms, with
    every photon's pair count kept: (counts, storage in, plan, slots,
    storage out) per cycle, storage as pair counts, position 0 first."""
    rng = np.random.default_rng(config.seed)
    storage: tuple[int, ...] = ()
    for _ in range(config.cycles):
        counts = sample_cycle_emissions(config.source_count, config.pumps[len(storage)], rng)
        plan = plan_cycle(config, herald(counts), len(storage))
        slots, stored = place_photons(storage, counts, plan, config.multiple)
        yield counts, storage, plan, slots, stored
        storage = stored


def reference_metrics(config: SimConfig) -> SimMetrics:
    """``run_simulation``'s tallies counted off the slot and storage contents."""
    m = config.multiple
    lack = multi = discarded = heralds = level_sum = 0
    storage: tuple[int, ...] = ()
    for counts, _, plan, slots, storage in reference_cycles(config):
        lacks = slots.count(0)
        lack += lacks
        multi += m - lacks - slots.count(1)
        clicked = int(np.count_nonzero(counts))
        heralds += clicked
        discarded += clicked - len(plan.assignments)
        level_sum += len(storage)
    return SimMetrics(
        cycles=config.cycles,
        multiple=m,
        lack_count=lack,
        multi_count=multi,
        filled_count=m * config.cycles - lack,
        discarded_count=discarded,
        herald_count=heralds,
        final_storage_level=len(storage),
        mean_storage_level=level_sum / config.cycles if config.cycles else math.nan,
    )
