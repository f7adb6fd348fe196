"""Per-cycle routing: fill the output train, top up storage, discard the rest.

Every cycle the device must emit a train of ``multiple`` photons in the
delay slots 0 .. multiple-1.  Photons held over from earlier cycles sit
at the front of the register and drain into the leading slots for free;
freshly heralded photons are switched into the remaining slots and then
into the storage span behind the train (delays multiple .. 2**K - 1).

The switch fabric can reorder any two photons at most once on the way
through, so a feasible routing must be monotone: listing the new
(source, delay) assignments by source index gives strictly increasing
delays.  The planner below builds monotone plans directly by walking the
heralded rows and the target delays in lockstep, committing the fastest
usable row to the earliest open target.  A row that gets walked past is
gone for the cycle; there is no later target it could legally take.
By the register's interval rule the rows that reach a delay of popcount
c are rows c+1 .. S-K+c, so one bisection finds a target's only candidate.

The storage level, the number of photons held over, is the only state a
cycle carries into the next.  The greedy walk sees only the clicked rows
and the open delays, which follow from that level: pair multiplicities
never reach the planner, so they cannot influence a routing choice.

The planner takes the bank it routes, a ``SimConfig`` checked once when
it was built, and reads S, K, m, the storage capacity and the boundary
mode from it.  :class:`BoundaryMode` lives here, beside the walk that
acts on it; ``simulator`` imports it, not the other way round.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError, check_step_count, check_whole

if TYPE_CHECKING:
    from .simulator import SimConfig

__all__ = [
    "CyclePlan",
    "plan_cycle",
    "storage_capacity",
]


def storage_capacity(step_count: int, multiple: int) -> int:
    """Free register span behind an m-photon train: ``2**step_count - multiple``."""
    span = 2 ** check_step_count(step_count)
    return span - check_whole(multiple, "multiple", 1, span)


class BoundaryMode(str, Enum):
    """Whether edge rows keep their restricted reachability windows."""

    CONSTRAINED = "constrained"
    UNCONSTRAINED = "unconstrained"


class CyclePlan(NamedTuple):
    """Complete routing decision for one cycle.

    ``assignments`` lists the (row, delay) of every fresh photon kept, in
    row order and so in delay order; delays below the train length are
    output slots, the rest storage positions.  ``storage_level`` is the
    number of photons stored for the next cycle.
    """

    assignments: list[tuple[int, int]]
    herald_count: int
    lack_count: int
    storage_level: int
    discarded: int


def plan_cycle(config: SimConfig, clicks: np.ndarray, level: int) -> CyclePlan:
    """Route one cycle of the bank ``config`` with the monotone greedy policy.

    The ``level`` stored photons drain into the leading slots first, so the
    open targets are delays level .. 2**K - 1: the slots they leave empty,
    then the storage positions behind the photons still stored.  Heralded
    rows and these targets are walked together, fastest row to earliest
    target.  In a constrained bank a row is only eligible for delays inside
    its reachability window; rows walked past while locating an eligible
    one are discarded, which is what keeps the plan monotone.  Storage
    filling stops at the first position nobody can reach, since stored
    photons must sit contiguously behind the train.

    The bank was checked when it was built; only ``clicks`` and ``level``,
    which change from cycle to cycle, are checked here.

    Returns
    -------
    CyclePlan
    """
    s, m, capacity = config.source_count, config.multiple, config.capacity
    if not isinstance(clicks, np.ndarray) or clicks.shape != (s,):
        raise ParameterError(f"clicks must be a numpy array over the bank's {s} sources")
    level = check_whole(level, "storage level", 0, capacity)
    rows = [i + 1 for i in clicks.nonzero()[0].tolist()]
    slack = s - config.step_count if config.boundary is BoundaryMode.CONSTRAINED else None
    assignments = _route_greedy(slack, rows, level, m, m + capacity)
    # stored photons sit contiguously behind the train, so the last delay
    # taken sets the next level; every other kept photon fills a slot
    end = assignments[-1][1] + 1 if assignments else 0
    level_out = max(level, end, m) - m
    return CyclePlan(
        assignments=assignments,
        herald_count=len(rows),
        lack_count=m - level - len(assignments) + level_out,
        storage_level=level_out,
        discarded=len(rows) - len(assignments),
    )


def _route_greedy(
    slack: int | None, rows: list[int], level: int, multiple: int, span: int
) -> list[tuple[int, int]]:
    """Monotone greedy walk of the clicked ``rows``, in increasing order, over
    the targets open with ``level`` photons stored, delays level .. span-1
    (slots below ``multiple``): fastest eligible row to earliest target.
    Row i reaches a delay of popcount c when c+1 <= i <= slack + c, with
    ``slack`` = S - K, or always when ``slack`` is None.  Rows left
    unassigned are discarded."""
    targets = range(level, span)
    if slack is None:
        # every row reaches every delay: rows fill the targets in order
        return list(zip(rows, targets))
    assignments: list[tuple[int, int]] = []
    pointer = 0
    for delay in targets:
        popcount = delay.bit_count()
        p = bisect_left(rows, popcount + 1, pointer)
        if p < len(rows) and rows[p] <= slack + popcount:
            assignments.append((rows[p], delay))
            pointer = p + 1
        elif pointer == len(rows) or delay >= multiple:
            # no row is left, or nobody left reaches a storage position, and
            # storage must stay contiguous.  A slot nobody reaches stays a
            # lack and the pointer stays put: survivors may reach later slots
            break
    return assignments
