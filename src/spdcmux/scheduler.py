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

Storage is a plain tuple of pair multiplicities, position 0 first.  The
greedy walk sees only the clicked rows and the open delays, which follow
from the storage level; the multiplicities are looked up afterwards, so
they cannot influence a routing choice.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_step_count, is_whole
from .register import RegisterTopology

__all__ = [
    "CyclePlan",
    "plan_cycle",
    "storage_capacity",
]


def storage_capacity(step_count: int, multiple: int) -> int:
    """Free register span behind an m-photon train: ``2**step_count - multiple``."""
    span = 2 ** check_step_count(step_count)
    if not is_whole(multiple) or not 1 <= multiple <= span:
        raise ParameterError(
            f"multiple must be an integer in [1, {span}], got {multiple!r}"
        )
    return span - int(multiple)


@dataclass(frozen=True)
class CyclePlan:
    """Complete routing decision for one cycle.

    ``slots[j]`` is the pair multiplicity leaving in output slot j, 0 for
    a lack.  ``storage_out[k]`` is the multiplicity parked at storage
    position k for the next cycle, position 0 closest to the output.
    """

    slots: tuple[int, ...]
    storage_out: tuple[int, ...]
    new_assignments: tuple[tuple[int, int], ...]
    discarded: int
    herald_count: int
    stored_in_level: int

    @property
    def multiple(self) -> int:
        return len(self.slots)

    @property
    def filled_count(self) -> int:
        return self.multiple - self.lack_count

    @property
    def lack_count(self) -> int:
        return self.slots.count(0)

    @property
    def multi_count(self) -> int:
        """Filled slots carrying more than one pair."""
        return self.filled_count - self.slots.count(1)

    def conservation_ok(self) -> bool:
        """Every herald and every stored photon is emitted, re-stored or discarded."""
        placed = self.filled_count + len(self.storage_out) + self.discarded
        return self.herald_count + self.stored_in_level == placed


def plan_cycle(
    topology: RegisterTopology,
    clicks: np.ndarray,
    counts: np.ndarray,
    storage_in: tuple[int, ...],
    multiple: int,
    *,
    boundary_limits: bool = True,
) -> CyclePlan:
    """Route one cycle with the monotone greedy policy.

    The L stored photons drain into the leading slots first, so the open
    targets are delays L .. 2**K - 1: the slots they leave empty, then the
    storage positions behind the photons still stored.  Heralded rows and
    these targets are walked together, fastest row to earliest target.
    With ``boundary_limits`` true a row is only eligible for delays inside
    its reachability window; rows walked past while locating an eligible
    one are discarded, which is what keeps the plan monotone.  Storage
    filling stops at the first position nobody can reach, since stored
    photons must sit contiguously behind the train.

    ``storage_in`` holds the stored pair multiplicities, position 0
    first.  Routing depends on ``clicks`` and the storage level alone;
    ``counts`` (whose nonzero entries must be exactly the clicks) and the
    stored multiplicities are only copied into the plan for accounting.

    Returns
    -------
    CyclePlan
    """
    if not isinstance(clicks, np.ndarray) or not isinstance(counts, np.ndarray):
        raise ParameterError("clicks and pair counts must be numpy arrays")
    if clicks.shape != (topology.source_count,) or counts.shape != clicks.shape:
        raise ParameterError(
            f"clicks {clicks.shape} and pair counts {counts.shape} must both "
            f"cover the topology's {topology.source_count} sources"
        )
    capacity = storage_capacity(topology.step_count, multiple)
    m = int(multiple)
    storage_in = tuple(storage_in)
    if len(storage_in) > capacity:
        raise ParameterError(
            f"{len(storage_in)} stored photons exceed capacity {capacity}"
        )
    try:
        # a float, text or None among them makes the sum fail the index check
        operator.index(sum(storage_in))
        valid = min(storage_in, default=1) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ParameterError(
            f"stored multiplicities must be integers of at least 1, got {storage_in!r}"
        )

    fired = clicks.nonzero()[0]
    rows = [i + 1 for i in fired.tolist()]
    pairs = dict(zip(rows, counts[fired].tolist()))
    slack = topology.source_count - topology.step_count if boundary_limits else None
    assignments = _route_greedy(slack, rows, len(storage_in), m, m + capacity)

    slots = [*storage_in[:m], *[0] * (m - len(storage_in))]
    stored = list(storage_in[m:])
    for row, delay in assignments:
        if delay < m:
            slots[delay] = pairs[row]
        else:
            stored.append(pairs[row])
    return CyclePlan(
        slots=tuple(slots),
        storage_out=tuple(stored),
        new_assignments=tuple(assignments),
        discarded=len(rows) - len(assignments),
        herald_count=len(rows),
        stored_in_level=len(storage_in),
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
