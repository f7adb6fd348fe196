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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_capacity, check_step_count
from .register import RegisterTopology

__all__ = [
    "CyclePlan",
    "SlotFill",
    "StorageState",
    "plan_cycle",
    "plan_cycle_optimal",
    "storage_capacity",
]

# plan_cycle_optimal enumerates matchings over the whole bank; keep it to
# sizes where that stays instant
_OPTIMAL_MAX_SOURCES = 20
_OPTIMAL_MAX_MULTIPLE = 8


def storage_capacity(step_count: int, multiple: int) -> int:
    """Free register span behind an m-photon train: ``2**step_count - multiple``."""
    check_step_count(step_count)
    span = 2**step_count
    if multiple != int(multiple) or not 1 <= multiple <= span:
        raise ParameterError(
            f"multiple must be an integer in [1, {span}], got {multiple!r}"
        )
    return span - int(multiple)


@dataclass(frozen=True)
class StorageState:
    """Photons parked in the register between cycles.

    ``stored[k]`` is the pair multiplicity of the photon at storage
    position k.  Position 0 is closest to the output and drains first.
    """

    stored: tuple[int, ...]
    capacity: int

    def __post_init__(self) -> None:
        check_capacity(self.capacity)
        stored = tuple(int(v) for v in self.stored)
        if len(stored) > self.capacity:
            raise ParameterError(
                f"{len(stored)} stored photons exceed capacity {self.capacity}"
            )
        if any(v < 1 for v in stored):
            raise ParameterError("stored multiplicities must be at least 1")
        object.__setattr__(self, "stored", stored)

    @classmethod
    def empty(cls, capacity: int) -> "StorageState":
        return cls(stored=(), capacity=capacity)

    @property
    def level(self) -> int:
        return len(self.stored)


@dataclass(frozen=True)
class SlotFill:
    """Contents of one output slot.

    ``multiplicity`` 0 marks a lack (the slot goes out empty).  ``source``
    is the 1-based row a fresh photon came from, or None for photons
    emitted out of storage and for empty slots.
    """

    delay: int
    multiplicity: int
    source: int | None = None
    from_storage: bool = False

    @property
    def filled(self) -> bool:
        return self.multiplicity > 0


@dataclass(frozen=True)
class CyclePlan:
    """Complete routing decision for one cycle."""

    slots: tuple[SlotFill, ...]
    storage_out: StorageState
    new_assignments: tuple[tuple[int, int], ...]
    discarded: int
    herald_count: int
    stored_in_level: int

    @property
    def multiple(self) -> int:
        return len(self.slots)

    @property
    def filled_count(self) -> int:
        return sum(1 for s in self.slots if s.filled)

    @property
    def lack_count(self) -> int:
        return self.multiple - self.filled_count

    @property
    def multi_count(self) -> int:
        """Filled slots carrying more than one pair."""
        return sum(1 for s in self.slots if s.multiplicity >= 2)

    def conservation_ok(self) -> bool:
        """Every herald and every stored photon is emitted, re-stored or discarded."""
        placed = self.filled_count + self.storage_out.level + self.discarded
        return self.herald_count + self.stored_in_level == placed


def _check_plan_args(
    topology: RegisterTopology,
    clicks: np.ndarray,
    counts: np.ndarray,
    storage_in: StorageState,
    multiple: int,
) -> int:
    if clicks.shape != (topology.source_count,) or counts.shape != clicks.shape:
        raise ParameterError(
            f"clicks {clicks.shape} and pair counts {counts.shape} must both "
            f"cover the topology's {topology.source_count} sources"
        )
    m = int(multiple)
    expected = storage_capacity(topology.step_count, m)
    if storage_in.capacity != expected:
        raise ParameterError(
            f"storage capacity {storage_in.capacity} does not match register "
            f"span {expected} for multiple {m}"
        )
    return m


def plan_cycle(
    topology: RegisterTopology,
    clicks: np.ndarray,
    counts: np.ndarray,
    storage_in: StorageState,
    multiple: int,
    *,
    boundary_limits: bool = True,
) -> CyclePlan:
    """Route one cycle with the monotone greedy policy.

    Storage drains into the leading slots first.  Then heralded rows and
    open targets (remaining slots, then storage positions) are walked
    together, fastest row to earliest target.  With ``boundary_limits``
    true a row is only eligible for delays inside its reachability window;
    rows walked past while locating an eligible one are discarded, which
    is what keeps the plan monotone.  Storage filling stops at the first
    position nobody can reach, since stored photons must sit contiguously
    behind the train.

    The planner routes on ``clicks`` alone; ``counts`` (whose nonzero
    entries must be exactly the clicks) is only indexed to copy pair
    multiplicities into slots and storage for accounting, so they never
    influence a routing choice.

    Returns
    -------
    CyclePlan
    """
    m = _check_plan_args(topology, clicks, counts, storage_in, multiple)
    capacity = storage_in.capacity
    table = topology.access_table

    emit_count = min(storage_in.level, m)
    emitted = storage_in.stored[:emit_count]
    carried = storage_in.stored[emit_count:]

    slots = [
        SlotFill(delay=j, multiplicity=emitted[j], from_storage=True)
        for j in range(emit_count)
    ]

    queue = [int(i) + 1 for i in np.flatnonzero(clicks)]
    pointer = 0
    discarded = 0
    assignments: list[tuple[int, int]] = []

    def _next_eligible(target_delay: int) -> int | None:
        for p in range(pointer, len(queue)):
            if not boundary_limits or table[queue[p] - 1, target_delay]:
                return p
        return None

    for j in range(emit_count, m):
        pick = _next_eligible(j)
        if pick is None:
            # lack: nobody left can reach this slot, but the survivors may
            # still reach later targets, so the pointer stays put
            slots.append(SlotFill(delay=j, multiplicity=0))
            continue
        source = queue[pick]
        discarded += pick - pointer
        pointer = pick + 1
        assignments.append((source, j))
        slots.append(
            SlotFill(delay=j, multiplicity=int(counts[source - 1]), source=source)
        )

    new_stored: list[int] = []
    while len(carried) + len(new_stored) < capacity and pointer < len(queue):
        target = m + len(carried) + len(new_stored)
        pick = _next_eligible(target)
        if pick is None:
            break  # storage must stay contiguous: first unreachable position ends it
        source = queue[pick]
        discarded += pick - pointer
        pointer = pick + 1
        assignments.append((source, target))
        new_stored.append(int(counts[source - 1]))
    discarded += len(queue) - pointer

    return CyclePlan(
        slots=tuple(slots),
        storage_out=StorageState(stored=carried + tuple(new_stored), capacity=capacity),
        new_assignments=tuple(assignments),
        discarded=discarded,
        herald_count=len(queue),
        stored_in_level=storage_in.level,
    )


def plan_cycle_optimal(
    topology: RegisterTopology,
    clicks: np.ndarray,
    counts: np.ndarray,
    storage_in: StorageState,
    multiple: int,
    *,
    boundary_limits: bool = True,
) -> CyclePlan:
    """Fill the maximum possible number of slots this cycle.

    Benchmark planner: solves a maximum bipartite matching between
    heralded rows and open slots, ignoring the monotone switching
    restriction, then tops up storage greedily.  Useful as a ceiling for
    what any feasible policy could fill.  Restricted to small banks.
    """
    m = _check_plan_args(topology, clicks, counts, storage_in, multiple)
    if topology.source_count > _OPTIMAL_MAX_SOURCES or m > _OPTIMAL_MAX_MULTIPLE:
        raise ParameterError(
            "optimal planner supports at most "
            f"{_OPTIMAL_MAX_SOURCES} sources and multiple {_OPTIMAL_MAX_MULTIPLE}, "
            f"got {topology.source_count} and {m}"
        )
    capacity = storage_in.capacity
    table = topology.access_table

    emit_count = min(storage_in.level, m)
    emitted = storage_in.stored[:emit_count]
    carried = storage_in.stored[emit_count:]
    open_slots = list(range(emit_count, m))

    queue = [int(i) + 1 for i in np.flatnonzero(clicks)]

    matched: dict[int, int] = {}  # slot delay -> source
    if open_slots and queue:
        eligible = np.zeros((len(open_slots), len(queue)), dtype=bool)
        for r, j in enumerate(open_slots):
            for c, source in enumerate(queue):
                if not boundary_limits or table[source - 1, j]:
                    eligible[r, c] = True
        for c, r in enumerate(_maximum_matching(eligible)):
            if r >= 0:
                matched[open_slots[r]] = queue[c]

    slots = [
        SlotFill(delay=j, multiplicity=emitted[j], from_storage=True)
        for j in range(emit_count)
    ]
    assignments: list[tuple[int, int]] = []
    for j in open_slots:
        source = matched.get(j)
        if source is None:
            slots.append(SlotFill(delay=j, multiplicity=0))
        else:
            assignments.append((source, j))
            slots.append(
                SlotFill(delay=j, multiplicity=int(counts[source - 1]), source=source)
            )

    leftovers = [s for s in queue if s not in matched.values()]
    new_stored: list[int] = []
    while len(carried) + len(new_stored) < capacity and leftovers:
        target = m + len(carried) + len(new_stored)
        pick = None
        for p, candidate in enumerate(leftovers):
            if not boundary_limits or table[candidate - 1, target]:
                pick = p
                break
        if pick is None:
            break
        source = leftovers.pop(pick)
        assignments.append((source, target))
        new_stored.append(int(counts[source - 1]))

    discarded = len(queue) - len(assignments)
    return CyclePlan(
        slots=tuple(slots),
        storage_out=StorageState(stored=carried + tuple(new_stored), capacity=capacity),
        new_assignments=tuple(assignments),
        discarded=discarded,
        herald_count=len(queue),
        stored_in_level=storage_in.level,
    )


def _maximum_matching(eligible: np.ndarray) -> list[int]:
    """Row matched to each column of a boolean matrix (-1 if none), maximum in size.

    Augmenting-path search: each row in turn claims a free eligible column
    or one whose holder can move on to another column.
    """
    holder = [-1] * eligible.shape[1]

    def augment(row: int, seen: set[int]) -> bool:
        for col in np.flatnonzero(eligible[row]):
            if col not in seen:
                seen.add(col)
                if holder[col] < 0 or augment(holder[col], seen):
                    holder[col] = row
                    return True
        return False

    for row in range(eligible.shape[0]):
        augment(row, set())
    return holder
