"""Cycle planning: storage drain, monotone greedy fill, test-only matching ceiling."""

import inspect
import math

import numpy as np
import pytest

from cycle_reference import place_photons, verify_monotone_assignment
from spdcmux import (
    BoundaryMode,
    CyclePlan,
    ParameterError,
    RegisterTopology,
    SimConfig,
    herald,
    plan_cycle,
    storage_capacity,
)


def _bank(
    source_count: int, multiple: int, step_count: int = 3, boundary: str = "constrained"
) -> SimConfig:
    """The bank a planner routes; its pump is a stand-in no planner reads."""
    return SimConfig(source_count, multiple, 0.1, step_count=step_count, boundary=boundary)


def _reaches(config: SimConfig):
    """``reaches(row, delay)`` read cell by cell off the bank's ``access_table``,
    or always true in an unconstrained bank."""
    table = RegisterTopology(config.source_count, config.step_count).access_table
    constrained = config.boundary is BoundaryMode.CONSTRAINED
    return lambda row, delay: not constrained or bool(table[row - 1, delay])


def _level_plan(assignments, herald_count: int, level: int, multiple: int) -> CyclePlan:
    """The plan of ``assignments`` from ``level``, its counts read photon by
    photon: the stored photons drain into the leading slots, and each kept
    photon fills the slot or storage position at its delay."""
    fresh_slots = sum(1 for _, delay in assignments if delay < multiple)
    return CyclePlan(
        assignments=list(assignments),
        herald_count=herald_count,
        lack_count=multiple - min(level, multiple) - fresh_slots,
        storage_level=max(level - multiple, 0) + len(assignments) - fresh_slots,
        discarded=herald_count - len(assignments),
    )


def plan_cycle_optimal(config, clicks, level):
    """Most slots any routing could fill, ignoring the monotone switching
    restriction: the ceiling for the greedy walk.  A maximum matching of
    clicked rows to open slots, then storage topped up contiguously from
    the rows left over.  ``plan_cycle`` runs first, so the arguments pass
    the library's own checks."""
    plan_cycle(config, clicks, level)
    if config.source_count > 20 or config.multiple > 8:
        # the recursive augmenting search stays instant only on small banks
        raise ParameterError("the matching ceiling takes at most 20 sources and multiple 8")
    m, level = config.multiple, int(level)
    drained = min(level, m)
    rows = [int(i) + 1 for i in np.flatnonzero(clicks)]
    reaches = _reaches(config)

    holder: dict[int, int] = {}  # clicked row -> open slot delay

    def claim(delay: int, seen: set[int]) -> bool:
        # take a free row, or one whose holder can move to another slot
        for row in rows:
            if row not in seen and reaches(row, delay):
                seen.add(row)
                if row not in holder or claim(holder[row], seen):
                    holder[row] = delay
                    return True
        return False

    for delay in range(drained, m):
        claim(delay, set())
    assignments = sorted(holder.items(), key=lambda pair: pair[1])
    leftovers = [row for row in rows if row not in holder]
    for delay in range(m + level - drained, m + config.capacity):
        pick = next((row for row in leftovers if reaches(row, delay)), None)
        if pick is None:
            break
        leftovers.remove(pick)
        assignments.append((pick, delay))
    return _level_plan(assignments, len(rows), level, m)


def plan_cycle_literal(config, clicks, level):
    """The greedy walk read cell by cell off ``access_table``: each open
    target, slots then storage, takes the first clicked row at or after
    the pointer that reaches it.  Rows passed over are discarded, a slot
    nobody reaches stays a lack and a storage position nobody reaches ends
    the walk.  The library routes on the interval rule instead."""
    m, level = config.multiple, int(level)
    drained = min(level, m)
    rows = [int(i) + 1 for i in np.flatnonzero(clicks)]
    reaches = _reaches(config)
    assignments, pointer = [], 0
    for delay in [*range(drained, m), *range(m + level - drained, m + config.capacity)]:
        takers = [p for p in range(pointer, len(rows)) if reaches(rows[p], delay)]
        if takers:
            assignments.append((rows[takers[0]], delay))
            pointer = takers[0] + 1
        elif delay >= m:
            break
    return _level_plan(assignments, len(rows), level, m)


def _report(source_count: int, multiplicities: dict[int, int]):
    """Clicks and pair counts of one cycle: the planners take the clicks,
    the slot contents come from the counts."""
    counts = np.zeros(source_count, dtype=np.int64)
    for source, mult in multiplicities.items():
        counts[source - 1] = mult
    return herald(counts), counts


def _random_report(rng: np.random.Generator, source_count: int, p_fire: float):
    fired = rng.random(source_count) < p_fire
    counts = np.where(fired, rng.integers(1, 4, source_count), 0)
    return herald(counts), counts


def test_storage_capacity_table() -> None:
    assert [storage_capacity(3, m) for m in range(1, 9)] == [7, 6, 5, 4, 3, 2, 1, 0]
    assert storage_capacity(1, 1) == 1
    assert storage_capacity(2, 3) == 1
    # a whole float step count gives an int capacity
    assert type(storage_capacity(3.0, 4)) is int


def test_storage_capacity_validation() -> None:
    for step_count, multiple in ((3, 0), (3, 9), (0, 1), (13, 1), ("3", 4), (3, "4")):
        with pytest.raises(ParameterError):
            storage_capacity(step_count, multiple)


def test_planners_validate_storage() -> None:
    # the storage level is all either planner knows of storage: an integer
    # that must fit the span behind the train
    bank = _bank(11, 4)
    clicks, _ = _report(11, {})
    for planner in (plan_cycle, plan_cycle_optimal):
        assert planner(bank, clicks, 2).lack_count == 2
        assert planner(bank, clicks, 4).storage_level == 0
        assert planner(bank, clicks, np.int64(2)) == planner(bank, clicks, 2)
        assert planner(bank, clicks, 2.0) == planner(bank, clicks, 2)
        for bad in (5, -1, 1.5, np.float64(0.5), "2", None, math.inf, math.nan):
            with pytest.raises(ParameterError):
                planner(bank, clicks, bad)


def test_plan_cycle_rejects_a_level_outside_the_register() -> None:
    clicks = _report(11, {3: 1, 7: 2})[0]
    for m in range(1, 9):
        bank, capacity = _bank(11, m), storage_capacity(3, m)
        assert plan_cycle(bank, clicks, capacity).storage_level <= capacity
        for level in (-1, capacity + 1, capacity + 0.5, 0.5, -0.5):
            with pytest.raises(ParameterError, match=rf"storage level must be an integer in \[0, {capacity}\]"):
                plan_cycle(bank, clicks, level)


def test_empty_cycle_is_all_lacks() -> None:
    clicks, counts = _report(11, {})
    plan = plan_cycle(_bank(11, 4), clicks, 0)
    assert plan == CyclePlan(
        assignments=[], herald_count=0, lack_count=4, storage_level=0, discarded=0
    )
    assert place_photons((), counts, plan, 4) == ((0, 0, 0, 0), ())


def test_storage_drains_into_leading_slots() -> None:
    clicks, counts = _report(11, {})
    plan = plan_cycle(_bank(11, 4), clicks, 3)
    assert plan.assignments == []
    assert plan.lack_count == 1
    assert plan.storage_level == 0
    slots, storage = place_photons((1, 1, 2), counts, plan, 4)
    assert slots == (1, 1, 2, 0)  # three filled, one of them multi
    assert storage == ()


def test_overfull_storage_carries_forward() -> None:
    # a 2-photon train with a 3-step register stores up to 6; the photons
    # beyond the first two shift down and wait another cycle
    clicks, counts = _report(11, {})
    plan = plan_cycle(_bank(11, 2), clicks, 5)
    assert plan.lack_count == 0
    assert plan.storage_level == 3
    assert place_photons((1, 1, 1, 2, 1), counts, plan, 2) == ((1, 1), (1, 2, 1))


def test_fresh_fill_follows_row_order() -> None:
    clicks, counts = _report(11, {4: 1, 6: 2, 8: 1})
    plan = plan_cycle(_bank(11, 4), clicks, 0)
    assert plan.assignments == [(4, 0), (6, 1), (8, 2)]
    assert plan.lack_count == 1
    assert plan.discarded == 0
    assert place_photons((), counts, plan, 4) == ((1, 2, 1, 0), ())


def test_surplus_goes_to_storage_positions_behind_train() -> None:
    clicks, counts = _report(11, {4: 1, 5: 1, 6: 1, 7: 2, 8: 1, 9: 1})
    plan = plan_cycle(_bank(11, 4), clicks, 0)
    assert plan.assignments == [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 5)]
    assert plan.lack_count == 0
    assert plan.storage_level == 2  # sources 8 and 9 parked at delays 4, 5
    assert plan.discarded == 0
    assert place_photons((), counts, plan, 4) == ((1, 1, 1, 2), (1, 1))


def test_skipped_fast_row_is_discarded_not_stored() -> None:
    # storage drains into slots 0-2, so the first open target is slot 3,
    # which row 2 cannot reach; row 6 takes it and row 2 must be dropped,
    # because parking row 2 behind the train would cross assignment (6, 3)
    plan = plan_cycle(_bank(11, 4), _report(11, {2: 1, 6: 1})[0], 3)
    assert plan.assignments == [(6, 3)]
    assert plan.discarded == 1
    assert plan.lack_count == 0
    assert plan.storage_level == 0
    assert verify_monotone_assignment(plan.assignments)


def test_unreachable_slot_keeps_survivors_alive() -> None:
    # rows 9 and 10 cannot reach slot 0; the lack there must not consume them
    clicks, counts = _report(11, {9: 1, 10: 1})
    plan = plan_cycle(_bank(11, 6), clicks, 0)
    assert plan.assignments == [(9, 1), (10, 3)]
    assert place_photons((), counts, plan, 6)[0] == (0, 1, 0, 1, 0, 0)
    assert plan.lack_count == 4
    assert plan.discarded == 0
    assert verify_monotone_assignment(plan.assignments)


def test_storage_stops_at_first_unreachable_position() -> None:
    # row 11 only reaches delay 7, but with a 6-train the next storage
    # position is 6; storing at 7 would leave a hole, so row 11 is dropped
    plan = plan_cycle(_bank(11, 6), _report(11, {10: 1, 11: 1})[0], 0)
    assert plan.assignments == [(10, 3)]
    assert plan.storage_level == 0
    assert plan.discarded == 1
    assert plan.lack_count == 5


def test_unconstrained_fill_matches_counting_formula() -> None:
    # without boundary limits the planner must behave exactly like the
    # head-of-queue counting model: fill min(m, level + heralds), store
    # min(capacity, remainder), discard the rest
    rng = np.random.default_rng(55)
    for _ in range(400):
        m = int(rng.integers(1, 9))
        capacity = storage_capacity(3, m)
        level = int(rng.integers(0, capacity + 1))
        clicks, _ = _random_report(rng, 9, float(rng.uniform(0.05, 0.6)))
        plan = plan_cycle(_bank(9, m, boundary="unconstrained"), clicks, level)
        available = level + int(np.count_nonzero(clicks))
        filled = min(m, available)
        assert plan.lack_count == m - filled
        assert plan.storage_level == min(capacity, available - filled)
        assert plan.discarded == available - filled - plan.storage_level
        assert plan == _level_plan(plan.assignments, plan.herald_count, level, m)
        assert verify_monotone_assignment(plan.assignments)


def test_interval_router_matches_literal_greedy() -> None:
    # the bisection on the interval rule against the walk over the table,
    # on banks shorter than the register, edge-only banks and tall ones
    rng = np.random.default_rng(1212)
    for _ in range(4000):
        step_count = int(rng.integers(1, 6))
        source_count = int(rng.integers(1, 3 * step_count + 8))
        m = int(rng.integers(1, 2**step_count + 1))
        level = int(rng.integers(0, storage_capacity(step_count, m) + 1))
        clicks, _ = _random_report(rng, source_count, float(rng.uniform(0.05, 0.9)))
        for boundary in BoundaryMode:
            bank = _bank(source_count, m, step_count, boundary)
            assert plan_cycle(bank, clicks, level) == plan_cycle_literal(bank, clicks, level)


def test_planner_is_blind_to_multiplicities() -> None:
    # the planner takes the clicks and the storage level, never a pair
    # count; multiplicities only decide what the slots and storage carry,
    # stored photons first and fresh ones in delay order
    assert list(inspect.signature(plan_cycle).parameters) == ["config", "clicks", "level"]
    rng = np.random.default_rng(7)
    stored_rng = np.random.default_rng(8)
    bank = _bank(11, 4)
    for _ in range(100):
        fired = rng.random(11) < 0.4
        ones = np.where(fired, 1, 0).astype(np.int64)
        varied = np.where(fired, rng.integers(1, 5, 11), 0).astype(np.int64)
        level = int(rng.integers(0, 5))
        stored = tuple(int(v) for v in stored_rng.integers(1, 5, level))
        for planner in (plan_cycle, plan_cycle_optimal):
            plan = planner(bank, herald(varied), level)
            assert plan == planner(bank, herald(ones), level)
            slots, storage = place_photons(stored, varied, plan, 4)
            source_at = {d: s for s, d in plan.assignments}
            fresh = [
                int(varied[source_at[d] - 1]) if d in source_at else 0 for d in range(level, 8)
            ]
            assert slots == stored + tuple(fresh[: 4 - level])
            assert storage == tuple(fresh[4 - level :][: plan.storage_level])


def test_greedy_never_beats_optimal_and_gap_is_at_most_one() -> None:
    rng = np.random.default_rng(404)
    wide_gaps = []
    for trial in range(300):
        source_count = int(rng.integers(4, 13))
        m = int(rng.integers(1, 5)) * 2
        bank = _bank(source_count, m)
        capacity = storage_capacity(3, m)
        level = int(rng.integers(0, capacity + 1))
        clicks, _ = _random_report(rng, source_count, float(rng.uniform(0.1, 0.8)))
        greedy = plan_cycle(bank, clicks, level)
        best = plan_cycle_optimal(bank, clicks, level)
        assert best.lack_count <= greedy.lack_count
        if greedy.lack_count - best.lack_count > 1:
            wide_gaps.append((trial, source_count, m, level, clicks.tolist()))
    assert not wide_gaps, f"greedy trailed optimal by more than one slot: {wide_gaps}"


def test_optimal_planner_conserves_and_refuses_large_banks() -> None:
    plan = plan_cycle_optimal(_bank(11, 4), _report(11, {2: 1, 6: 2, 9: 1})[0], 1)
    filled = 4 - plan.lack_count
    assert plan.herald_count + 1 == filled + plan.storage_level + plan.discarded
    assert filled >= 3

    with pytest.raises(ParameterError):
        plan_cycle_optimal(_bank(21, 4), _report(21, {})[0], 0)
    with pytest.raises(ParameterError):
        plan_cycle_optimal(_bank(12, 9, step_count=4), _report(12, {})[0], 0)


def test_optimal_recovers_fill_greedy_forfeits() -> None:
    # the drop of row 2 in the monotone policy is a real cost: the
    # unrestricted matcher parks it behind the train instead
    clicks, counts = _report(11, {2: 1, 6: 1})
    greedy = plan_cycle(_bank(11, 4), clicks, 3)
    best = plan_cycle_optimal(_bank(11, 4), clicks, 3)
    assert greedy.lack_count == best.lack_count == 0
    assert best.storage_level == 1
    assert greedy.storage_level == 0
    assert place_photons((1, 1, 1), counts, best, 4)[1] == (1,)


def test_plan_cycle_validates_inputs() -> None:
    with pytest.raises(ParameterError):
        plan_cycle(_bank(11, 4), _report(10, {})[0], 0)
    with pytest.raises(ParameterError):
        # 7 stored photons fit behind a 1-train (capacity 7), not a 2-train
        plan_cycle(_bank(11, 2), _report(11, {})[0], 7)
    with pytest.raises(ParameterError):
        # a 9-train does not fit a 3-step register: the bank itself is refused
        _bank(11, 9)
    clicks = _report(11, {2: 1})[0]
    for bad in (list(clicks), clicks.tolist(), clicks[None, :]):
        with pytest.raises(ParameterError):
            plan_cycle(_bank(11, 4), bad, 0)


def test_slot_delays_are_consecutive_from_zero() -> None:
    # slot j leaves at delay j: the stored photon takes 0, row 5 the next one
    clicks, counts = _report(11, {5: 1})
    plan = plan_cycle(_bank(11, 4), clicks, 1)
    assert plan.assignments == [(5, 1)]
    assert place_photons((2,), counts, plan, 4) == ((2, 1, 0, 0), ())
