"""Register reachability: the counting window versus direct path enumeration."""

from itertools import combinations

import numpy as np
import pytest

from cycle_reference import verify_monotone_assignment
from spdcmux import (
    ParameterError,
    RegisterTopology,
    step_count_bounds,
)

# reachable-delay sets for the boundary rows of an 11-source, 3-step bank,
# worked out by hand from the crossing geometry
KNOWN_ROWS_11X3 = {
    1: {0},
    2: {0, 1, 2, 4},
    3: {0, 1, 2, 3, 4, 5, 6},
    9: {1, 2, 3, 4, 5, 6, 7},
    10: {3, 5, 6, 7},
    11: {7},
}


def _delays_by_subset_sum(source_count: int, step_count: int, source: int) -> set[int]:
    """Reference reachability: enumerate stage subsets and sum their delays."""
    low = max(0, step_count - (source_count - source))
    high = min(step_count, source - 1)
    stages = [2**j for j in range(step_count)]
    out: set[int] = set()
    for size in range(low, high + 1):
        for subset in combinations(stages, size):
            out.add(sum(subset))
    return out


def _reachable(topo: RegisterTopology, source: int) -> set[int]:
    """Delays row ``source`` (1-based) can reach, read from the access table."""
    return set(np.flatnonzero(topo.access_table[source - 1]).tolist())


def test_topology_basic_shape() -> None:
    topo = RegisterTopology(source_count=11, step_count=3)
    assert topo.delay_count == 8
    assert topo.max_delay == 7


def test_topology_validation() -> None:
    for source_count, step_count in ((0, 3), (5, 0), (5, 13), (5, 2.5), ("5", 3)):
        with pytest.raises(ParameterError):
            RegisterTopology(source_count=source_count, step_count=step_count)


def test_topology_takes_whole_floats_as_ints() -> None:
    whole = RegisterTopology(source_count=10.0, step_count=3.0)
    assert (type(whole.source_count), type(whole.step_count)) == (int, int)
    assert whole == RegisterTopology(source_count=10, step_count=3)
    assert np.array_equal(whole.access_table, RegisterTopology(10, 3).access_table)


def test_known_rows_11x3() -> None:
    topo = RegisterTopology(source_count=11, step_count=3)
    for source, expected in KNOWN_ROWS_11X3.items():
        assert _reachable(topo, source) == expected, source


def test_interior_rows_see_every_delay() -> None:
    topo = RegisterTopology(source_count=11, step_count=3)
    for source in range(4, 9):
        assert _reachable(topo, source) == set(range(8))
    wide = RegisterTopology(source_count=30, step_count=3)
    for source in range(4, 28):
        assert _reachable(wide, source) == set(range(8))


def test_reachability_matches_subset_sum_reference() -> None:
    for source_count, step_count in [(5, 1), (7, 2), (11, 3), (14, 3), (12, 4)]:
        topo = RegisterTopology(source_count=source_count, step_count=step_count)
        for source in range(1, source_count + 1):
            expected = _delays_by_subset_sum(source_count, step_count, source)
            assert _reachable(topo, source) == expected


def test_reachability_mirror_symmetry() -> None:
    # flipping the bank upside down complements every delay value
    topo = RegisterTopology(source_count=13, step_count=3)
    for source in range(1, 14):
        forward = _reachable(topo, source)
        mirrored = {topo.max_delay - d for d in _reachable(topo, 14 - source)}
        assert forward == mirrored


def test_step_count_bounds_edges() -> None:
    topo = RegisterTopology(source_count=11, step_count=3)
    assert step_count_bounds(topo, 1) == (0, 0)
    assert step_count_bounds(topo, 2) == (0, 1)
    assert step_count_bounds(topo, 3) == (0, 2)
    assert step_count_bounds(topo, 6) == (0, 3)
    assert step_count_bounds(topo, 9) == (1, 3)
    assert step_count_bounds(topo, 10) == (2, 3)
    assert step_count_bounds(topo, 11) == (3, 3)
    with pytest.raises(ParameterError):
        step_count_bounds(topo, 0)
    with pytest.raises(ParameterError):
        step_count_bounds(topo, 12)


def test_shallow_banks_can_strand_rows() -> None:
    # fewer rows than stages + 1 leaves windows empty: the geometry both
    # forces stages on a row and forbids it from taking them
    topo = RegisterTopology(source_count=2, step_count=3)
    assert _reachable(topo, 1) == set()
    assert _reachable(topo, 2) == set()


def test_access_table_agrees_with_delay_sets() -> None:
    # cell by cell against the counting window: the delay's popcount (the
    # number of stages it takes) must lie inside the row's window
    topo = RegisterTopology(source_count=9, step_count=3)
    table = topo.access_table
    assert table.shape == (9, 8)
    for source in range(1, 10):
        low, high = step_count_bounds(topo, source)
        for delay in range(8):
            assert table[source - 1, delay] == (low <= delay.bit_count() <= high)
    with pytest.raises(ValueError):
        table[0, 0] = True
    # the interval rule: the rows that reach a delay of popcount c are
    # exactly rows c+1 .. S-K+c, clipped to the bank
    for step_count in range(1, 9):
        for source_count in range(1, 3 * step_count + 25):
            table = RegisterTopology(source_count, step_count).access_table
            for delay in range(2**step_count):
                c = delay.bit_count()
                rows = range(max(1, c + 1), min(source_count, source_count - step_count + c) + 1)
                assert (np.flatnonzero(table[:, delay]) + 1).tolist() == list(rows)


def test_monotone_assignment_check() -> None:
    assert verify_monotone_assignment([])
    assert verify_monotone_assignment([(4, 2)])
    assert verify_monotone_assignment([(2, 0), (5, 1), (9, 6)])
    assert verify_monotone_assignment([(9, 6), (2, 0), (5, 1)])  # order given is irrelevant
    assert not verify_monotone_assignment([(2, 4), (6, 3)])
    assert not verify_monotone_assignment([(1, 1), (2, 0)])


def test_monotone_assignment_rejects_duplicates() -> None:
    with pytest.raises(ParameterError):
        verify_monotone_assignment([(2, 0), (2, 1)])
    with pytest.raises(ParameterError):
        verify_monotone_assignment([(2, 3), (5, 3)])
    for malformed in ([(1, 2, 3)], [(1,)], [7], [None]):
        with pytest.raises(ParameterError):
            verify_monotone_assignment(malformed)
