"""Exact steady-state rates via a storage-level Markov chain.

Between cycles the only state that matters is how many photons sit in
storage.  The level fixes the pump under feedback and the open targets
(delays level .. 2**K - 1: the slots the stored photons leave empty,
then the storage positions behind the photons still stored), and routing
is blind to pair multiplicities.  So the level is a (capacity + 1)-state
Markov chain of the very ``SimConfig`` the Monte Carlo runs, and its
stationary distribution gives the exact lack rate.

Clicks are independent across rows, so a cycle from a given level is a
table over click patterns, built once per bank and reweighted per pump:

* interior rows reach every delay, so only how many of them clicked
  matters, and past the number of open targets not even that.  In a
  constrained bank these are rows K+1 .. S-K; without boundary limits
  every row is interior;
* the K edge rows at either end of a constrained bank keep their click
  bits.  With an interior click the greedy walk splits in three: the top
  rows until the first interior row takes a target, the interior run,
  then the bottom rows alone.  With none, the edge rows walk jointly.  A
  bank of fewer than 2K rows has no interior: every pattern walks whole.

Stored photons are never discarded, so every photon kept in a cycle,
slotted or stored, leaves in some slot.  Routing never sees
multiplicities, so each kept photon carries a multi-pair event with the
probability p_multi / p_herald of the pump that heralded it.  That gives
the exact multi-pair rate, pump feedback included.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .emission import HeraldProbabilities, herald_probabilities
from .errors import ConvergenceError, ParameterError, check_p_herald, check_source_count
from .register import _cached_topology
from .scheduler import _reach_masks, _route_greedy
from .simulator import BoundaryMode, SimConfig, apply_feedback

__all__ = [
    "MAX_CONSTRAINED_STEP_COUNT",
    "OracleRates",
    "herald_count_distribution",
    "optimized_power",
    "stationary_distribution",
    "stationary_rates",
    "transition_matrix",
]

# a constrained chain walks all 4**K edge-row click patterns from every
# level; at K=5 that takes about 0.3 s, and every further stage multiplies it by 8
MAX_CONSTRAINED_STEP_COUNT = 5


class OracleRates(NamedTuple):
    """Steady-state error rates, storage occupancy and herald flow."""

    lack_rate: float
    multi_rate: float
    relative_multi_rate: float
    mean_storage: float
    mean_heralds: float


def herald_count_distribution(source_count: int, p_herald: float) -> np.ndarray:
    """Exact binomial pmf of the number of heralds in one cycle.

    Computed in log space, so large banks neither overflow the binomial
    coefficient nor lose the tail to subnormal powers of ``p_herald``.
    The rounding of the log terms leaves the sum ~1e-12 off one at S in
    the thousands, so the pmf is divided by its sum.
    """
    s = check_source_count(source_count)
    p = check_p_herald(p_herald)
    log_factorial = np.array([math.lgamma(n + 1) for n in range(s + 1)])
    h = np.arange(s + 1)
    log_pmf = (
        log_factorial[s] - log_factorial - log_factorial[::-1]
        + h * math.log(p) + (s - h) * math.log1p(-p)
    )
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


class _Outcomes(NamedTuple):
    """Pump-independent outcomes of one cycle from every storage level.

    Record r: from storage level ``level[r]``, ``count[r]`` click patterns
    of the edge rows with ``edge_clicks[r]`` clicks, together with
    ``interior_clicks[r]`` interior clicks (or at least that many where
    ``at_least[r]`` is 1), leave storage at ``next_level[r]`` with
    ``lacks[r]`` empty slots.  The filled slots and the storage change,
    less the stored photons that left, are the new photons kept, slotted
    or stored: ``multiple - lacks + next_level - level``.
    """

    edge_rows: int
    interior_rows: int
    level: np.ndarray
    edge_clicks: np.ndarray
    interior_clicks: np.ndarray
    at_least: np.ndarray
    next_level: np.ndarray
    lacks: np.ndarray
    count: np.ndarray


def _click_patterns(rows: list[int]) -> list[list[int]]:
    """Every subset of ``rows`` that can click together, in row order."""
    return [
        [row for bit, row in enumerate(rows) if pattern >> bit & 1]
        for pattern in range(2 ** len(rows))
    ]


@lru_cache(maxsize=4)
def _outcome_table(
    source_count: int, step_count: int, multiple: int, constrained: bool
) -> _Outcomes:
    """Enumerate one cycle from every level; see the module docstring."""
    if constrained and step_count > MAX_CONSTRAINED_STEP_COUNT:
        raise ParameterError(
            f"the constrained chain supports at most {MAX_CONSTRAINED_STEP_COUNT} "
            f"register steps, got {step_count}"
        )
    span = 2**step_count
    size = span - multiple + 1
    top: list[int] = []
    bottom: list[int] = []
    reach = None
    if constrained:
        reach = _reach_masks(_cached_topology(source_count, step_count))
        if source_count >= 2 * step_count:
            top = list(range(1, step_count + 1))
            bottom = list(range(source_count - step_count + 1, source_count + 1))
        else:
            top = list(range(1, source_count + 1))
    interior = source_count - len(top) - len(bottom)
    first_interior = len(top) + 1

    def walk(rows: list[int], start: int) -> tuple[int, int]:
        """Slots and storage positions the greedy walk fills from delay ``start`` on."""
        if not rows:
            return 0, 0
        assignments, _ = _route_greedy(
            reach, rows, range(min(start, multiple), multiple), range(max(start, multiple), span)
        )
        slots = sum(delay < multiple for _, delay in assignments)
        return slots, len(assignments) - slots

    def handover(rows: list[int], level: int) -> int:
        """Delay at which the first interior row takes over from the clicked top rows."""
        if not rows:
            return level  # the first open target
        assignments, _ = _route_greedy(
            reach,
            [*rows, first_interior],
            range(min(level, multiple), multiple),
            range(max(level, multiple), span),
        )
        return next((delay for row, delay in assignments if row == first_interior), span)

    top_sets = _click_patterns(top)
    bottom_sets = _click_patterns(bottom)
    edge_sets = _click_patterns(top + bottom)
    top_clicks = np.array([len(rows) for rows in top_sets])
    bottom_clicks = np.array([len(rows) for rows in bottom_sets])
    edge_clicks = np.array([len(rows) for rows in edge_sets])
    # the bottom rows walk alone from wherever the interior run stopped
    after = np.array([[walk(rows, start) for rows in bottom_sets] for start in range(span + 1)])

    # records per level: every joint walk, then (top, interior, bottom) triples
    runs = [min(interior, span - level) for level in range(size)]
    starts = np.cumsum([0] + [len(edge_sets) + len(top_sets) * n * len(bottom_sets) for n in runs])
    table = np.empty((6, starts[-1]), dtype=np.int16)

    def put(start, level, clicks, inner, at_least, slots, stored) -> int:
        """Write columns level, edge clicks, interior clicks, at least, next level
        and lacks from record ``start`` on; returns the record after the last."""
        lead = min(level, multiple)  # stored photons leaving in the leading slots
        columns = np.broadcast_arrays(
            level, clicks, inner, at_least, level - lead + stored, multiple - lead - slots
        )
        for row, column in zip(table, columns):
            row[start:start + column.size].reshape(column.shape)[...] = column
        return start + columns[0].size

    for level, run in enumerate(runs):
        # no interior click: the edge rows walk jointly
        joint = np.array([walk(rows, level) for rows in edge_sets])
        start = put(starts[level], level, edge_clicks, 0, False, joint[:, 0], joint[:, 1])
        if not run:
            continue
        # interior clicks past the open targets change nothing
        clicks = np.arange(1, run + 1)
        first = np.array([handover(rows, level) for rows in top_sets])
        stop = np.minimum(first[:, None] + clicks, span)
        rest = after[stop]
        put(
            start,
            level,
            top_clicks[:, None, None] + bottom_clicks,
            clicks[:, None],
            (interior > run) & (clicks == run)[:, None],
            (np.minimum(stop, multiple) - min(level, multiple))[:, :, None] + rest[..., 0],
            np.maximum(stop - max(level, multiple), 0)[:, :, None] + rest[..., 1],
        )
    count = np.broadcast_to(np.int16(1), table.shape[1:])
    if top or bottom:
        # merge records that differ only in which edge rows clicked
        dims = (size, len(top) + len(bottom) + 1, min(interior, span) + 1, 2, size, multiple + 1)
        keys, count = np.unique(np.ravel_multi_index(table, dims), return_counts=True)
        table = np.array(np.unravel_index(keys, dims), dtype=np.int16)
    # shared by every caller of the cache
    table.flags.writeable = count.flags.writeable = False
    level, edge, inner, at_least, next_level, lacks = table
    return _Outcomes(
        edge_rows=len(top) + len(bottom),
        interior_rows=interior,
        level=level,
        edge_clicks=edge,
        interior_clicks=inner,
        at_least=at_least,
        next_level=next_level,
        lacks=lacks,
        count=count,
    )


def _chain_tables(
    config: SimConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[HeraldProbabilities]]:
    """Transition matrix, expected lacks and kept photons per level, and each level's pump."""
    table = _outcome_table(
        config.source_count,
        config.step_count,
        config.multiple,
        config.boundary is BoundaryMode.CONSTRAINED,
    )
    size = config.capacity + 1
    means = [
        apply_feedback(config.feedback, level, config.capacity, config.mean_pairs)
        for level in range(size)
    ]
    # one herald pmf per distinct pump value, not per level
    pumps = {mean: index for index, mean in enumerate(dict.fromkeys(means))}
    width = min(table.interior_rows, 2**config.step_count) + 1
    edge = np.arange(table.edge_rows + 1)
    edge_weight = np.empty((len(pumps), edge.size))
    interior_weight = np.empty((len(pumps), 2 * width))
    for mean, index in pumps.items():
        p = check_p_herald(herald_probabilities(mean).p_herald)
        # one given pattern of c clicks among the edge rows
        edge_weight[index] = np.exp(edge * math.log(p) + (table.edge_rows - edge) * math.log1p(-p))
        pmf = (
            herald_count_distribution(table.interior_rows, p)
            if table.interior_rows
            else np.ones(1)
        )
        tail = np.cumsum(pmf[::-1])[::-1]  # P(at least n interior clicks)
        interior_weight[index] = np.concatenate((pmf[:width], tail[:width]))

    pump_of_level = np.array([pumps[mean] for mean in means])
    matrix = np.empty((size, size))
    lacks = np.empty(size)
    kept = np.empty(size)
    starts = np.searchsorted(table.level, np.arange(size + 1))
    low = 0
    while low < size:
        # blocks of whole levels bound the temporaries: 2**16 matrix cells
        # and, unless one level has more, 2**14 records
        high = min(
            size,
            low + max(1, 2**16 // size),
            max(low + 1, int(np.searchsorted(starts, starts[low] + 2**14, "right")) - 1),
        )
        part = slice(starts[low], starts[high])
        pump = pump_of_level[table.level[part]] if len(pumps) > 1 else 0
        weight = edge_weight[pump, table.edge_clicks[part]]
        weight *= interior_weight[pump, table.interior_clicks[part] + width * table.at_least[part]]
        weight *= table.count[part]
        level, next_level, lack = table.level[part], table.next_level[part], table.lacks[part]
        rows = level - low
        cells = np.bincount(
            rows * np.int64(size) + next_level, weights=weight, minlength=(high - low) * size
        )
        matrix[low:high] = cells.reshape(high - low, size)
        lacks[low:high] = np.bincount(rows, weights=weight * lack, minlength=high - low)
        kept[low:high] = np.bincount(
            rows,
            weights=weight * (config.multiple - lack + next_level - level),
            minlength=high - low,
        )
        low = high
    return matrix, lacks, kept, [herald_probabilities(mean) for mean in means]


def transition_matrix(config: SimConfig) -> np.ndarray:
    """One-cycle transition matrix of the storage level."""
    matrix, _, _, _ = _chain_tables(config)
    return matrix


def _reduce_to_stationary(matrix: np.ndarray) -> np.ndarray:
    """Stationary vector by GTH state reduction, overwriting ``matrix``.

    Levels are censored out from the top.  Eliminating level k folds its
    way down (row k left of the diagonal, scaled by its sum, never by
    ``1 - P[k, k]``) into the rows below, touching only the columns from
    the first nonzero entry of row k: the band the chain can drop in one
    cycle.  A level with no way down closes the chain above it, so the
    levels below it get exactly zero.
    """
    size = matrix.shape[0]
    exit_rate = np.empty(size)
    floor = 0
    for k in range(size - 1, 0, -1):
        down = np.flatnonzero(matrix[k, :k])
        if down.size == 0:
            floor = k
            break
        band = down[0]
        exit_rate[k] = matrix[k, band:k].sum()
        matrix[:k, band:k] += np.outer(matrix[:k, k], matrix[k, band:k] / exit_rate[k])
    pi = np.zeros(size)
    pi[floor] = 1.0
    for k in range(floor + 1, size):
        inflow = pi[floor:k] @ matrix[floor:k, k]
        # pi[k] = inflow / exit_rate[k]; keep it at most one by shrinking
        # the levels below instead, so a steep climb underflows, not overflows
        if inflow > exit_rate[k]:
            pi[floor:k] *= exit_rate[k] / inflow
            pi[k] = 1.0
        else:
            pi[k] = inflow / exit_rate[k]
    return pi / pi.sum()


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, left unmodified.

    Solved directly by Grassmann-Taksar-Heyman (GTH) state reduction.  It
    is subtraction-free, so small probabilities keep full relative
    precision, and it has no iteration to converge.  Levels below one
    whose way down underflowed to zero get exactly zero.
    """
    matrix = np.array(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ParameterError("transition matrix must be square and non-empty")
    return _reduce_to_stationary(matrix)


def stationary_rates(config: SimConfig) -> OracleRates:
    """Exact steady-state rates of the bank ``config`` describes.

    Boundary limits and pump feedback enter the chain exactly as they
    enter a Monte Carlo run of the same config; only ``cycles`` and
    ``seed`` play no part.  The chain is solved in place by the
    subtraction-free GTH reduction of :func:`stationary_distribution`.

    Parameters
    ----------
    config : SimConfig

    Returns
    -------
    OracleRates
        Rates per emitted slot, the multi-pair fraction of filled slots,
        the mean storage occupancy and the mean heralds per cycle.

    Raises
    ------
    ParameterError
        For a constrained bank deeper than ``MAX_CONSTRAINED_STEP_COUNT``.
    """
    matrix, lacks, kept, pumps = _chain_tables(config)
    pi = _reduce_to_stationary(matrix)
    lack_rate = float(pi @ lacks) / config.multiple
    relative = np.array([pump.p_multi / pump.p_herald for pump in pumps])
    multi_rate = float(pi @ (relative * kept)) / config.multiple
    fill_rate = 1.0 - lack_rate
    return OracleRates(
        lack_rate=lack_rate,
        multi_rate=multi_rate,
        relative_multi_rate=multi_rate / fill_rate if fill_rate > 0.0 else math.nan,
        mean_storage=float(pi @ np.arange(pi.size)),
        mean_heralds=config.source_count * float(pi @ [pump.p_herald for pump in pumps]),
    )


# expanding the pump bracket beyond ~32 mean pairs would round p_herald
# to exactly 1.0 in floats and the chain degenerates
_MAX_MEAN = 32.0


def optimized_power(
    source_count: int,
    multiple: int,
    step_count: int = 3,
    *,
    tolerance: float = 1e-6,
) -> float:
    """Pump level where the lack rate equals the multi-pair rate.

    Solved on the chain of the bank without boundary limits or pump
    feedback.  Lack falls and multi-pair rises monotonically with pump
    power, so the two curves cross exactly once; the crossing is the
    operating point that minimises the larger of the two errors.  Solved
    by bisection on lack - multi, starting from the bracket (1e-6, 1] and
    doubling the upper end while both rates still sit on the same side
    (small banks can push the crossing above one mean pair per cycle).

    Returns
    -------
    float
        Mean pair number at the crossing.

    Raises
    ------
    ConvergenceError
        If no sign change is found below the bracket cap or bisection
        stalls without reaching ``tolerance``.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ParameterError(f"tolerance must be positive and finite, got {tolerance!r}")
    bank = SimConfig(
        source_count=source_count,
        multiple=multiple,
        mean_pairs=1.0,
        step_count=step_count,
        boundary=BoundaryMode.UNCONSTRAINED,
    )

    def gap(mean: float) -> float:
        rates = stationary_rates(replace(bank, mean_pairs=mean))
        return rates.lack_rate - rates.multi_rate

    low, high = 1e-6, 1.0
    gap_low = gap(low)
    if gap_low <= 0.0:
        raise ConvergenceError(
            "lack does not exceed multi even at vanishing pump; no crossing to find"
        )
    while gap(high) > 0.0:
        high *= 2.0
        if high > _MAX_MEAN:
            raise ConvergenceError(
                f"no lack/multi crossing below mean pair number {_MAX_MEAN}"
            )

    for _ in range(200):
        mid = 0.5 * (low + high)
        gap_mid = gap(mid)
        if abs(gap_mid) < tolerance:
            return mid
        if gap_mid > 0.0:
            low = mid
        else:
            high = mid
    raise ConvergenceError(
        f"bisection failed to bring |lack - multi| under {tolerance}"
    )
