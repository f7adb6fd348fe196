"""Exact steady-state rates via a storage-level Markov chain.

Between cycles the only state that matters is how many photons sit in
storage.  The level fixes the pump under feedback and the open targets
(delays level .. 2**K - 1: the slots the stored photons leave empty,
then the storage positions behind the photons still stored), and routing
is blind to pair multiplicities.  So the level is a (capacity + 1)-state
Markov chain of the very ``SimConfig`` the Monte Carlo runs, and its
stationary distribution gives the exact lack rate.

Clicks are independent across rows.  In a constrained bank rows K+1 ..
S-K reach every delay (they are interior) and the K rows at either end
are edge rows; a bank of at most 2K rows is all edge rows, and without
boundary limits every row is interior.  A cycle from level l is composed
of three walks, tabulated once per bank and reweighted per pump:

* with no interior click the edge rows walk jointly: one record per
  (level, edge pattern);
* otherwise the greedy walk splits.  The clicked top rows fill targets
  l .. l+i-1 with no gap before the first interior row takes one (so
  i <= K), and the c interior clicks run on to stop at delay
  s = min(l + i + c, 2**K).  A table counts top patterns per (level,
  top clicks, i);
* from s on the bottom rows walk alone and the level drops out: they
  fill some slots and j storage positions, so the next level is
  max(s - m, 0) + j.  A table counts bottom patterns per (s, bottom
  clicks, j) and sums their lacks and kept photons.

Per pump, the run is the interior herald pmf shifted by l + i, read
through a sliding window without a copy, weighted by the top table and
folded through the bottom table into the matrix columns.

The rows are built in blocks of whole levels, in level order, and solved
as they arrive.  A cycle drops at most m levels (the next level is at
least l - m), so Grassmann-Taksar-Heyman state reduction can censor the
levels out from the bottom: level l goes as soon as rows l+1 .. l+m, the
only ones that can drop to it, are built, and back-substitution needs
just its m folded entries and its exit rate.  So a solve holds the rows
not yet eliminated and m + 1 numbers per level, never the dense
(capacity + 1)**2 matrix.  The lowest level with no way up is the
ceiling of the chain: the levels above it get exactly zero.

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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .emission import herald_probabilities
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
# level; at K=5 that takes about 0.15 s on a 2-core machine, and every further
# stage multiplies it by 8
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
    log_factorial = _log_factorials(s)
    h = np.arange(s + 1)
    log_pmf = (
        log_factorial[s] - log_factorial - log_factorial[::-1]
        + h * math.log(p) + (s - h) * math.log1p(-p)
    )
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


@lru_cache(maxsize=8)
def _log_factorials(source_count: int) -> np.ndarray:
    """log(n!) for n = 0 .. source_count, shared by every pump of a bank."""
    table = np.array([math.lgamma(n + 1) for n in range(source_count + 1)])
    table.flags.writeable = False
    return table


class _Walks(NamedTuple):
    """Pump-independent walk tables of one bank; see the module docstring.

    Axis 1 of each table is the number of clicks among the rows walking.
    ``joint[level, n, j]`` and ``bottom[stop, n, j]`` count the patterns
    of the edge rows walking from ``level`` and of the bottom rows walking
    from delay ``stop`` that fill j storage positions; ``joint_sums`` and
    ``bottom_sums`` hold their summed lacks and kept photons.
    ``top[level, n, i]`` counts the top-row patterns that fill i targets
    before the first interior row takes one.
    """

    interior_rows: int
    joint: np.ndarray
    joint_sums: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    bottom_sums: np.ndarray


def _click_patterns(rows: list[int]) -> list[list[int]]:
    """Every subset of ``rows`` that can click together, in row order."""
    return [
        [row for bit, row in enumerate(rows) if pattern >> bit & 1]
        for pattern in range(2 ** len(rows))
    ]


@lru_cache(maxsize=4)
def _walks(source_count: int, step_count: int, multiple: int, constrained: bool) -> _Walks:
    """Tabulate the three walks of one bank; see the module docstring."""
    if constrained and step_count > MAX_CONSTRAINED_STEP_COUNT:
        raise ParameterError(
            f"the constrained chain supports at most {MAX_CONSTRAINED_STEP_COUNT} "
            f"register steps, got {step_count}"
        )
    span = 2**step_count
    reach = None
    edge: list[int] = []
    if constrained:
        reach = _reach_masks(_cached_topology(source_count, step_count))
        everywhere = 2**span - 1  # the mask of an interior row
        edge = [row for row, mask in enumerate(reach, start=1) if mask != everywhere]
    interior = source_count - len(edge)
    # the top rows are the edge rows above the first interior row
    first = reach.index(everywhere) if edge and interior else 0
    top, bottom = (edge[:first], edge[first:]) if interior else ([], [])

    def tally(rows: list[int], starts: int, then: tuple[int, ...] = ()) -> np.ndarray:
        """Columns start, clicks, targets filled and storage positions filled
        by every click pattern of ``rows``, ahead of rows ``then``, walking
        greedily from each delay below ``starts``."""
        patterns = _click_patterns(rows)
        columns = []
        for start in range(starts):
            targets = range(min(start, multiple), multiple), range(max(start, multiple), span)
            for pattern in patterns:
                taken, _ = _route_greedy(reach, [*pattern, *then], *targets)
                delays = [delay for row, delay in taken if row not in then]
                stored = sum(delay >= multiple for delay in delays)
                columns.append((start, len(pattern), len(delays), stored))
        return np.array(columns).T

    def walk(rows: list[int], starts: int) -> tuple[np.ndarray, np.ndarray]:
        """Patterns per (start, clicks, positions stored), summed lacks and kept."""
        start, clicks, kept, stored = tally(rows, starts)
        counts = np.zeros((starts, len(rows) + 1, len(rows) + 1), dtype=np.int64)
        np.add.at(counts, (start, clicks, stored), 1)
        sums = np.zeros((starts, len(rows) + 1, 2), dtype=np.int64)
        lacks = np.maximum(multiple - start, 0) - kept + stored
        np.add.at(sums, (start, clicks), np.stack((lacks, kept), axis=1))
        return counts, sums

    size = span - multiple + 1
    # the first interior row stands in for the run
    level, clicks, filled, _ = tally(top, size, (len(top) + 1,))
    top_table = np.zeros((size, len(top) + 1, len(top) + 1), dtype=np.int64)
    np.add.at(top_table, (level, clicks, filled), 1)
    walks = _Walks(interior, *walk(edge, size), top_table, *walk(bottom, span + 1))
    for table in walks[1:]:
        table.flags.writeable = False  # shared by every caller of the cache
    return walks


def _weigh(table: np.ndarray, p: float) -> np.ndarray:
    """Sum a walk table over its click counts n, a pattern weighing p**n (1-p)**(rows-n)."""
    n = np.arange(table.shape[1])
    weight = np.exp(n * math.log(p) + (n[-1] - n) * math.log1p(-p))
    return np.einsum("n,xnj->xj", weight, table)


def _chain_tables(
    config: SimConfig,
) -> tuple[Iterator[np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row blocks of the transition matrix in level order, expected lacks
    and kept photons per level, and each level's p_herald and
    p_multi / p_herald.

    The blocks come from a generator that fills the per-level vectors as
    it runs; they are complete once it is exhausted.
    """
    constrained = config.boundary is BoundaryMode.CONSTRAINED
    walks = _walks(config.source_count, config.step_count, config.multiple, constrained)
    m = config.multiple
    span = 2**config.step_count
    size = config.capacity + 1
    means = [
        apply_feedback(config.feedback, level, config.capacity, config.mean_pairs)
        for level in range(size)
    ]
    sums = np.empty((size, 2))  # expected lacks and kept photons
    p_herald, relative = np.empty((2, size))

    def blocks() -> Iterator[np.ndarray]:
        offsets = np.arange(walks.top.shape[2])
        # run[c] = P(c interior clicks) for 0 < c < span, behind enough zeros that
        # shifted[level, s, i] = run[s - level - i] at stops s = 0 .. span-1 is a view
        lead = span + offsets.size - 1
        padded = np.zeros(lead + span)
        run = padded[lead:]
        windows = np.lib.stride_tricks.sliding_window_view
        shifted = windows(windows(padded, span)[::-1], offsets.size, axis=0)
        # blocks of whole levels bound the temporaries at 2**16 cells
        block = max(1, 2**16 // (span + 1))
        # runs of levels under one pump: a monotone feedback repeats no pump
        cuts = [level for level in range(1, size) if means[level] != means[level - 1]]
        for first, last in zip([0, *cuts], [*cuts, size]):
            probs = herald_probabilities(means[first])
            p = check_p_herald(probs.p_herald)
            p_herald[first:last] = p
            relative[first:last] = probs.p_multi / p
            rows = walks.interior_rows
            interior = herald_count_distribution(rows, p) if rows else np.ones(1)
            stored = _weigh(walks.bottom, p)[:, :size]  # [stop, j]
            bottom_sums = _weigh(walks.bottom_sums, p)
            # at least one interior click: tail[n] = P(max(n, 1) or more) for
            # n <= span, and running sums of run[c] and c run[c] over c < n
            run[1:interior.size] = interior[1:span]
            rest = np.cumsum(interior[:0:-1])[::-1]
            tail = np.concatenate((rest[:1], rest[:span], np.zeros(span + 1)))[:span + 1]
            below = np.concatenate(([0.0], np.cumsum(run)))
            weighted_below = np.concatenate(([0.0], np.cumsum(np.arange(span) * run)))
            for low in range(first, last, block):
                high = min(last, low + block)
                level = np.arange(low, high)[:, None]
                cells = np.empty((high - low, size))
                # the top rows hand over after i targets; stops[level, s] is the
                # chance that the interior run then stops at delay s
                top = _weigh(walks.top[low:high], p)
                stops = np.empty((high - low, span + 1))
                np.einsum("lsi,li->ls", shifted[low:high], top, out=stops[:, :span])
                left = np.maximum(span - level - offsets, 0)  # targets left after the top rows
                stops[:, span] = (top * tail[left]).sum(axis=1)
                # from s the bottom rows store j photons: the next level is max(s - m, 0) + j
                np.multiply(stops[:, m + 1:], stored[m + 1:, 0], out=cells[:, 1:])
                cells[:, 0] = 0.0
                for j in range(1, stored.shape[1]):
                    cut = span + 1 - j
                    cells[:, j + 1:] += stops[:, m + 1:cut] * stored[m + 1:cut, j]
                cells[:, :stored.shape[1]] += stops[:, :m + 1] @ stored[:m + 1]
                sums[low:high] = stops @ bottom_sums
                # the top rows and the run keep s - level photons
                sums[low:high, 1] += (
                    top * (offsets * below[left] + weighted_below[left] + (span - level) * tail[left])
                ).sum(axis=1)
                # no interior click: the edge rows walk jointly from the level
                joint = interior[0] * _weigh(walks.joint[low:high], p)
                columns = np.minimum(np.maximum(level - m, 0) + np.arange(joint.shape[1]), size - 1)
                np.add.at(cells, (level - low, columns), joint)  # columns past capacity add 0
                sums[low:high] += interior[0] * _weigh(walks.joint_sums[low:high], p)
                yield cells

    return blocks(), sums[:, 0], sums[:, 1], p_herald, relative


def transition_matrix(config: SimConfig) -> np.ndarray:
    """One-cycle transition matrix of the storage level."""
    blocks, *_ = _chain_tables(config)
    return np.concatenate([*blocks])


def _drops(rows: np.ndarray, level: int) -> np.ndarray:
    """How many levels each row, the first one at ``level``, drops at most;
    an all-zero row reads as dropping to level 0."""
    return np.arange(level, level + len(rows)) - (rows != 0.0).argmax(axis=1)


def _solve_rows(blocks: Iterable[np.ndarray], size: int, width: int) -> np.ndarray:
    """Stationary vector, by GTH state reduction, of a ``size``-level chain
    whose rows arrive in level order and drop at most ``width`` levels.

    Levels are censored out from the bottom.  Eliminating level l folds
    its way up (row l right of the diagonal, divided by its sum, never by
    ``1 - P[l, l]``) into rows l+1 .. l+width, the only rows that can drop
    to l; the fold keeps that band.  So l can go as soon as those rows
    have arrived, and back-substitution needs only its exit rate and its
    folded column P'[l+1 .. l+width, l].  Only the rows not yet eliminated
    are held, at most ``width`` plus one block.  The lowest level with no
    way up is the ceiling: the levels above it get exactly zero.  A row
    that drops more than ``width`` levels raises :class:`ParameterError`.
    """
    width = min(width, size - 1)
    exit_rate = np.zeros(size)
    below = np.zeros((size, width))  # below[l, d] = P'[l + 1 + d, l]
    window = np.empty((0, size))  # rows done .. read - 1, folded so far
    done = read = 0
    ceiling = None
    for rows in blocks:
        if _drops(rows, read).max() > width:
            raise ParameterError(
                f"a row among levels {read} .. {read + len(rows) - 1} "
                f"drops more than {width} levels"
            )
        read += len(rows)
        if ceiling is not None:
            continue  # the builder still fills its per-level vectors
        window = np.concatenate((window, rows))
        ready = read if read == size else max(done, read - width)
        for level in range(done, ready):
            row = level - done
            up = window[row, level + 1:]
            reach = up.nonzero()[0]
            if reach.size == 0:
                ceiling = level
                break
            up = up[:reach[-1] + 1]
            exit_rate[level] = up.sum()
            column = window[row + 1:row + 1 + width, level]
            below[level, :column.size] = column
            window[row + 1:row + 1 + width, level + 1:level + 1 + up.size] += (
                column[:, None] * (up / exit_rate[level])
            )
        window = window[ready - done:]
        done = ready
    pi = np.zeros(size)
    pi[ceiling] = 1.0
    for level in range(ceiling - 1, -1, -1):
        inflow = pi[level + 1:level + 1 + width] @ below[level, :min(width, size - 1 - level)]
        # pi[level] = inflow / exit_rate[level]; keep it at most one by shrinking
        # the levels above instead, so a steep fall underflows, not overflows
        if inflow > exit_rate[level]:
            pi[level + 1:ceiling + 1] *= exit_rate[level] / inflow
            pi[level] = 1.0
        else:
            pi[level] = inflow / exit_rate[level]
    return pi / pi.sum()


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, left unmodified.

    Solved directly by Grassmann-Taksar-Heyman (GTH) state reduction, the
    levels censored out from the bottom as in :func:`stationary_rates`,
    with the band read from the data: the furthest any row drops below
    its diagonal.  It is subtraction-free, so small probabilities keep
    full relative precision, and it has no iteration to converge.  The
    levels above the lowest one with no way up get exactly zero.

    Raises
    ------
    ParameterError
        If the matrix is not square and non-empty, or has a non-finite or
        negative entry.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ParameterError("transition matrix must be square and non-empty")
    if not (np.isfinite(matrix).all() and (matrix >= 0.0).all()):
        raise ParameterError("transition matrix entries must be finite and non-negative")
    size = matrix.shape[0]
    width = max(int(_drops(matrix, 0).max()), 0)
    step = max(1, 2**16 // size)
    return _solve_rows((matrix[low:low + step] for low in range(0, size, step)), size, width)


def stationary_rates(config: SimConfig) -> OracleRates:
    """Exact steady-state rates of the bank ``config`` describes.

    Boundary limits and pump feedback enter the chain exactly as they
    enter a Monte Carlo run of the same config; only ``cycles`` and
    ``seed`` play no part.  The chain drops at most ``multiple`` levels a
    cycle, so it is solved as it is built, by the subtraction-free GTH
    reduction of :func:`stationary_distribution`: each level is censored
    out, bottom up, as soon as the ``multiple`` rows above it exist.  No
    call holds the (capacity + 1)**2 matrix, only the rows not yet
    eliminated (at most ``multiple`` plus one block of under 2**16 cells)
    and ``multiple + 1`` numbers per level.  The levels above the lowest
    one with no way up get exactly zero.

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
    blocks, lacks, kept, p_herald, relative = _chain_tables(config)
    pi = _solve_rows(blocks, config.capacity + 1, config.multiple)
    lack_rate = float(pi @ lacks) / config.multiple
    multi_rate = float(pi @ (relative * kept)) / config.multiple
    fill_rate = 1.0 - lack_rate
    return OracleRates(
        lack_rate=lack_rate,
        multi_rate=multi_rate,
        relative_multi_rate=multi_rate / fill_rate if fill_rate > 0.0 else math.nan,
        mean_storage=float(pi @ np.arange(pi.size)),
        mean_heralds=config.source_count * float(pi @ p_herald),
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
