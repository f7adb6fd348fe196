"""Exact steady-state rates via a storage-level Markov chain.

Between cycles the only state that matters is how many photons sit in
storage.  The level fixes the pump under feedback and the open targets
(delays level .. 2**K - 1: the slots the stored photons leave empty,
then the storage positions behind the photons still stored), and routing
is blind to pair multiplicities.  So the level is a (capacity + 1)-state
Markov chain of the very ``SimConfig`` the Monte Carlo runs, and its
stationary distribution gives the exact lack rate.

Clicks are independent across rows.  Rows c+1 .. S-K+c reach popcount c
(the register's interval rule), so in a constrained bank rows K+1 .. S-K
reach every delay (they are interior) and the others are edge rows; a
bank of at most 2K rows is all edge rows, and without boundary limits
every row is interior.  A cycle from level l is composed of three walks,
tabulated once per constrained bank and reweighted per pump:

* with no interior click the edge rows walk jointly: one record per
  (level, edge pattern);
* otherwise the greedy walk splits.  The clicked top rows fill targets
  l .. l+i-1 with no gap before the first interior row takes one (so
  i <= K), and the c interior clicks run on to stop at delay
  s = min(l + i + c, 2**K).  The top rows walk past a train of no slots,
  so they stop at the first target none of them reaches, where the first
  interior row takes over.  A table counts top patterns per (level, top
  clicks, i);
* from s on the bottom rows walk alone and the level drops out: they
  fill some slots and j storage positions, so the next level is
  max(s - m, 0) + j.  A table counts bottom patterns per (s, bottom
  clicks, j).

Each walk is one integer table: its pattern counts, then the summed
lacks, kept photons and discards (clicks less kept photons) of those
patterns in three more columns, so one reweighing per pump gives both.
Per pump, the run is the interior herald pmf shifted by l + i, read
through a sliding window without a copy, weighted by the top table and
folded through the bottom table into the matrix columns.  The run keeps
E[min(c, left)] of the targets left and discards E[max(c - left, 0)],
running sums of the pmf's tail, and the top rows it passes are discarded
too.  A walk over no rows weighs exactly one, so it is never built: a
bank of at most 2K rows tabulates only the joint walk, and a bank with
no edge rows no walk at all.  That bank is the finite-buffer Lindley
recursion l' = min(max(l + c - m, 0), capacity) and needs only its S
interior rows: its run takes every cycle, none clicked included, and its
rows are one strided copy of the pmf, P[l, j] = pmf[j - l + m], with the
two end columns clamped.
The expected lacks, kept photons, discards, heralds and multi-pair
photons kept fill one table per level, which the stationary distribution
weighs into the rates.

The rows are built in blocks of whole levels, in level order, and solved
as they arrive.  A cycle drops at most m levels and stores at most S
photons, so the rows of levels low .. high-1 are built, and scanned by
the solver, only at the band of levels max(low - m, 0) .. high + S - 1.
Since the next level is at least l - m, Grassmann-Taksar-Heyman state
reduction can censor the levels out from the bottom, in left-looking
order: level l goes as soon as rows l+1 .. l+m, the only ones that can
drop to it, are built.  Its reduced way up is one product of its entries
at the m levels below it with their reduced ways up, and its reduced
column, the entries of rows l+1 .. l+m at l, a second product of those
rows with the same ways up.  The per-level table rides in columns to the
right of the levels, so the first product also sums the rewards a level
collects until the chain first climbs back to it or above.  The lowest
level with no way up is the ceiling of the chain: its sums cover one
return cycle to it, and the renewal-reward theorem makes each rate their
ratio to the cycle's length, with no stationary vector and no
back-substitution.  So a solve holds the last m rows eliminated and the
rows not yet eliminated, never the dense (capacity + 1)**2 matrix, and
no row past the block that holds the ceiling is built: the levels above
it are never visited.

A bank with no edge rows whose levels below the top share one pump (no
feedback, or boost, whose top level pumps apart) repeats its rows: from
level m up to the top each is the pmf shifted by one level.  Below the
top column they are Toeplitz, and the clamped top column is the sum of
the columns past it, which the elimination carries as it would carry
them apart.  So the exit rate and the reduced column of level l settle to
fixed values, the repeating-rows case of Grassmann and Heyman (J. Appl.
Prob. 27, 1990), and they hold all the way up to the top.  Such a bank
fills its per-level table at once, and once a level's exit rate and
column match those of a level far below it the elimination stops: the
sums of the levels above follow a recurrence of order m with
non-negative coefficients, run in blocks of levels up to the top, whose
reduced row is its own pmf folded through the repeating way up.  No row
past the stop is built.

Stored photons are never discarded, so every photon kept in a cycle,
slotted or stored, leaves in some slot.  Routing never sees
multiplicities, so each kept photon carries a multi-pair event with the
probability p_multi / p_herald of the pump that heralded it.  That gives
the exact multi-pair rate, pump feedback included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .emission import herald_probabilities
from .errors import ConvergenceError, ParameterError, check_mean_pairs, check_real, check_source_count
from .scheduler import _route_greedy
from .simulator import BoundaryMode, SimConfig

__all__ = [
    "MAX_CONSTRAINED_STEP_COUNT",
    "OracleRates",
    "herald_count_distribution",
    "optimized_power",
    "stationary_distribution",
    "stationary_rates",
]

# a constrained chain walks all 4**K edge-row click patterns from every
# level; a cold chain at S=100, m=2**(K-1) takes about 0.07 s at K=5 on a
# shared 2-core machine, and every further stage multiplies that by 10 to 16
# (0.8 s at K=6)
MAX_CONSTRAINED_STEP_COUNT = 5


class OracleRates(NamedTuple):
    """Steady-state error rates, storage occupancy, herald flow, filled
    slots and discards; ``mean_heralds`` = ``fill_rate`` * multiple +
    ``mean_discards``."""

    lack_rate: float
    multi_rate: float
    relative_multi_rate: float
    mean_storage: float
    mean_heralds: float
    fill_rate: float
    mean_discards: float


def herald_count_distribution(source_count: int, mean_pairs: float) -> np.ndarray:
    """Exact binomial pmf of the number of heralds in one cycle at pump ``mean_pairs``.

    Summed in log space out from the mode by neighbour ratios,
    pmf[n + 1] / pmf[n] = (S - n) / (n + 1) * (e**mean - 1), with the odds
    p / (1 - p) = e**mean - 1 formed from the pump.  So any finite pump
    keeps its dark terms, large banks neither overflow a binomial
    coefficient nor lose the tail to subnormal powers, and no large log
    terms cancel: the terms keep close to full relative precision.  The
    pmf is divided by its sum.  The array is read-only: it is cached.
    """
    return _herald_pmf(check_source_count(source_count), check_mean_pairs(mean_pairs))


# two entries: an optimize step builds the pmf at the same pump for its
# load bound and for the chain run that follows
@lru_cache(maxsize=2)
def _herald_pmf(s: int, mean: float) -> np.ndarray:
    p = -math.expm1(-mean)
    step = np.log(np.arange(s, 0, -1) / np.arange(1, s + 1)) + (math.log(p) + mean)
    mode = min(s, math.floor((s + 1) * p))
    log_pmf = np.zeros(s + 1)  # log(pmf / pmf[mode])
    # past a pump of ~1e305 / S the sums overflow: the far terms are exactly zero
    with np.errstate(over="ignore"):
        np.cumsum(step[mode:], out=log_pmf[mode + 1:])
        np.cumsum(-step[:mode][::-1], out=log_pmf[:mode][::-1])
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    pmf.flags.writeable = False
    return pmf


def _log_click_weights(rows: int, mean: float) -> np.ndarray:
    """log(p**n e**(-mean (rows - n))) for n = 0 .. rows, with p = 1 - e**-mean:
    a source stays dark with probability exactly e**-mean, no rounded 1 - p.
    Past a pump of ~1e305 the dark terms overflow to -inf, the log of zero."""
    n = np.arange(rows + 1)
    with np.errstate(over="ignore"):
        return n * math.log(-math.expm1(-mean)) - (rows - n) * mean


def _interior_rows(config: SimConfig) -> int:
    """The rows that reach every delay: K+1 .. S-K with boundary limits,
    every row without them; see the module docstring."""
    if config.boundary is BoundaryMode.CONSTRAINED:
        return max(config.source_count - 2 * config.step_count, 0)
    return config.source_count


def _check_depth(step_count: int) -> None:
    if step_count > MAX_CONSTRAINED_STEP_COUNT:
        raise ParameterError(
            f"the constrained chain supports at most {MAX_CONSTRAINED_STEP_COUNT} "
            f"register steps, got {step_count}"
        )


@lru_cache(maxsize=4)
def _walks(source_count: int, step_count: int, multiple: int) -> tuple[np.ndarray, ...]:
    """Pump-independent walk tables of one constrained bank: the joint walk,
    then, if the bank has interior rows, the top and bottom walks; see the
    module docstring.

    Each table is an int64 array indexed by (start, clicks, column): axis 1
    is the number of clicks among the rows walking, and axis 2 holds the
    pattern counts, then the summed lacks, kept photons and discards of
    those patterns in its last three columns.  ``joint[level, n, j]`` and
    ``bottom[stop, n, j]`` count the patterns of the edge rows walking from
    ``level`` and of the bottom rows walking from delay ``stop`` that fill
    j storage positions.  ``top[level, n, i]`` counts the top-row patterns
    that fill i targets before the first interior row takes one, and
    ``top[level, n, -1]`` sums the clicked top rows they pass, n - i.
    """
    _check_depth(step_count)
    span = 2**step_count
    slack = source_count - step_count
    bank = range(1, source_count + 1)
    # the edge rows, listed: rows 1 .. K and S-K+1 .. S, or every row if S <= 2K
    edge = [*bank[:step_count], *bank[max(step_count, slack):]]

    def walk(rows: list[int], starts: int, slots: int = multiple) -> np.ndarray:
        """Patterns per (start, clicks, positions stored), then their summed
        lacks, kept photons and discards: every click pattern of ``rows``
        walks greedily from each delay below ``starts`` past a train of
        ``slots`` slots, and the targets it fills from ``slots`` on are stored."""
        patterns = [p for n in range(len(rows) + 1) for p in itertools.combinations(rows, n)]
        columns = []
        for start in range(starts):
            for pattern in patterns:
                taken = _route_greedy(slack, list(pattern), start, slots, span)
                stored = sum(delay >= slots for _, delay in taken)
                columns.append((start, len(pattern), len(taken), stored))
        start, clicks, kept, stored = np.array(columns).T
        table = np.zeros((starts, len(rows) + 1, len(rows) + 4), dtype=np.int64)
        np.add.at(table, (start, clicks, stored), 1)
        lacks = np.maximum(slots - start, 0) - kept + stored
        np.add.at(table[..., -3:], (start, clicks), np.stack((lacks, kept, clicks - kept), axis=1))
        return table

    size = span - multiple + 1
    tables = [walk(edge, size)]
    if source_count > len(edge):  # interior rows part the K top rows from the K bottom rows
        # with no slot to leave empty the top rows stop at the first target none
        # of them reaches, where the first interior row takes over
        tables += walk(edge[:step_count], size, 0), walk(edge[step_count:], span + 1)
    for table in tables:
        table.flags.writeable = False  # shared by every caller of the cache
    return tuple(tables)


def _weigh(table: np.ndarray, mean: float) -> np.ndarray:
    """Sum a walk table over its click counts, each pattern weighed at pump ``mean``."""
    weight = np.exp(_log_click_weights(table.shape[1] - 1, mean))
    return np.einsum("n,xnj->xj", weight, table)


def _chain_tables(
    config: SimConfig,
) -> tuple[Iterator[tuple[int, np.ndarray]], np.ndarray, np.ndarray | None]:
    """Row blocks of the transition matrix in level order, as bands; a
    per-level table whose columns are the expected lacks, kept photons,
    discards, heralds (S p_herald) and multi-pair photons kept (kept photons
    times p_multi / p_herald of the level's pump), then the level itself;
    and, if the rows repeat, the top row's entries at the m levels below it.

    The block of levels low .. high-1 is ``(first, rows)``, with
    ``rows[i, k]`` the entry of level low + i at level first + k.  A cycle
    drops at most m levels and stores at most S photons, so the band covers
    levels max(low - m, 0) .. min(high + S, capacity + 1) - 1 and every
    entry outside it is zero.  The blocks come from a generator, which
    builds a row only when it is pulled.  A bank with no edge rows fills its
    per-level table per pump run, every level of a run at once, each column
    a closed form of the run's pmf; a constrained bank fills it block by
    block.  The levels the generator has not reached read zero but for the
    level.

    If the levels below the top of a bank with no edge rows share one pump,
    its runs are filled before the first block, and every row from level m
    up to the top is that pump's pmf shifted by one level a row, the top
    column clamped: the third item is then the top row's entries at levels
    capacity - m .. capacity - 1, the first m terms of the top level's pmf.
    It is None for every other bank.

    Only a constrained bank reads walk tables, the joint walk of its edge
    rows and, if it has interior rows, the top and bottom walks; a bank with
    no edge rows needs only its interior row count.
    """
    m = config.multiple
    span = 2**config.step_count
    size = config.capacity + 1
    pumps = config.pumps
    # expected lacks, kept photons, discards, heralds, multi-pair photons kept, and the level
    per_level = np.zeros((size, 6))
    per_level[:, 5] = np.arange(size)
    sums = per_level[:, :3]  # the three columns the walks sum
    rows = _interior_rows(config)
    # a walk over no rows weighs exactly one, so it is never built: without
    # edge rows the run covers every cycle, and without top and bottom rows
    # the joint walk is the whole walk
    edge = config.boundary is BoundaryMode.CONSTRAINED
    split = edge and rows > 0
    # the joint walk, then the top and bottom walks if the walk splits
    walks = _walks(config.source_count, config.step_count, m) if edge else ()
    # runs of levels under one pump: a monotone feedback repeats no pump
    cuts = [level for level in range(1, size) if pumps[level] != pumps[level - 1]]
    runs = list(zip([0, *cuts], [*cuts, size]))

    def prepare(begin: int, end: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The multi-pair share of kept photons, the interior herald pmf and
        its tail sums for the run of levels begin .. end-1; without edge rows
        the run's per-level table too."""
        probs = herald_probabilities(pumps[begin])  # also rejects an infinite fed-back pump
        per_level[begin:end, 3] = config.source_count * probs.p_herald
        relative = probs.p_multi / probs.p_herald
        interior = herald_count_distribution(rows, pumps[begin]) if rows else np.ones(1)
        # for n <= span, tail[n] = P(max(n, 1) or more interior clicks),
        # reach[n] = E[min(c, n)] and over[n] = E[max(c - n, 0)]
        rest = np.cumsum(interior[:0:-1])[::-1]
        tail = np.concatenate((rest[:1], rest[:span], np.zeros(span + 1)))[:span + 1]
        reach = np.concatenate(([0.0], np.cumsum(tail[1:])))
        over = np.concatenate((np.cumsum(rest[::-1])[::-1], np.zeros(span + 1)))[:span + 1]
        if not edge:
            # the run keeps E[min(c, left)] photons of the targets left,
            # discards the rest, and from level l < m leaves m - l - c slots empty
            left = span - np.arange(begin, end)
            sums[begin:end, 1] = reach[left]
            sums[begin:end, 2] = over[left]
            short = np.arange(begin, min(end, m))[:, None]
            clicks = np.arange(min(m - begin, interior.size))
            sums[begin:begin + short.size, 0] = np.maximum(m - short - clicks, 0) @ interior[:clicks.size]
            per_level[begin:end, 4] = relative * sums[begin:end, 1]
        return relative, interior, tail, reach, over

    # rows that repeat: one pump below the top and no edge rows
    repeats = not edge and runs[0][1] >= size - 1
    prepared = {begin: prepare(begin, end) for begin, end in runs} if repeats else {}
    top_row = prepared[runs[-1][0]][1][:m] if repeats else None

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        # the top rows fill i = 0 .. K targets before the first interior row
        # takes one; a walk with no top rows fills none
        offsets = np.arange(config.step_count + 1 if split else 1)
        # blocks of whole levels bound the temporaries at 2**16 cells
        block = max(1, 2**16 // (span + 1))
        # run[c] = P(c interior clicks) for c < span, behind enough zeros that
        # band[k, d] = run[d - k] is a view for every row k of a block plus
        # offset, and so is shifted[k, d, i] = band[k + i, d]
        padded = np.zeros(block + offsets.size - 2 + span)
        run = padded[-span:]
        band = np.lib.stride_tricks.sliding_window_view(padded, span)[::-1]
        shifted = np.lib.stride_tricks.sliding_window_view(band, offsets.size, axis=0)
        # with edge rows the run takes the cycles with an interior click
        clicked = int(edge)
        for begin, end in runs:
            relative, interior, tail, reach, over = prepared.get(begin) or prepare(begin, end)
            pump = pumps[begin]
            if split:
                bottom = _weigh(walks[2], pump)
                stored = bottom[:, :-3][:, :size]  # [stop, j]
            run[clicked:interior.size] = interior[clicked:span]
            for low in range(begin, end, block):
                high = min(end, low + block)
                level = np.arange(low, high)[:, None]
                first = max(low - m, 0)
                cells = np.zeros((high - low, min(high + config.source_count, size) - first))
                # the top rows and the run click at most S times, so the run
                # stops at delays low .. last-1; below delay span it reads the band
                last = min(high + config.source_count, span + 1)
                below = min(last, span) - low
                under = min(last, m + 1) - low  # the stops at delay m or below
                past = max(low, m + 1)  # the first stop past the slots
                left = np.maximum(span - level - offsets, 0)  # targets left after the top rows
                if split:
                    # the top rows hand over after i targets; stops[l, s - low]
                    # is the chance that the interior run then stops at delay s
                    top = _weigh(walks[1][low:high], pump)
                    top, passed = top[:, :-3], top[:, -1]
                    stops = np.empty((high - low, last - low))
                    # one pass; a broadcast multiply over the band's view takes twice as long
                    np.einsum("lsi,li->ls", shifted[:high - low, :below], top, out=stops[:, :below])
                    if last > span:
                        stops[:, -1] = (top * tail[left]).sum(axis=1)
                    # from s the bottom rows store j photons: the next level is
                    # max(s - m, 0) + j, which lies in the band where j is possible
                    for j in range(stored.shape[1]):
                        stop = min(last, first + cells.shape[1] + m - j)
                        if stop > past:
                            cells[:, past - m + j - first:stop - m + j - first] += (
                                stops[:, past - low:stop - low] * stored[past:stop, j]
                            )
                    if under > 0:
                        cells[:, :stored.shape[1]] += stops[:, :under] @ stored[low:low + under]
                    sums[low:high] = stops @ bottom[low:last, -3:]
                    # the top rows and the run keep s - level photons; the run
                    # discards its clicks past the targets left, the top rows those passed
                    sums[low:high, 1] += (top * (offsets * tail[0] + reach[left])).sum(axis=1)
                    sums[low:high, 2] += (top * over[left]).sum(axis=1) + tail[0] * passed
                else:
                    # the run alone: the next level is min(max(s - m, 0), capacity)
                    ahead = band[:high - low, :below]
                    if below > past - low:
                        cells[:, past - m - first:low + below - m - first] = ahead[:, past - low:]
                    if under > 0:
                        cells[:, 0] += ahead[:, :under].sum(axis=1)
                    if last > span:  # the run fills storage: the last column is capacity
                        cells[:, -1] += tail[left[:, 0]]
                if edge:
                    # no interior click: the edge rows walk jointly from the level
                    joint = interior[0] * _weigh(walks[0][low:high], pump)
                    sums[low:high] += joint[:, -3:]
                    joint = joint[:, :-3]
                    columns = np.minimum(np.maximum(level - m, 0) + np.arange(joint.shape[1]), size - 1)
                    np.add.at(cells, (level - low, columns - first), joint)  # columns past capacity add 0
                    per_level[low:high, 4] = relative * sums[low:high, 1]
                yield first, cells

    return blocks(), per_level, top_row


def _drops(nonzero: np.ndarray, level: int, first: int = 0) -> np.ndarray:
    """How many levels each row of the mask ``nonzero``, the first one at
    ``level`` and column k at level ``first`` + k, drops at most; an all-zero
    row reads as dropping to level 0."""
    lowest = nonzero.argmax(axis=1)
    reached = nonzero[np.arange(len(nonzero)), lowest]
    return np.arange(level, level + len(nonzero)) - np.where(reached, first + lowest, 0)


def _solve_rows(
    blocks: Iterable[tuple[int, np.ndarray]],
    size: int,
    width: int,
    rewards: np.ndarray | None = None,
    top: np.ndarray | None = None,
) -> np.ndarray:
    """Stationary vector, by GTH state reduction, of a ``size``-level chain
    whose rows arrive in level order and drop at most ``width`` levels; or,
    given a (``size``, n) table of ``rewards`` per level, their stationary
    means pi @ ``rewards``, without pi.

    Each block of rows is a band ``(first, rows)``: ``rows[i, k]`` is the
    entry of the block's i-th level at level ``first`` + k, and every entry
    outside the band is zero.  The drop check, the search for each row's
    last nonzero and the copy into the window read only the band's columns.

    Levels are censored out from the bottom in left-looking (Crout) order.
    With P' the chain with levels 0 .. k-1 censored out when level k goes,
    exit_k the sum of P'[k, j] over j > k (never ``1 - P[k, k]``) and k
    running over the ``width`` levels below l:

    * the way up of level l is P'[l, j] = P[l, j] + sum_k P'[l, k]
      P'[k, j] / exit_k for j > l, one matrix-vector product, and its sum
      is exit_l;
    * its column P'[i, l] = P[i, l] + sum_k P'[i, k] P'[k, l] / exit_k for
      i = l+1 .. l+width, the only rows that can drop to l, is a second.

    Every term is non-negative.  So l can go as soon as those rows have
    arrived, and back-substitution needs only exit_l and the column.  The
    window holds the last ``width`` levels eliminated, each with its way up
    divided by its exit rate and its entries P'[l, k], and the rows not
    yet eliminated, at most ``width`` plus one block, cut to the columns
    from the first level it holds to the furthest any row has reached: no
    product carries a row past that.  The lowest level with no way up is
    the ceiling: the levels above it get exactly zero, and no block after
    the one that holds it is read.  A row that drops more than ``width``
    levels raises :class:`ParameterError`.

    The rewards, then a column of ones, ride in columns to the right of the
    levels, so the product that gives level l its way up also gives R_l =
    r_l + sum_k P'[l, k] R_k / exit_k: the reward summed from l until the
    chain first returns to l or above, the steps counted in the ones
    column as T_l.  At the ceiling no way up is left, so R and T sum over
    one return cycle to it, and the renewal-reward theorem makes R / T the
    stationary means, with no back-substitution.  A reward row is read when
    its block arrives, and rewards must lie in [0, 2**53].

    A steep fall makes T_l / exit_l grow past any float.  So before R_l /
    exit_l is stored, each column whose sum passes exit_l 2**900 is scaled,
    in the window and in the rows still to come, by the power of two that
    brings it to exit_l 2**800: only those rows are read again, and each
    column's sums are linear in its rewards, so putting the scales back
    gives the same ratio.  Each column takes its own scale, so a mean far
    below the steps' keeps its digits; while the scales agree no sum passes
    2**53 T_l, and T_l alone is checked.

    ``top``, given with the rewards, says that every row from level
    ``width`` up to the top, level ``size`` - 1, is one pmf shifted by one
    level a row, the top column clamped; it holds the top row's entries at
    the ``width`` levels below it.  Below the top column such rows are
    Toeplitz, and the clamped column is the sum of the columns past it,
    which the elimination carries as it would carry them apart.  So exit_l
    and the column P'[l + d, l] tend to fixed values e and h_d all the way
    up to the top.  The elimination stops after the first level l whose
    exit rate and column are each within one unit in the last place of
    those of level l - max(``width``, l // 2), if its exit rate is at least
    2**-128; no later block is read.  Rounding can leave the last bits
    alternating from one level to the next, so e and h are the means of
    levels l - 1 and l.  Above l, X_k = R_k / exit_k follows X_k = (r_k +
    sum_d h_d X_(k-d)) / e, a recurrence with non-negative coefficients,
    run in blocks of at most ``_BLOCK`` levels: X_block = T (r_block / e +
    F X_before), with F the coefficients of the ``width`` levels before the
    block and T = (I - A)**-1 for the block's own, built once by block
    forward substitution.  Before each block each column whose X passes 2**600 is
    scaled to 2**500: T sums to at most 2**64, the coefficients to at most
    2**128 and r / e is at most 2**181, so no block overflows.  The top
    row's reduced entries are its own entries folded through the way up of
    level l, and they give R and T at the top as at a ceiling.
    """
    width = min(width, size - 1)
    carried = 0 if rewards is None else rewards.shape[1] + 1  # the rewards and the ones
    # below[l, d] = P'[l + 1 + d, l] and exit_rate[l], which only back-substitution reads
    below, exit_rate = (None, None) if carried else (np.zeros((size, width)), np.zeros(size))
    shift = np.zeros(carried, dtype=int)  # the reward columns are scaled by 2**-shift
    even = True  # every reward column has the same shift
    # window[i, j] is row base + i at level base + j, for the last width levels
    # eliminated (ways up divided by the exit rate) and the rows not yet
    # eliminated; the reward columns follow the levels
    window = np.empty((0, carried))
    base = done = read = 0
    ends = [0]  # ends[l + 1] = 1 + the last nonzero of rows 0 .. l
    ceiling = None
    # the exit rates and columns of the levels eliminated, for the stop rule;
    # it pairs a level below size - 1 - width with one width or more below
    # it and at or above width, so it can fire only if 3 width < size - 1.
    # A column is kept only while a later level can still compare against it
    rates, seen = [], {} if top is not None and 3 * width < size - 1 else None
    for first, rows in blocks:
        nonzero = rows != 0.0
        if _drops(nonzero, read, first).max() > width:
            raise ParameterError(
                f"a row among levels {read} .. {read + len(rows) - 1} "
                f"drops more than {width} levels"
            )
        end = first + rows.shape[1]  # the level past the band
        last = np.full(len(rows), ends[-1])
        past = nonzero[:, max(ends[-1] - first, 0):][:, ::-1]
        if past.size:  # the rows reaching past ends[read], searched from the right
            found = past.any(axis=1)
            last[found] = end - past.argmax(axis=1)[found]
        ends += np.maximum.accumulate(last).tolist()
        # the band keeps the new rows at base or above, and none reaches past ends[-1]
        held, kept = window.shape[0], window.shape[1] - carried
        grown = np.zeros((read + len(rows) - base, ends[-1] - base + carried))
        grown[:held, :kept] = window[:, :kept]
        low, high = max(first, base), min(end, ends[-1])
        if high > low:
            grown[held:, low - base:high - base] = rows[:, low - first:high - first]
        if carried:
            grown[:held, -carried:] = window[:, kept:]
            grown[held:, -carried:-1] = rewards[read:read + len(rows)]
            grown[held:, -1] = 1.0
            np.ldexp(grown[held:, -carried:], -shift, out=grown[held:, -carried:])
        window = grown
        read += len(rows)
        ready = read if read == size else max(done, read - width)
        for level in range(done, ready):
            row = level - base
            first = max(row - width, 0)
            stop = ends[level + 1] - base  # no product carries row level further
            # the rewards sit past the level columns, which are zero from stop
            # on in every row the product reads
            reach = window.shape[1] if carried else stop
            window[row, row] = 1.0  # GTH never reads the diagonal
            up = window[row, first:row + 1] @ window[first:row + 1, row + 1:reach]
            rate = np.add.reduce(up[:stop - row - 1])
            if rate == 0.0:
                ceiling = level
                break
            # while every column is scaled alike, no reward sum passes 2**53 T_l
            if carried and (up[-1] if even else max(up[-carried:].tolist())) > rate * 2.0**900:
                # bring each sum past 2**800 exit_l down to it before it is stored
                drop = np.maximum(np.frexp(up[-carried:])[1] - math.frexp(rate)[1] - 800, 0)
                np.ldexp(window[:, -carried:], -drop, out=window[:, -carried:])
                np.ldexp(up[-carried:], -drop, out=up[-carried:])
                shift += drop
                even = bool((shift == shift[0]).all())
            np.divide(up, rate, out=window[row, row + 1:reach])
            column = window[row + 1:row + 1 + width, first:row + 1] @ window[first:row + 1, row]
            if below is not None:
                below[level, :column.size] = column
                exit_rate[level] = rate
            window[row + 1:row + 1 + width, row] = column
            if seen is not None and level < size - 1 - width:  # no row or way up reaches the top
                seen[level], back = column, level - max(width, level // 2)
                # back rises by at most one a level, and no later level reads below it
                seen.pop(back - 1, None)
                rates.append(float(rate))
                close = back >= width and rate >= 2.0**-128 and abs(rate - rates[back]) <= math.ulp(rate)
                if close and (np.abs(column - seen[back]) <= np.spacing(column)).all():
                    # rounding can leave the last bits alternating from one
                    # level to the next, so the stretch takes the mean of two
                    rate, column = 0.5 * (rates[-1] + rates[-2]), 0.5 * (column + seen[level - 1])
                    held = window[row + 1 - width:row + 1, -carried:]
                    way_up = window[row, row + 1:row + width]
                    up = _climb(held, rate, column, way_up, top, rewards[level + 1:], shift)
                    ceiling = size - 1
                    break
        if ceiling is not None:
            break  # pi is zero above the ceiling, so no later row is needed
        keep = max(ready - width, base)
        window = window[keep - base:, keep - base:]
        base, done = keep, ready
    if carried:
        # R / T with the scales put back: the mantissas divide, the exponents subtract
        sums, sums_exponent = np.frexp(up[-carried:-1])
        steps, steps_exponent = math.frexp(up[-1])
        return np.ldexp(sums / steps, sums_exponent - steps_exponent + shift[:-1] - shift[-1])
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


# the most levels one block of a repeating stretch takes
_BLOCK = 128


def _series(coefficients: np.ndarray, count: int, limit: float = math.inf) -> np.ndarray:
    """The first ``count`` terms of the power series of 1 / (1 - a(z)),
    a(z) = sum_i ``coefficients``[i - 1] z**i: s_0 = 1 and s_p = sum_i a_i
    s_(p-i).  Block forward substitution doubles the terms at each step:
    the n terms so far pull on the next n through a, and those next n are
    that pull convolved with the n terms so far; no term is a difference.
    If the terms would sum past ``limit`` they stop at the power of two
    before."""
    terms = np.ones(1)
    while terms.size < count:
        n = terms.size
        pull = np.convolve(coefficients, terms)[n - 1:2 * n - 1]
        grown = np.concatenate((terms, np.convolve(terms, pull)[:n]))
        if grown.sum() > limit:
            break
        terms = grown
    return terms[:count]


def _climb(
    held: np.ndarray, rate: float, column: np.ndarray, way_up: np.ndarray,
    top: np.ndarray, rewards: np.ndarray, shift: np.ndarray,
) -> np.ndarray:
    """R and T at the top of a repeating stretch, scaled by 2**-``shift``,
    which it updates; see :func:`_solve_rows`.

    ``held`` holds X of the m levels last eliminated, one column per reward
    and the ones last, and ``rate``, ``column`` and ``way_up`` are the exit
    rate, the column and the way up, divided by the rate, of the last one.
    ``rewards`` are those of the levels after it, the top last.
    """
    width = len(held)
    scale = column / rate
    lower = _series(scale, max(min(_BLOCK, len(rewards) - 1), 1), 2.0**64)
    count = lower.size
    # the block's T[p, q] = lower[p - q], and F[p, q] = scale[p + width - 1 - q]
    # for q >= p: the X of the width levels before the block it takes in
    windows = np.lib.stride_tricks.sliding_window_view
    triangle = windows(np.concatenate((np.zeros(count - 1), lower)), count)[:, ::-1].copy()
    far = windows(np.concatenate((scale, np.zeros(width))), width)[:, ::-1]
    sums = np.ones((len(rewards), held.shape[1]))
    sums[:, :-1] = rewards
    for low in range(0, len(rewards) - 1, count):
        exponent = np.frexp(held.max(axis=0))[1]
        drop = np.where(exponent > 600, exponent - 500, 0)
        held = np.ldexp(held, -drop)
        shift += drop
        step = np.ldexp(sums[low:min(low + count, len(rewards) - 1)], -shift) / rate
        near = min(len(step), width)
        step[:near] += far[:near] @ held
        held = np.concatenate((held, triangle[:len(step), :len(step)] @ step))[-width:]
    # the top row's entries at the width levels below it, reduced through
    # their ways up: (I - U)**-1 of the strictly upper Toeplitz U is the series of way_up
    reduced = np.convolve(top, _series(way_up, width))[:width]
    return np.ldexp(sums[-1], -shift) + reduced @ held


# the rows of every chain the oracle builds sum to one within 1e-15, so this
# leaves ample room for rounding while rejecting a matrix that is not stochastic
_ROW_SUM_TOLERANCE = 1e-9


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
        If the matrix is not square and non-empty, has a non-finite or
        negative entry, or has a row whose sum is off one by more than
        ``_ROW_SUM_TOLERANCE`` (1e-9).
    """
    try:
        matrix = np.asarray(matrix)
    except ValueError as exc:  # a ragged nesting
        raise ParameterError("transition matrix must be square and non-empty") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ParameterError("transition matrix must be square and non-empty")
    real = matrix.dtype.kind in "biuf"  # bool, integer or float: no text, complex or objects
    if not (real and np.isfinite(matrix).all() and (matrix >= 0.0).all()):
        raise ParameterError("transition matrix entries must be finite and non-negative")
    matrix = matrix.astype(float, copy=False)
    if np.abs(matrix.sum(axis=1) - 1.0).max() > _ROW_SUM_TOLERANCE:
        raise ParameterError(
            f"transition matrix rows must sum to one within {_ROW_SUM_TOLERANCE:g}"
        )
    size = matrix.shape[0]
    width = max(int(_drops(matrix != 0.0, 0).max()), 0)
    step = max(1, 2**16 // size)
    return _solve_rows(((0, matrix[low:low + step]) for low in range(0, size, step)), size, width)


def stationary_rates(config: SimConfig) -> OracleRates:
    """Exact steady-state rates of the bank ``config`` describes.

    Boundary limits and pump feedback enter the chain exactly as they
    enter a Monte Carlo run of the same config; only ``cycles`` and
    ``seed`` play no part.  The chain drops at most ``multiple`` levels a
    cycle, so it is solved as it is built, by the subtraction-free GTH
    reduction of :func:`stationary_distribution`: each level is censored
    out, bottom up, by two matrix-vector products over the ``multiple``
    levels below it, as soon as the ``multiple`` rows above it exist.  The
    first product also carries the level's expected lacks, kept photons,
    discards, heralds, multi-pair photons and storage, summed up to its
    first return to it or above; at the lowest level with no way up those
    sums cover one return cycle, and each rate is their ratio to the
    cycle's length (renewal-reward), with no stationary vector.  No call
    holds the (capacity + 1)**2 matrix.  A block of rows, at most 2**16 /
    (2**K + 1) levels, is built only at the levels they can reach, from
    ``multiple`` below the block to ``source_count`` above it, and the
    solve holds only the last ``multiple`` rows eliminated and the rows
    not yet eliminated (at most ``multiple`` plus one block), each cut to
    the levels the rows reach, with the sums beside them.  The levels
    above the lowest one with no way up are never visited and their rows
    are never built, so a bank whose storage never fills costs one block.

    A bank without boundary limits whose levels below the top share one
    pump (feedback ``off``, or ``boost``) repeats its rows from level
    ``multiple`` up to the top.  Its per-level sums are filled at once, and
    the elimination stops once a level's exit rate and reduced column are
    within one unit in the last place of those of the level max(``multiple``,
    l // 2) below it: the sums of the levels above follow a recurrence with
    the mean coefficients of the last two levels, solved in blocks of up to
    128 levels, and no row above the stop is built.  Constrained banks and
    ``turbo_boost`` eliminate every level.

    Parameters
    ----------
    config : SimConfig

    Returns
    -------
    OracleRates
        Lack and multi-pair rates per emitted slot, the multi-pair
        fraction of filled slots, the mean storage occupancy, the mean
        heralds per cycle, the fraction of slots filled and the mean
        photons discarded per cycle, each a sum of non-negative terms.

    Raises
    ------
    ParameterError
        For a constrained bank deeper than ``MAX_CONSTRAINED_STEP_COUNT``.
    """
    blocks, per_level, top_row = _chain_tables(config)
    means = _solve_rows(blocks, config.capacity + 1, config.multiple, per_level, top_row)
    lacks, kept, discards, heralds, multi, storage = map(float, means)
    # every kept photon leaves in some slot, so kept photons count the filled
    # slots in full precision, where 1 - lack cancels
    fill_rate, multi_rate = kept / config.multiple, multi / config.multiple
    return OracleRates(
        lack_rate=lacks / config.multiple,
        multi_rate=multi_rate,
        relative_multi_rate=multi_rate / fill_rate if fill_rate > 0.0 else math.nan,
        mean_storage=storage,
        mean_heralds=heralds,
        fill_rate=fill_rate,
        mean_discards=discards,
    )


def _gap_bounds(config: SimConfig) -> tuple[float, float]:
    """Closed-form bounds ``(lower, upper)`` on lack_rate - multi_rate of
    ``config``, from the herald pmf of its lowest pump; no chain.

    With r = p_multi / p_herald, each kept photon carries a multi-pair
    event with the r of its pump, and kept photons fill the slots, so
    multi lies between r_min (1 - lack) and r_max (1 - lack).  A cycle
    keeps at most the S p_max photons it heralds on average, so lack is at
    least 1 - S p_max / m.  An interior click fills an open slot before
    any slot is left empty, stored photons only fill slots and feedback
    only raises the pump, so lack is at most E[max(m - I, 0)] / m with I
    the interior clicks at the lowest pump.
    """
    m = config.multiple
    low, high = (herald_probabilities(pump) for pump in (min(config.pumps), max(config.pumps)))
    r_min, r_max = low.p_multi / low.p_herald, high.p_multi / high.p_herald
    lack_floor = 1.0 - config.source_count * high.p_herald / m
    rows = _interior_rows(config)
    short = herald_count_distribution(rows, min(config.pumps))[:m] if rows else np.ones(1)
    lack_ceiling = float(short @ (m - np.arange(short.size))) / m
    return (
        lack_floor - r_max * (1.0 - lack_floor),
        lack_ceiling - r_min * (1.0 - lack_ceiling),
    )


# the bracket stops doubling once the bank's highest pump would pass 32 mean
# pairs: there a source stays dark in one cycle in e**32, so a bank that still
# lacks more than it multi-pairs lacks for want of sources, not of pump
_MAX_MEAN = 32.0


def optimized_power(bank: SimConfig, *, tolerance: float = 1e-6) -> tuple[float, OracleRates]:
    """Pump level where the lack rate equals the multi-pair rate of ``bank``,
    and the rates of the bank there.

    Solved on the chain of the bank as given, boundary limits and pump
    feedback included: its ``mean_pairs`` is the unknown, and ``cycles``
    and ``seed`` play no part, as in :func:`stationary_rates`.  Lack falls
    and multi-pair rises monotonically with pump power, so the two curves
    cross exactly once; the crossing is the operating point that
    minimises the larger of the two errors.  Solved by bisection on
    lack - multi, starting from the bracket (1e-6, 1] and doubling the
    upper end while both rates still sit on the same side (small banks
    can push the crossing above one mean pair per cycle), until the
    bank's highest pump, feedback included, would pass 32 mean pairs.

    Most steps sit far from the crossing, where two closed-form bounds
    already fix the sign of lack - multi.  With p_max, p_min the herald
    probabilities of the bank's highest and lowest pumps and r = p_multi /
    p_herald at each:

    * lack - multi >= 1 - F (1 + r_max), with F = S p_max / m;
    * lack - multi <= U (1 + r_min) - r_min, with U = E[max(m - I, 0)] / m
      and I ~ Binomial(interior rows, p_min).

    A step solves the chain only when neither bound clears +-``tolerance``
    by max(``tolerance``, 1e-9), so the bisection takes the same steps to
    the same float as it would solving the chain at every one.

    Returns
    -------
    mean_pairs : float
        Mean pair number at the crossing.
    rates : OracleRates
        The rates of the chain solved at that pump, the solve that ended the
        bisection: a step inside the tolerance is never one a bound decided.

    Raises
    ------
    ConvergenceError
        If no sign change is found before the bank's highest pump passes
        32 mean pairs, or bisection stalls without reaching ``tolerance``.
    ParameterError
        For a bad ``tolerance``, or a constrained bank deeper than
        ``MAX_CONSTRAINED_STEP_COUNT``.
    """
    limit = check_real(tolerance, "tolerance", positive=True)
    if bank.boundary is BoundaryMode.CONSTRAINED:
        _check_depth(bank.step_count)
    decisive = limit + max(limit, 1e-9)
    gain = max(bank.pumps) / bank.mean_pairs

    def gap(mean: float) -> tuple[float, OracleRates | None]:
        """lack - multi at pump ``mean``, and the rates if the chain was solved."""
        config = replace(bank, mean_pairs=mean)
        # a bound this far past the tolerance takes the step the exact gap would
        lower, upper = _gap_bounds(config)
        if lower >= decisive:
            return lower, None
        if upper <= -decisive:
            return upper, None
        rates = stationary_rates(config)
        return rates.lack_rate - rates.multi_rate, rates

    low, high = 1e-6, 1.0
    if gap(low)[0] <= 0.0:
        raise ConvergenceError(
            "lack does not exceed multi even at vanishing pump; no crossing to find"
        )
    while gap(high)[0] > 0.0:
        high *= 2.0
        if high * gain > _MAX_MEAN:
            raise ConvergenceError(
                f"no lack/multi crossing below mean pair number {_MAX_MEAN / gain}"
            )

    for _ in range(200):
        mid = 0.5 * (low + high)
        gap_mid, rates = gap(mid)
        # a bound decides only past +-decisive, so a gap inside the tolerance was solved
        if abs(gap_mid) < limit:
            return mid, rates
        if gap_mid > 0.0:
            low = mid
        else:
            high = mid
    raise ConvergenceError(
        f"bisection failed to bring |lack - multi| under {tolerance}"
    )
