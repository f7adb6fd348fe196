"""Pair emission statistics for a bank of heralded SPDC sources.

Each source is pumped identically and emits photon pairs with Poisson
statistics per clock cycle.  One arm of every pair goes to a herald
detector, the other into the switching network.  The herald detectors
click without resolving photon number, so a click means "one or more
pairs" and nothing finer.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, check_mean_pairs, check_source_count, check_whole

__all__ = [
    "HeraldProbabilities",
    "herald",
    "herald_probabilities",
    "pair_pmf",
    "sample_cycle_emissions",
]


def pair_pmf(count: int, mean_pairs: float) -> float:
    """Probability of emitting exactly ``count`` pairs in one cycle.

    Past 15 pairs it is Loader's saddle-point form (2000),
    e**-(d(n) + b(n, mean)) / sqrt(2 pi n): d(n) is Stirling's series for
    the error of Stirling's formula, and b(n, mean) = n log(n / mean) +
    mean - n is summed from the gap n - mean, so it keeps its digits where
    the count is near the mean and the large terms of the direct form cancel.

    Parameters
    ----------
    count : int
        Number of pairs, non-negative.
    mean_pairs : float
        Mean pairs per cycle, positive.

    Returns
    -------
    float
        ``mean_pairs**count * exp(-mean_pairs) / count!``, 0.0 where it
        underflows.
    """
    n = check_whole(count, "pair count")
    mean = check_mean_pairs(mean_pairs)
    if n <= 15:
        # log form keeps the numerator from overflowing
        return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
    try:
        x = float(n)
    except OverflowError:  # a count past the float range lies far past any float mean
        return 0.0
    # the whole and fractional parts of a float are exact, so the gap is
    # n - mean rounded at most twice, even where x rounds n
    whole = int(mean)
    gap = float(n - whole) - (mean - whole)
    half_sum = 0.5 * x + 0.5 * mean  # x + mean can pass the float range
    if abs(gap) < 0.2 * half_sum:
        # b = gap v + 2 n (v**3 / 3 + v**5 / 5 + ...), v = gap / (n + mean)
        v = 0.5 * gap / half_sum
        deviance, term = gap * v, 2.0 * (x * v)
        for j in itertools.count(1):
            term *= v * v
            grown = deviance + term / (2 * j + 1)
            if grown == deviance:
                break
            deviance = grown
    else:
        deviance = x * math.log(x / mean) + mean - x  # inf where p underflows
    s = 1.0 / (x * x)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / x
    # two roots: 2 pi n can pass the float range
    return math.exp(-stirling - deviance) / math.sqrt(2.0 * math.pi) / math.sqrt(x)


class HeraldProbabilities(NamedTuple):
    """Per-source, per-cycle click probabilities."""

    p_herald: float
    p_multi: float


def herald_probabilities(mean_pairs: float) -> HeraldProbabilities:
    """Herald click probability and multi-pair probability for one source.

    ``p_herald`` is the chance of at least one pair, ``p_multi`` the chance
    of two or more.  Both are per cycle.
    """
    mean = check_mean_pairs(mean_pairs)
    p_herald = -math.expm1(-mean)
    if mean >= 0.5:
        return HeraldProbabilities(p_herald, p_herald - mean * math.exp(-mean))
    # p_herald - mean e**-mean cancels at a small pump: sum the Poisson tail
    # e**-mean (mean**2/2! + mean**3/3! + ...) until a term adds nothing
    term, tail, k = mean * mean / 2.0, 0.0, 2
    while tail + term != tail:
        tail += term
        k += 1
        term *= mean / k
    return HeraldProbabilities(p_herald, math.exp(-mean) * tail)


def sample_cycle_emissions(
    source_count: int,
    mean_pairs: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one cycle of Poisson pair counts for the whole source bank.

    Uses inversion so that exactly one uniform variate is consumed per
    source, in source order.  That makes the draw count a fixed function
    of the configuration, which keeps seeded runs replayable even if the
    generator is shared with other consumers.  Only sources whose uniform
    lies above ``exp(-mean_pairs)`` fired; they alone are inverted, against
    a cumulative table built once per pump value.

    Parameters
    ----------
    source_count : int
        Number of sources in the bank, at least 1.
    mean_pairs : float
        Mean pairs per source per cycle, small enough that
        ``exp(-mean_pairs)`` is a normal float (up to about 708).
    rng : numpy.random.Generator
        Seeded generator supplying the uniforms.

    Returns
    -------
    numpy.ndarray
        Read-only int64 pair count of each source, in source order.
    """
    check_source_count(source_count)
    mean = check_mean_pairs(mean_pairs)
    if not isinstance(rng, np.random.Generator):
        raise ParameterError("rng must be a numpy.random.Generator")

    cdf = _pair_count_cdf(mean)
    u = rng.random(int(source_count))
    counts = np.zeros(int(source_count), dtype=np.int64)
    fired = (u > cdf[0]).nonzero()[0]
    # the count is the first n with u <= cdf[n], or len(cdf) past its end
    counts[fired] = cdf.searchsorted(u[fired])
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=128)
def _pair_count_cdf(mean: float) -> np.ndarray:
    """Running Poisson sums P(count <= n) for n = 0, 1, ... at one pump value.

    The terms follow the recurrence ``term *= mean / n`` and are added in
    order, so every entry is the same float a sequential search would
    compare against.  The table stops before the first term that
    underflows to zero; a uniform above its last entry gets the count
    ``len(table)``, as the tail mass is below float resolution.
    """
    term = math.exp(-mean)
    if term < sys.float_info.min:
        # a subnormal or vanishing first term skews the whole table
        raise ParameterError(
            f"mean pair number {mean!r} is too large to sample: exp(-mean) is not a normal float"
        )
    cumulative = [term]
    for n in itertools.count(1):
        term *= mean / n
        if term <= 0.0:
            break
        cumulative.append(cumulative[-1] + term)
    table = np.array(cumulative)
    table.flags.writeable = False
    return table


def herald(counts: np.ndarray) -> np.ndarray:
    """Threshold a cycle of pair counts into the boolean herald click mask.

    The mask is all a scheduler may route on: the detectors cannot count
    photons, so a click means "one or more pairs" and nothing finer.
    """
    return counts >= 1
