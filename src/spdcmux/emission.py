"""Pair emission statistics for a bank of heralded SPDC sources.

Each source is pumped identically and emits photon pairs with Poisson
statistics per clock cycle.  One arm of every pair goes to a herald
detector, the other into the switching network.  The herald detectors
click without resolving photon number, so a click means "one or more
pairs" and nothing finer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, check_mean_pairs, check_source_count

__all__ = [
    "HeraldProbabilities",
    "herald",
    "herald_probabilities",
    "pair_pmf",
    "sample_cycle_emissions",
]


def pair_pmf(count: int, mean_pairs: float) -> float:
    """Probability of emitting exactly ``count`` pairs in one cycle.

    Parameters
    ----------
    count : int
        Number of pairs, non-negative.
    mean_pairs : float
        Mean pairs per cycle, positive.

    Returns
    -------
    float
        ``mean_pairs**count * exp(-mean_pairs) / count!``
    """
    if count != int(count) or count < 0:
        raise ParameterError(f"pair count must be a non-negative integer, got {count!r}")
    mean = check_mean_pairs(mean_pairs)
    n = int(count)
    # log form keeps large counts from overflowing the numerator
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


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
    p_multi = p_herald - mean * math.exp(-mean)
    return HeraldProbabilities(p_herald=p_herald, p_multi=p_multi)


def sample_cycle_emissions(
    source_count: int,
    mean_pairs: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one cycle of Poisson pair counts for the whole source bank.

    Uses inversion by sequential search so that exactly one uniform variate
    is consumed per source, in source order.  That makes the draw count a
    fixed function of the configuration, which keeps seeded runs replayable
    even if the generator is shared with other consumers.

    Parameters
    ----------
    source_count : int
        Number of sources in the bank, at least 1.
    mean_pairs : float
        Mean pairs per source per cycle.
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

    u = rng.random(int(source_count))
    counts = np.zeros(int(source_count), dtype=np.int64)
    term = math.exp(-mean)
    cumulative = term
    n = 0
    pending = u > cumulative
    while pending.any():
        n += 1
        term *= mean / n
        if term <= 0.0:
            # cumulative sum saturated in floats; the remaining tail mass
            # is below resolution, park the stragglers at the current count
            counts[pending] = n
            break
        cumulative += term
        counts[pending] = n
        pending = u > cumulative
    counts.flags.writeable = False
    return counts


def herald(counts: np.ndarray) -> np.ndarray:
    """Threshold a cycle of pair counts into the boolean herald click mask.

    The mask is all a scheduler may route on: the detectors cannot count
    photons, so a click means "one or more pairs" and nothing finer.
    """
    return counts >= 1
