"""Exact steady-state rates via a storage-level Markov chain.

For a bank where every row can reach every register position, the only
state that matters between cycles is how many photons sit in storage.
Heralds per cycle are binomial, the train fills greedily, surplus goes
to storage up to capacity, and the rest is discarded.  That gives a
small (capacity + 1)-state chain whose stationary distribution yields
the exact lack rate; the multi-pair rate follows because routing is
blind to multiplicities, so every filled slot carries a multi-pair event
with the same conditional probability p_multi / p_herald.

Edge rows of a real bank see restricted reachability, which this chain
ignores; it is the idealized interior-dominated limit and the natural
cross-check for the Monte Carlo engine run without boundary limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .emission import herald_probabilities
from .errors import (
    ConvergenceError,
    ParameterError,
    check_capacity,
    check_p_herald,
    check_source_count,
)
from .scheduler import storage_capacity

__all__ = [
    "ChainSpec",
    "OracleRates",
    "herald_count_distribution",
    "optimized_power",
    "stationary_distribution",
    "stationary_rates",
    "transition_matrix",
]


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the storage-level chain."""

    source_count: int
    multiple: int
    capacity: int
    p_herald: float
    p_multi: float

    def __post_init__(self) -> None:
        check_source_count(self.source_count)
        if self.multiple < 1:
            raise ParameterError(f"multiple must be at least 1, got {self.multiple}")
        check_capacity(self.capacity)
        check_p_herald(self.p_herald)
        if not 0.0 <= self.p_multi < self.p_herald:
            raise ParameterError("p_multi must lie in [0, p_herald)")

    @classmethod
    def from_mean_pairs(
        cls,
        source_count: int,
        multiple: int,
        step_count: int,
        mean_pairs: float,
    ) -> "ChainSpec":
        """Build the chain for a concrete device configuration."""
        capacity = storage_capacity(step_count, multiple)
        probs = herald_probabilities(mean_pairs)
        return cls(
            source_count=source_count,
            multiple=int(multiple),
            capacity=capacity,
            p_herald=probs.p_herald,
            p_multi=probs.p_multi,
        )


class OracleRates(NamedTuple):
    """Steady-state error rates and storage occupancy."""

    lack_rate: float
    multi_rate: float
    relative_multi_rate: float
    mean_storage: float


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


def _chain_tables(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix over storage levels plus expected lacks per level."""
    pmf = herald_count_distribution(spec.source_count, spec.p_herald)
    heralds = np.arange(pmf.size)
    size = spec.capacity + 1
    matrix = np.empty((size, size))
    lack_given_level = np.empty(size)
    for level in range(size):
        available = level + heralds
        filled = np.minimum(spec.multiple, available)
        next_level = np.minimum(spec.capacity, available - filled)
        matrix[level] = np.bincount(next_level, weights=pmf, minlength=size)
        lack_given_level[level] = pmf @ (spec.multiple - filled)
    return matrix, lack_given_level


def transition_matrix(spec: ChainSpec) -> np.ndarray:
    """One-cycle transition matrix of the storage level."""
    matrix, _ = _chain_tables(spec)
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


def stationary_rates(spec: ChainSpec) -> OracleRates:
    """Exact steady-state lack and multi-pair rates of the idealized bank.

    The chain is solved in place by the subtraction-free GTH reduction of
    :func:`stationary_distribution`; levels below one whose way down
    underflowed get exactly zero.

    Parameters
    ----------
    spec : ChainSpec

    Returns
    -------
    OracleRates
        Rates per emitted slot plus the mean storage occupancy.
    """
    matrix, lack_given_level = _chain_tables(spec)
    pi = _reduce_to_stationary(matrix)
    lack_rate = float(pi @ lack_given_level) / spec.multiple
    relative = spec.p_multi / spec.p_herald
    multi_rate = relative * (1.0 - lack_rate)
    mean_storage = float(pi @ np.arange(spec.capacity + 1))
    return OracleRates(
        lack_rate=lack_rate,
        multi_rate=multi_rate,
        relative_multi_rate=relative,
        mean_storage=mean_storage,
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

    Lack falls and multi-pair rises monotonically with pump power, so the
    two curves cross exactly once; the crossing is the operating point
    that minimises the larger of the two errors.  Solved by bisection on
    lack - multi, starting from the bracket (1e-6, 1] and doubling the
    upper end while both rates still sit on the same side (small banks
    can push the crossing above one mean pair per cycle).

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
    if tolerance <= 0.0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")

    def gap(mean: float) -> float:
        spec = ChainSpec.from_mean_pairs(source_count, multiple, step_count, mean)
        rates = stationary_rates(spec)
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
