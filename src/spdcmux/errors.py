"""Exception types and the argument checks shared across the package."""

from __future__ import annotations

import math


class ParameterError(ValueError):
    """Raised when an argument is outside its physical or structural domain."""


class ConvergenceError(RuntimeError):
    """Raised when the pump optimizer finds no crossing or its bisection stalls."""


class ConservationError(RuntimeError):
    """Raised when a cycle plan loses or invents a photon."""


def is_whole(value: object) -> bool:
    """True for a finite number with no fractional part, False for anything else."""
    try:
        # math converts numbers only, where float() would also parse "5";
        # an infinity raises ValueError and a huge int OverflowError
        return math.fmod(value, 1.0) == 0.0
    except (TypeError, ValueError, OverflowError):
        return False


def as_real(value: object) -> float:
    """``value`` as a float if it is a real number that fits one, else NaN."""
    try:
        return math.ldexp(value, 0)  # numbers only, as in is_whole
    except (TypeError, OverflowError):
        return math.nan


def check_source_count(source_count: int) -> int:
    # is_whole decides through a float, which holds every integer exactly only
    # up to 2**53: past it a float has no fraction left to test
    if not is_whole(source_count) or not 1 <= source_count <= 2**53:
        raise ParameterError(
            f"source count must be an integer in [1, 2**53], got {source_count!r}"
        )
    return int(source_count)


# deepest register accepted anywhere: tables and chains grow as 2**K, and
# K=12 already means a 4096-delay table and a chain of up to 4096 levels
MAX_STEP_COUNT = 12


def check_step_count(step_count: int) -> int:
    if not is_whole(step_count) or not 1 <= step_count <= MAX_STEP_COUNT:
        raise ParameterError(
            f"step count must be an integer in [1, {MAX_STEP_COUNT}], got {step_count!r}"
        )
    return int(step_count)


def check_mean_pairs(mean_pairs: float) -> float:
    """The mean pair number as a float, which must be positive and finite."""
    mean = as_real(mean_pairs)
    if not math.isfinite(mean) or mean <= 0.0:
        raise ParameterError(f"mean pair number must be positive and finite, got {mean_pairs!r}")
    return mean

