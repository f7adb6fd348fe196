"""Exception types and the argument checks shared across the package.

The library checks each whole-number argument with :func:`check_whole` and
each real one with :func:`check_real`.  Both return the value as an int or
a float, or raise :class:`ParameterError` naming the argument, its range
and the value as given.  Two checks keep their own text:
:func:`check_source_count`, whose bound reads ``2**53``, and
``simulator.derive_point_seed``, which gives one message for its two
arguments.
"""

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
    if isinstance(value, int):
        return True  # whole at any size, even past the float range
    try:
        # math converts numbers only, where float() would also parse "5";
        # an infinity raises ValueError and a number past the float range OverflowError
        return math.fmod(value, 1.0) == 0.0
    except (TypeError, ValueError, OverflowError):
        return False


def check_whole(value: object, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int if it is a whole number in [low, high]; without
    ``high``, any non-negative whole number."""
    if is_whole(value) and low <= value <= (math.inf if high is None else high):
        return int(value)
    bounds = "a non-negative integer" if high is None else f"an integer in [{low}, {high}]"
    raise ParameterError(f"{name} must be {bounds}, got {value!r}")


def check_real(value: object, name: str, *, positive: bool) -> float:
    """``value`` as a float if it is a finite real number that is positive,
    or with ``positive`` false only non-negative."""
    try:
        real = math.ldexp(value, 0)  # numbers only, as in is_whole
    except (TypeError, OverflowError):  # not a number, or one past the float range
        real = math.nan
    if math.isfinite(real) and (real > 0.0 if positive else real >= 0.0):
        return real
    bounds = "positive and finite" if positive else "finite and non-negative"
    raise ParameterError(f"{name} must be {bounds}, got {value!r}")


def check_source_count(source_count: int) -> int:
    # past 2**53 every float is whole, and no bank that large could be built
    if not is_whole(source_count) or not 1 <= source_count <= 2**53:
        raise ParameterError(
            f"source count must be an integer in [1, 2**53], got {source_count!r}"
        )
    return int(source_count)


# deepest register accepted anywhere: tables and chains grow as 2**K, and
# K=12 already means a 4096-delay table and a chain of up to 4096 levels
MAX_STEP_COUNT = 12


def check_step_count(step_count: int) -> int:
    return check_whole(step_count, "step count", 1, MAX_STEP_COUNT)


def check_mean_pairs(mean_pairs: float) -> float:
    """The mean pair number as a float, which must be positive and finite."""
    return check_real(mean_pairs, "mean pair number", positive=True)
