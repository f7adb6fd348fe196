"""Exact chain solution: transition structure, stationary rates, optimizer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from spdcmux import (
    ChainSpec,
    ConvergenceError,
    ParameterError,
    herald_count_distribution,
    herald_probabilities,
    optimized_power,
    stationary_distribution,
    stationary_rates,
    transition_matrix,
)

# regression pins for the exact chain at 100 sources, multiple 4, 3 steps,
# mean 0.049; solved once to full precision and frozen
PINNED_LACK = 0.018490333528869935
PINNED_MULTI = 0.02385061096094901
PINNED_RELATIVE = 0.024299924672877035
PINNED_MEAN_STORAGE = 2.9164029930868725

# 2000 sources, multiple 16, 10 steps, mean 0.0081: a 1009-level chain near
# critical load; dense GTH agrees to 1e-13, power iteration was 1.6e-4 off
PINNED_DEEP_LACK = 3.0754635173e-10


def _spec(source_count: int, multiple: int, step_count: int, mean: float) -> ChainSpec:
    return ChainSpec.from_mean_pairs(source_count, multiple, step_count, mean)


def test_herald_count_distribution_matches_scipy() -> None:
    for source_count, mean in [(6, 0.2), (50, 0.05), (100, 0.049)]:
        p = herald_probabilities(mean).p_herald
        pmf = herald_count_distribution(source_count, p)
        reference = stats.binom.pmf(np.arange(source_count + 1), source_count, p)
        assert pmf == pytest.approx(reference, rel=1e-10, abs=1e-300)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_herald_count_distribution_large_bank() -> None:
    # math.comb(2000, h) times a float overflows, and p**h goes subnormal
    # in the far tail of a 500-source bank; neither may reach the pmf
    pmf = herald_count_distribution(2000, herald_probabilities(0.0025).p_herald)
    assert np.all(np.isfinite(pmf))
    assert abs(pmf.sum() - 1.0) <= 4 * np.finfo(float).eps
    rates = stationary_rates(_spec(2000, 4, 3, 0.0025))
    assert all(math.isfinite(value) for value in rates)

    p = herald_probabilities(0.03).p_herald
    exact = math.comb(500, 211) * Fraction(p) ** 211 * (1 - Fraction(p)) ** 289
    assert herald_count_distribution(500, p)[211] == pytest.approx(
        float(exact), rel=1e-10, abs=0.0
    )


def test_herald_count_distribution_validation() -> None:
    with pytest.raises(ParameterError):
        herald_count_distribution(0, 0.5)
    with pytest.raises(ParameterError):
        herald_count_distribution(5, 0.0)
    with pytest.raises(ParameterError):
        herald_count_distribution(5, 1.0)


def test_transition_matrix_rows_are_stochastic() -> None:
    for spec in [_spec(10, 2, 3, 0.1), _spec(100, 4, 3, 0.049), _spec(5, 3, 2, 0.3)]:
        matrix = transition_matrix(spec)
        assert matrix.shape == (spec.capacity + 1, spec.capacity + 1)
        assert matrix.sum(axis=1) == pytest.approx(np.ones(spec.capacity + 1), abs=1e-12)
        assert np.all(matrix >= 0.0)


def test_transition_matrix_hand_case() -> None:
    # two sources, single-photon train, capacity one; from level 0 any
    # single herald is emitted and only a double can store, from level 1
    # the stored photon is emitted and any herald at all re-stocks
    spec = _spec(2, 1, 1, 0.3)
    p = spec.p_herald
    b0, b1, b2 = (1 - p) ** 2, 2 * p * (1 - p), p**2
    matrix = transition_matrix(spec)
    assert matrix[0, 0] == pytest.approx(b0 + b1, rel=1e-12)
    assert matrix[0, 1] == pytest.approx(b2, rel=1e-12)
    assert matrix[1, 0] == pytest.approx(b0, rel=1e-12)
    assert matrix[1, 1] == pytest.approx(b1 + b2, rel=1e-12)


def test_stationary_distribution_known_two_state_chain() -> None:
    matrix = np.array([[0.9, 0.1], [0.4, 0.6]])
    pi = stationary_distribution(matrix)
    assert pi == pytest.approx([0.8, 0.2], abs=1e-10)
    assert np.array_equal(matrix, [[0.9, 0.1], [0.4, 0.6]])


def test_stationary_distribution_is_a_fixed_point() -> None:
    matrix = transition_matrix(_spec(100, 4, 3, 0.049))
    pi = stationary_distribution(matrix)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi >= 0.0)
    assert np.max(np.abs(pi @ matrix - pi)) < 1e-10


def test_stationary_distribution_failure_modes() -> None:
    with pytest.raises(ParameterError):
        stationary_distribution(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        stationary_distribution(np.ones((0, 0)))


def _exact_stationary_rates(spec: ChainSpec) -> tuple[Fraction, Fraction]:
    """Lack rate and mean storage in exact rationals, from the float pmf on.

    Builds the chain with the per-herald loop and solves it by plain
    elimination with no floating point at all.
    """
    pmf = [Fraction(w) for w in herald_count_distribution(spec.source_count, spec.p_herald)]
    size = spec.capacity + 1
    matrix = [[Fraction(0)] * size for _ in range(size)]
    lack = [Fraction(0)] * size
    for level in range(size):
        for heralds, weight in enumerate(pmf):
            filled = min(spec.multiple, level + heralds)
            matrix[level][min(spec.capacity, level + heralds - filled)] += weight
            lack[level] += weight * (spec.multiple - filled)
    for k in range(size - 1, 0, -1):
        exit_rate = sum(matrix[k][:k])
        for i in range(k):
            matrix[i][k] /= exit_rate
            if matrix[i][k]:
                for j in range(k):
                    matrix[i][j] += matrix[i][k] * matrix[k][j]
    pi = [Fraction(1)]
    for k in range(1, size):
        pi.append(sum(pi[i] * matrix[i][k] for i in range(k)))
    total = sum(pi)
    lack_rate = sum(p * c for p, c in zip(pi, lack)) / (total * spec.multiple)
    mean_storage = sum(level * p for level, p in enumerate(pi)) / total
    return lack_rate, mean_storage


def test_stationary_rates_match_exact_rationals() -> None:
    for args in [(20, 4, 4, 0.3), (12, 2, 4, 0.25), (30, 4, 5, 0.2)]:
        spec = _spec(*args)
        lack_rate, mean_storage = _exact_stationary_rates(spec)
        rates = stationary_rates(spec)
        assert rates.lack_rate == pytest.approx(float(lack_rate), rel=1e-12, abs=0.0)
        assert rates.mean_storage == pytest.approx(float(mean_storage), rel=1e-12, abs=0.0)
    assert rates.lack_rate == pytest.approx(3.398435903e-11, rel=1e-9, abs=0.0)


def test_stationary_rates_at_numeric_extremes() -> None:
    # at mean 5 the chance of fewer than 4 heralds among 2000 sources
    # underflows, so the full level has no way down and holds all the mass
    rates = stationary_rates(_spec(2000, 4, 3, 5.0))
    assert rates.lack_rate == 0.0
    assert rates.mean_storage == 4.0

    # the empty level has probability ~8e-378, below double range:
    # back-substitution must rescale rather than overflow
    pi = stationary_distribution(transition_matrix(_spec(60, 2, 10, 0.05)))
    assert np.all(np.isfinite(pi))
    assert np.all(pi >= 0.0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    rates = stationary_rates(_spec(2000, 16, 10, 0.0081))
    assert rates.lack_rate == pytest.approx(PINNED_DEEP_LACK, rel=1e-9, abs=0.0)


def test_rates_with_no_storage_reduce_to_binomial_expectation() -> None:
    # full-span train: zero capacity, one state, lack is a pure binomial sum
    spec = _spec(6, 4, 2, 0.3)
    assert spec.capacity == 0
    h = np.arange(7)
    pmf = stats.binom.pmf(h, 6, spec.p_herald)
    expected_lack = float(pmf @ (4 - np.minimum(4, h))) / 4
    rates = stationary_rates(spec)
    assert rates.lack_rate == pytest.approx(expected_lack, rel=1e-10)
    assert rates.multi_rate == pytest.approx(
        (spec.p_multi / spec.p_herald) * (1 - expected_lack), rel=1e-10
    )
    assert rates.mean_storage == 0.0


def test_single_source_never_stores() -> None:
    # one source cannot outrun a single-photon train, so storage stays
    # empty and the lack rate is just the no-click probability
    for step_count in (1, 3):
        spec = _spec(1, 1, step_count, 0.4)
        rates = stationary_rates(spec)
        assert rates.lack_rate == pytest.approx(math.exp(-0.4), rel=1e-10)
        assert rates.multi_rate == pytest.approx(spec.p_multi, rel=1e-10)
        assert rates.mean_storage == 0.0
    # nor can three sources outrun an eight-photon train: every stored
    # level is transient and gets exactly zero
    assert stationary_rates(_spec(3, 8, 4, 0.4)).mean_storage == 0.0


def test_pinned_rates_for_reference_bank() -> None:
    rates = stationary_rates(_spec(100, 4, 3, 0.049))
    assert rates.lack_rate == pytest.approx(PINNED_LACK, rel=1e-9)
    assert rates.multi_rate == pytest.approx(PINNED_MULTI, rel=1e-9)
    assert rates.relative_multi_rate == pytest.approx(PINNED_RELATIVE, rel=1e-12)
    assert rates.mean_storage == pytest.approx(PINNED_MEAN_STORAGE, rel=1e-9)


def test_relative_rate_equals_herald_tail_ratio() -> None:
    for mean in (0.02, 0.049, 0.15):
        spec = _spec(40, 4, 3, mean)
        probs = herald_probabilities(mean)
        assert stationary_rates(spec).relative_multi_rate == pytest.approx(
            probs.p_multi / probs.p_herald, rel=1e-12
        )


def test_lack_falls_and_multi_rises_with_pump() -> None:
    means = [0.01, 0.03, 0.05, 0.08, 0.12]
    rates = [stationary_rates(_spec(100, 4, 3, mean)) for mean in means]
    lacks = [r.lack_rate for r in rates]
    multis = [r.multi_rate for r in rates]
    assert lacks == sorted(lacks, reverse=True)
    assert multis == sorted(multis)


def test_more_storage_means_fewer_lacks() -> None:
    lacks = [
        stationary_rates(_spec(50, 4, step_count, 0.05)).lack_rate
        for step_count in (2, 3, 4)
    ]
    assert lacks[0] > lacks[1] > lacks[2]
    for step_count in (2, 3, 4):
        rates = stationary_rates(_spec(50, 4, step_count, 0.05))
        assert 0.0 <= rates.mean_storage <= 2**step_count - 4


def test_chain_spec_validation() -> None:
    with pytest.raises(ParameterError):
        ChainSpec(source_count=0, multiple=1, capacity=1, p_herald=0.1, p_multi=0.01)
    with pytest.raises(ParameterError):
        ChainSpec(source_count=5, multiple=1, capacity=-1, p_herald=0.1, p_multi=0.01)
    with pytest.raises(ParameterError):
        ChainSpec(source_count=5, multiple=1, capacity=2**12, p_herald=0.1, p_multi=0.01)
    with pytest.raises(ParameterError):
        ChainSpec(source_count=5, multiple=1, capacity=1, p_herald=1.0, p_multi=0.01)
    with pytest.raises(ParameterError):
        ChainSpec(source_count=5, multiple=1, capacity=1, p_herald=0.1, p_multi=0.2)


def test_chain_spec_from_mean_pairs_wiring() -> None:
    spec = _spec(100, 4, 3, 0.049)
    probs = herald_probabilities(0.049)
    assert spec.capacity == 4
    assert spec.p_herald == probs.p_herald
    assert spec.p_multi == probs.p_multi


def test_optimized_power_balances_the_two_error_rates() -> None:
    mean = optimized_power(100, 4, 3)
    rates = stationary_rates(_spec(100, 4, 3, mean))
    assert abs(rates.lack_rate - rates.multi_rate) < 1e-6
    assert mean == pytest.approx(0.0477879, abs=5e-5)


def test_optimized_power_matches_closed_form_for_single_source() -> None:
    # with one source and a single-photon train the balance condition is
    # exp(-n) * (2 + n) = 1, whose root sits above one pair per cycle;
    # this also exercises the bracket growing past its initial upper end
    root = brentq(lambda n: math.exp(-n) * (2.0 + n) - 1.0, 0.5, 3.0, xtol=1e-12)
    assert optimized_power(1, 1, 1) == pytest.approx(root, abs=1e-4)
    assert optimized_power(1, 1, 3) == pytest.approx(root, abs=1e-4)


def test_optimized_power_failure_modes() -> None:
    # one source feeding a two-photon train lacks at least half the slots
    # at any pump, so the curves never cross
    with pytest.raises(ConvergenceError):
        optimized_power(1, 2, 1)
    with pytest.raises(ParameterError):
        optimized_power(100, 4, 3, tolerance=0.0)
