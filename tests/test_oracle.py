"""Exact chain solution: transition structure, stationary rates, optimizer."""

import decimal
import gc
import itertools
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from spdcmux import (
    BoundaryMode,
    ConvergenceError,
    HeraldProbabilities,
    OracleRates,
    ParameterError,
    SimConfig,
    apply_feedback,
    herald_count_distribution,
    herald_probabilities,
    optimized_power,
    oracle,
    plan_cycle,
    stationary_distribution,
    stationary_rates,
)
from spdcmux.oracle import MAX_CONSTRAINED_STEP_COUNT

# regression pins for the exact chain at 100 sources, multiple 4, 3 steps,
# mean 0.049; solved once to full precision and frozen
PINNED_LACK = 0.018490333528869935
PINNED_MULTI = 0.02385061096094901
PINNED_RELATIVE = 0.024299924672877035
PINNED_MEAN_STORAGE = 2.9164029930868725

# 2000 sources, multiple 16, 10 steps, mean 0.0081: a 1009-level chain near
# critical load; dense GTH agrees to 1e-13, power iteration was 1.6e-4 off
PINNED_DEEP_LACK = 3.0754635173e-10


def _spec(source_count: int, multiple: int, step_count: int, mean: float) -> SimConfig:
    return SimConfig(
        source_count=source_count,
        multiple=multiple,
        mean_pairs=mean,
        step_count=step_count,
        boundary="unconstrained",
    )


def test_herald_count_distribution_matches_scipy() -> None:
    banks = [(6, 0.2), (50, 0.05), (100, 0.049), (500, 0.03), (1000, 0.7), (2000, 0.0081)]
    for source_count, mean in banks:
        p = herald_probabilities(mean).p_herald
        pmf = herald_count_distribution(source_count, mean)
        reference = stats.binom.pmf(np.arange(source_count + 1), source_count, p)
        assert pmf == pytest.approx(reference, rel=1e-10, abs=1e-300)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        # summed out from the mode, no large log terms cancel
        body = reference > 1e-30
        assert pmf[body] == pytest.approx(reference[body], rel=5e-13, abs=0.0)


def test_herald_count_distribution_large_bank() -> None:
    # math.comb(2000, h) times a float overflows, and p**h goes subnormal
    # in the far tail of a 500-source bank; neither may reach the pmf
    pmf = herald_count_distribution(2000, 0.0025)
    assert np.all(np.isfinite(pmf))
    assert abs(pmf.sum() - 1.0) <= 4 * np.finfo(float).eps
    rates = stationary_rates(_spec(2000, 4, 3, 0.0025))
    assert all(math.isfinite(value) for value in rates)

    p = herald_probabilities(0.03).p_herald
    exact = math.comb(500, 211) * Fraction(p) ** 211 * (1 - Fraction(p)) ** 289
    assert herald_count_distribution(500, 0.03)[211] == pytest.approx(
        float(exact), rel=1e-10, abs=0.0
    )
    # past a pump of ~1e305 / S the far terms are exactly zero, with no overflow
    assert herald_count_distribution(2000, 1e306).tolist() == [0.0] * 2000 + [1.0]


def test_herald_count_distribution_validation() -> None:
    bad = ((0, 0.5), ("3", 0.5), (5, 0.0), (5, -1.0), (5, math.inf), (5, "0.5"))
    for source_count, mean in bad:
        with pytest.raises(ParameterError):
            herald_count_distribution(source_count, mean)


def transition_matrix(config: SimConfig) -> np.ndarray:
    """One-cycle transition matrix of the storage level, the oracle's row
    blocks stacked, each band at its first column."""
    blocks, *_ = oracle._chain_tables(config)
    return np.concatenate([_dense(block, config.capacity + 1) for block in blocks])


def _dense(block: tuple[int, np.ndarray], size: int) -> np.ndarray:
    """The rows of a band ``(first, rows)``, ``size`` levels wide."""
    first, rows = block
    dense = np.zeros((len(rows), size))
    dense[:, first:first + rows.shape[1]] = rows
    return dense


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
    p = herald_probabilities(0.3).p_herald
    b0, b1, b2 = (1 - p) ** 2, 2 * p * (1 - p), p**2
    matrix = transition_matrix(spec)
    assert matrix[0, 0] == pytest.approx(b0 + b1, rel=1e-12)
    assert matrix[0, 1] == pytest.approx(b2, rel=1e-12)
    assert matrix[1, 0] == pytest.approx(b0, rel=1e-12)
    assert matrix[1, 1] == pytest.approx(b1 + b2, rel=1e-12)


def _lindley_row(config: SimConfig, level: int) -> np.ndarray:
    """Row ``level`` of a bank with no edge rows in closed form: the next
    level is min(max(level + c - m, 0), capacity) for c heralds, so P[l, j]
    = pmf[j - l + m] with both ends clamped, the clamped sums exact."""
    m, size = config.multiple, config.capacity + 1
    pmf = herald_count_distribution(config.source_count, config.pumps[level])
    heralds = np.arange(size) - level + m
    row = np.where((heralds >= 0) & (heralds < pmf.size), pmf[np.clip(heralds, 0, pmf.size - 1)], 0.0)
    row[0] = math.fsum(pmf[:max(m - level + 1, 0)])
    row[-1] = math.fsum(pmf[max(size - 1 - level + m, 0):]) if size > 1 else 1.0
    return row


def test_chain_rows_arrive_as_bands() -> None:
    # a row from level l reaches only levels l - m .. l + S, so a block of
    # levels low .. high-1 starts at or above low - m and is at most m + S +
    # (high - low) levels wide; without edge rows its rows are the Lindley rows
    rng = np.random.default_rng(25)
    narrower = 0
    for index in range(48):
        constrained = index % 2 == 0
        steps = int(rng.integers(1, (MAX_CONSTRAINED_STEP_COUNT if constrained else 12) + 1))
        sources = int(rng.integers(1, 41))
        multiple = int(rng.integers(1, 2**steps + 1))
        herald = min(float(rng.uniform(0.2, 1.5)) * multiple / sources, 0.9)
        config = SimConfig(
            source_count=sources,
            multiple=multiple,
            mean_pairs=-math.log1p(-herald),
            step_count=steps,
            boundary="constrained" if constrained else "unconstrained",
            feedback=("off", "boost", "turbo_boost")[index // 2 % 3],
            feedback_strength=round(float(rng.uniform(0.0, 2.0)), 2),
        )
        size = config.capacity + 1
        blocks, *_ = oracle._chain_tables(config)
        low = 0
        for first, rows in blocks:
            high = low + len(rows)
            assert first >= low - multiple, config
            assert rows.shape[1] <= min(multiple + sources + high - low, size - first), config
            narrower += rows.shape[1] < size
            if not constrained:
                dense = _dense((first, rows), size)
                expected = np.array([_lindley_row(config, level) for level in range(low, high)])
                assert np.array_equal(dense == 0.0, expected == 0.0), (config, low)
                assert (np.abs(dense - expected) <= 1e-15 * expected).all(), (config, low)
            low = high
        assert low == size
    # the bound has teeth: a builder of whole rows fails it
    assert narrower > 0


def test_solver_rejects_an_all_zero_row_in_a_band() -> None:
    # level 3's band starts at level 2 but holds no entry: an all-zero row
    # reads as dropping to level 0, not to the band's first level
    head = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
    with pytest.raises(ParameterError, match="drops more than 1 levels"):
        oracle._solve_rows([(0, head), (2, np.zeros((1, 2)))], 4, 1)


def _solve_matrix(matrix: np.ndarray) -> np.ndarray:
    """Stationary vector of a hand-made stochastic matrix, solved in one
    block with the band read from the data: the furthest any row drops."""
    width = max(int(oracle._drops(matrix != 0.0, 0).max()), 0)
    return oracle._solve_rows([(0, matrix)], len(matrix), width)


def test_stationary_distribution_known_two_state_chain() -> None:
    matrix = np.array([[0.9, 0.1], [0.4, 0.6]])
    pi = _solve_matrix(matrix)
    assert pi == pytest.approx([0.8, 0.2], abs=1e-10)
    assert np.array_equal(matrix, [[0.9, 0.1], [0.4, 0.6]])


def test_stationary_distribution_is_a_fixed_point() -> None:
    matrix = transition_matrix(_spec(100, 4, 3, 0.049))
    pi = _solve_matrix(matrix)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi >= 0.0)
    assert np.max(np.abs(pi @ matrix - pi)) < 1e-10


def test_stationary_distribution_ceiling_zeroes_the_levels_above() -> None:
    # level 1 has no way up, so level 2 is transient and gets exactly zero;
    # levels 0 and 1 balance 0.5 pi[0] = 0.3 pi[1]
    matrix = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]])
    pi = _solve_matrix(matrix)
    assert pi[2] == 0.0
    assert pi[:2] == pytest.approx([0.375, 0.625], rel=1e-15)


def test_stationary_distribution_with_a_subnormal_way_up() -> None:
    # level 0 leaves with probability 1e-310 and level 1 drops back with
    # probability 0.5: scaling row 0 by its exit rate stays finite, and
    # back-substitution shrinks the levels above rather than overflow
    matrix = np.array([[1.0, 1e-310, 0.0], [0.5, 0.25, 0.25], [0.0, 0.5, 0.5]])
    with np.errstate(all="raise"):
        pi = _solve_matrix(matrix)
    assert np.all(np.isfinite(pi))
    assert pi.tolist() == [1.0, 2e-310, 1e-310]


def test_stationary_distribution_of_a_dense_random_matrix() -> None:
    # every row can drop to level 0, so the band is the whole matrix
    matrix = np.random.default_rng(5).random((40, 40))
    matrix /= matrix.sum(axis=1, keepdims=True)
    pi = _solve_matrix(matrix)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(pi @ matrix - pi)) < 1e-12
    # the rows may arrive in blocks of any size: one row at a time gives
    # the same bits
    rows = ((0, matrix[level:level + 1]) for level in range(40))
    assert np.array_equal(oracle._solve_rows(rows, 40, 39), pi)


def test_solver_rejects_a_row_outside_the_band() -> None:
    # row 2 drops two levels, one more than the declared band
    matrix = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(ParameterError, match="drops more than 1 levels"):
        oracle._solve_rows(((0, matrix[level:level + 1]) for level in range(3)), 3, 1)
    # read from the data, the band is 2 and the chain solves
    assert _solve_matrix(matrix) == pytest.approx([0.5, 0.25, 0.25], rel=1e-15)


def _rank_one_solve_rows(blocks, size: int, width: int) -> np.ndarray:
    """Right-looking GTH reduction, the reference for ``oracle._solve_rows``:
    eliminating level l folds its way up, divided by its exit rate, into
    rows l+1 .. l+width as a rank-one update of the band, and stops at the
    first level with no way up.  Rows must keep to the band."""
    width = min(width, size - 1)
    exit_rate = np.zeros(size)
    below = np.zeros((size, width))  # below[l, d] = P'[l + 1 + d, l]
    window = np.empty((0, size))  # rows done .. read - 1, folded so far
    done = read = 0
    ceiling = None
    for block in blocks:
        rows = _dense(block, size)
        read += len(rows)
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
        if ceiling is not None:
            break
        window = window[ready - done:]
        done = ready
    pi = np.zeros(size)
    pi[ceiling] = 1.0
    for level in range(ceiling - 1, -1, -1):
        inflow = pi[level + 1:level + 1 + width] @ below[level, :min(width, size - 1 - level)]
        if inflow > exit_rate[level]:
            pi[level + 1:ceiling + 1] *= exit_rate[level] / inflow
            pi[level] = 1.0
        else:
            pi[level] = inflow / exit_rate[level]
    return pi / pi.sum()


def _assert_same_vector(pi: np.ndarray, reference: np.ndarray) -> None:
    """Zeros in the same places, the other entries within 1e-12 relative."""
    assert np.array_equal(pi == 0.0, reference == 0.0)
    nonzero = reference != 0.0
    assert np.allclose(pi[nonzero], reference[nonzero], rtol=1e-12, atol=0.0)


def _banded_chain(rng: np.random.Generator, size: int, width: int) -> np.ndarray:
    """A stochastic matrix whose rows drop at most ``width`` levels, each
    reaching a random level at or above its own, so the reach shrinks from
    some rows to the next and rows end in zeros; entries are scattered zeros."""
    matrix = np.zeros((size, size))
    for level in range(size):
        low = max(level - width, 0)
        high = int(rng.integers(level, size)) + 1
        row = rng.random(high - low) * (rng.random(high - low) < 0.7)
        if not row.any():
            row[level - low] = 1.0
        matrix[level, low:high] = row / row.sum()
    return matrix


def _blocks(matrix: np.ndarray, rng: np.random.Generator):
    """The rows of ``matrix`` in level order, in blocks of random sizes."""
    low = 0
    while low < len(matrix):
        high = low + int(rng.integers(1, 8))
        yield 0, matrix[low:high]
        low = high


def test_solver_matches_the_rank_one_reduction_on_banded_chains() -> None:
    rng = np.random.default_rng(22)
    reward_rng = np.random.default_rng(24)  # leaves the chains as they were
    for _ in range(200):
        size = int(rng.integers(2, 40))
        width = int(rng.integers(1, size))
        matrix = _banded_chain(rng, size, width)
        if rng.random() < 0.3:
            # a subnormal way up from a level below the top
            level = int(rng.integers(0, size - 1))
            matrix[level, level + 1:] = 0.0
            matrix[level, int(rng.integers(level + 1, size))] = 1e-310
        reference = _rank_one_solve_rows([(0, matrix)], size, width)
        # dividing by a subnormal exit rate neither overflows nor makes a nan
        rewards = reward_rng.random((size, 3))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            pi = oracle._solve_rows([(0, matrix)], size, width)
            # the reward sums shrink past a subnormal way up rather than overflow
            means = oracle._solve_rows(_blocks(matrix, reward_rng), size, width, rewards)
        _assert_same_vector(pi, reference)
        assert means == pytest.approx(reference @ rewards, rel=1e-12, abs=0.0)
        # the bits do not depend on how the rows arrive
        assert np.array_equal(oracle._solve_rows(_blocks(matrix, rng), size, width), pi)


def _solve_with(solver, config: SimConfig) -> tuple[OracleRates, np.ndarray]:
    """``stationary_rates(config)`` with its stationary means from
    ``solver``, and the stationary vector ``solver`` returns.  The means
    are pi @ rewards, except that ``oracle._solve_rows`` itself gives them
    by its reward reduction."""
    found = []
    production = oracle._solve_rows

    def recording(blocks, size: int, width: int, rewards: np.ndarray, top) -> np.ndarray:
        blocks = list(blocks)  # fills the rewards of every level
        found.append(solver(blocks, size, width))
        if solver is production:
            return production(blocks, size, width, rewards, top)
        return found[-1] @ rewards

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_solve_rows", recording)
        rates = stationary_rates(config)
    return rates, found[0]


def test_solver_matches_the_rank_one_reduction_on_random_banks() -> None:
    rng = np.random.default_rng(2212)
    banks = []
    for index in range(64):
        constrained = index % 2 == 0
        steps = int(rng.integers(1, (MAX_CONSTRAINED_STEP_COUNT if constrained else 9) + 1))
        sources = int(rng.integers(1, 400))
        multiple = int(rng.integers(1, 2**steps + 1))
        # from light to past the load the train can take
        herald = min(float(rng.uniform(0.2, 1.5)) * multiple / sources, 0.9)
        banks.append(SimConfig(
            source_count=sources,
            multiple=multiple,
            mean_pairs=-math.log1p(-herald),
            step_count=steps,
            boundary="constrained" if constrained else "unconstrained",
            feedback=("off", "boost", "turbo_boost")[index % 3],
            feedback_strength=round(float(rng.uniform(0.0, 2.0)), 2),
        ))
    deep = _spec(2000, 16, 12, 0.0081)
    # a bank whose ceiling is level 0 stores nothing
    banks += [deep, replace(deep, feedback="turbo_boost"), _spec(3, 4, 12, 0.4)]
    for config in banks:
        rates, pi = _solve_with(oracle._solve_rows, config)
        reference_rates, reference = _solve_with(_rank_one_solve_rows, config)
        _assert_same_vector(pi, reference)
        # the public pi is the production one, and its mean level is the
        # mean storage the reward sums give, 0.0 both where the ceiling is level 0
        assert np.array_equal(stationary_distribution(config), pi), config
        storage = float(pi @ np.arange(config.capacity + 1))
        assert storage == pytest.approx(rates.mean_storage, rel=1e-12, abs=0.0), config
        for field, value in rates._asdict().items():
            expected = getattr(reference_rates, field)
            if math.isnan(expected):
                assert math.isnan(value), (config, field)
            else:
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (config, field)


def test_reward_sums_match_the_stationary_vector_where_they_shrink() -> None:
    # pi falls from its peak by more than 2**600 on the first three banks, so
    # the reward sums are scaled down on their way up to the ceiling; on the
    # faint third one a mean storage of 2.3e-279 keeps its digits only if the
    # storage column is not scaled as the steps are.  The last bank has its
    # ceiling at level 0, where no level is eliminated.
    banks = (_spec(2000, 16, 12, 0.002025), _spec(200, 16, 10, 0.01), _spec(240, 46, 7, 1e-7),
             _spec(3, 4, 12, 0.4))
    for config in banks:
        blocks, rewards, top = oracle._chain_tables(config)
        blocks = list(blocks)  # fills the rewards of every level
        size, width = config.capacity + 1, config.multiple
        pi = oracle._solve_rows(blocks, size, width)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            means = oracle._solve_rows(blocks, size, width, rewards, top)
        assert means == pytest.approx(pi @ rewards, rel=1e-12, abs=0.0), config
        if not pi[1:].any():
            assert means[-1] == 0.0 and stationary_rates(config).mean_storage == 0.0
        else:
            assert pi[pi > 0.0].min() < 2.0**-600 * pi.max(), config


def _long_double_means(blocks, size: int, width: int, rewards: np.ndarray, top=None) -> np.ndarray:
    """pi @ ``rewards`` by right-looking GTH on the dense matrix in
    ``np.longdouble``, every level eliminated: the reference for the
    solver's repeating stretch.  ``top`` is not read."""
    matrix = np.concatenate([_dense(block, size) for block in blocks]).astype(np.longdouble)
    exit_rate = np.zeros(size, dtype=np.longdouble)
    ceiling = size - 1
    for level in range(size - 1):
        up = matrix[level, level + 1:]
        exit_rate[level] = up.sum()
        if exit_rate[level] == 0.0:
            ceiling = level
            break
        column = matrix[level + 1:level + 1 + width, level]
        matrix[level + 1:level + 1 + width, level + 1:] += np.outer(column, up / exit_rate[level])
    pi = np.zeros(size, dtype=np.longdouble)
    pi[ceiling] = 1.0
    for level in range(ceiling - 1, -1, -1):
        inflow = pi[level + 1:level + 1 + width] @ matrix[level + 1:level + 1 + width, level]
        pi[level] = inflow / exit_rate[level]
    return (pi @ rewards.astype(np.longdouble) / pi.sum()).astype(float)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="np.longdouble is not wider than float64 here"
)
def test_repeating_stretch_matches_a_long_double_reference(monkeypatch: pytest.MonkeyPatch) -> None:
    # the benchmark's K=8 bank near its crossing and its K=10 bank at 0.95
    # load, then random banks with no edge rows, unfed or under boost
    rng = np.random.default_rng(27)
    banks = [_spec(500, 16, 8, 0.0320056), _spec(200, 16, 10, 0.07904320734045289)]
    while len(banks) < 22:
        steps = int(rng.integers(5, 10))
        multiple = int(rng.integers(1, 33))
        if 2**steps - multiple > 500:
            continue
        sources = int(rng.integers(multiple + 1, 400))
        herald = min(float(rng.uniform(0.5, 1.5)) * multiple / sources, 0.9)
        banks.append(SimConfig(
            source_count=sources,
            multiple=multiple,
            mean_pairs=-math.log1p(-herald),
            step_count=steps,
            boundary="unconstrained",
            feedback=("off", "boost")[len(banks) % 2],
            feedback_strength=round(float(rng.uniform(0.0, 2.0)), 2),
        ))
    stretches = []
    climb = oracle._climb
    monkeypatch.setattr(oracle, "_climb", lambda *args: stretches.append(args) or climb(*args))
    for config in banks:
        rates = stationary_rates(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_solve_rows", _long_double_means)
            reference = stationary_rates(config)
        for field, value in rates._asdict().items():
            expected = getattr(reference, field)
            if math.isnan(expected):
                assert math.isnan(value), (config, field)
            else:
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0), (config, field)
    # both benchmark banks and most of the random ones stop eliminating early
    assert len(stretches) >= 12


def test_repeating_rows_leave_most_blocks_unbuilt(monkeypatch: pytest.MonkeyPatch) -> None:
    # the K=10 bank at 0.95 load repeats its rows from level m on, so its
    # solve stops pulling blocks long before the top; a pump that changes
    # with the level and a constrained bank repeat no rows and pull them all
    pulled = []
    real = oracle._chain_tables

    def counting(config: SimConfig):
        blocks, *vectors = real(config)
        return (pulled.append(block) or block for block in blocks), *vectors

    monkeypatch.setattr(oracle, "_chain_tables", counting)
    deep = _spec(200, 16, 10, 0.07904320734045289)
    constrained = SimConfig(source_count=60, multiple=8, mean_pairs=0.15, step_count=5)
    for config, unbuilt in ((deep, True), (replace(deep, feedback="turbo_boost"), False),
                            (constrained, False)):
        pulled.clear()
        stationary_rates(config)
        total = sum(1 for _ in real(config)[0])
        if unbuilt:
            assert 4 * len(pulled) < total, (config, len(pulled), total)
        else:
            assert len(pulled) == total, (config, len(pulled), total)


def _level_pump(config: SimConfig, level: int) -> HeraldProbabilities:
    return herald_probabilities(apply_feedback(config, level))


def _herald_count_outcomes(config: SimConfig, level: int):
    """(weight, next level, lacks, kept) per herald count of an unconstrained
    bank, with weights taken exactly from the float pmf."""
    m, capacity = config.multiple, config.capacity
    pmf = herald_count_distribution(config.source_count, apply_feedback(config, level))
    for heralds, weight in enumerate(pmf):
        filled = min(m, level + heralds)
        kept = min(heralds, m + capacity - level)
        yield Fraction(weight), min(capacity, level + heralds - filled), m - filled, kept


def _click_pattern_outcomes(config: SimConfig, level: int):
    """(weight, next level, lacks, kept) per click pattern of a constrained
    bank, each pattern routed by plan_cycle and weighted in exact rationals."""
    p = Fraction(_level_pump(config, level).p_herald)
    for bits in itertools.product((0, 1), repeat=config.source_count):
        clicks = np.array(bits, dtype=bool)
        plan = plan_cycle(config, clicks, level)
        clicked = sum(bits)
        weight = p**clicked * (1 - p) ** (config.source_count - clicked)
        yield weight, plan.storage_level, plan.lack_count, len(plan.assignments)


def _exact_stationary_rates(config: SimConfig, outcomes) -> tuple[Fraction, Fraction, Fraction]:
    """Lack rate, multi rate and mean storage in exact rationals.

    ``outcomes(config, level)`` lists one cycle from ``level``; the chain
    is solved by plain elimination with no floating point at all, and each
    kept photon counts at the relative multi rate of its level's pump.
    """
    size = config.capacity + 1
    matrix = [[Fraction(0)] * size for _ in range(size)]
    lack = [Fraction(0)] * size
    multi = [Fraction(0)] * size
    for level in range(size):
        pump = _level_pump(config, level)
        relative = Fraction(pump.p_multi) / Fraction(pump.p_herald)
        for weight, next_level, lacks, kept in outcomes(config, level):
            matrix[level][next_level] += weight
            lack[level] += weight * lacks
            multi[level] += weight * kept * relative
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
    total = sum(pi) * config.multiple
    lack_rate = sum(p * c for p, c in zip(pi, lack)) / total
    multi_rate = sum(p * c for p, c in zip(pi, multi)) / total
    mean_storage = sum(level * p for level, p in enumerate(pi)) * config.multiple / total
    return lack_rate, multi_rate, mean_storage


def _assert_matches_exact(config: SimConfig, outcomes) -> OracleRates:
    lack_rate, multi_rate, mean_storage = _exact_stationary_rates(config, outcomes)
    rates = stationary_rates(config)
    assert rates.lack_rate == pytest.approx(float(lack_rate), rel=1e-12, abs=0.0)
    assert rates.multi_rate == pytest.approx(float(multi_rate), rel=1e-12, abs=0.0)
    assert rates.mean_storage == pytest.approx(float(mean_storage), rel=1e-12, abs=0.0)
    return rates


def test_stationary_rates_match_exact_rationals() -> None:
    for args in [(20, 4, 4, 0.3), (12, 2, 4, 0.25), (30, 4, 5, 0.2)]:
        rates = _assert_matches_exact(_spec(*args), _herald_count_outcomes)
    assert rates.lack_rate == pytest.approx(3.398435903e-11, rel=1e-9, abs=0.0)


def test_constrained_and_feedback_rates_match_exact_rationals() -> None:
    # a constrained bank with interior rows, every one of its 2**9 click
    # patterns routed by plan_cycle
    constrained = SimConfig(source_count=9, multiple=4, mean_pairs=0.3, step_count=3)
    _assert_matches_exact(constrained, _click_pattern_outcomes)
    # a pump that changes with every storage level
    turbo = replace(_spec(20, 4, 3, 0.1), feedback="turbo_boost", feedback_strength=1.5)
    _assert_matches_exact(turbo, _herald_count_outcomes)
    # both at once, in a bank too short to have interior rows
    boosted = SimConfig(
        source_count=7, multiple=9, mean_pairs=0.4, step_count=4, feedback="boost"
    )
    _assert_matches_exact(boosted, _click_pattern_outcomes)


def test_kept_photon_multi_rate_identity() -> None:
    # with a fixed pump every kept photon leaves at one relative multi
    # rate, and in the steady state kept photons equal filled slots
    for boundary in ("constrained", "unconstrained"):
        for args in [(100, 4, 3, 0.049), (11, 4, 3, 0.25), (30, 8, 4, 0.2), (9, 4, 3, 0.3)]:
            config = replace(_spec(*args), boundary=boundary)
            probs = herald_probabilities(config.mean_pairs)
            relative = probs.p_multi / probs.p_herald
            rates = stationary_rates(config)
            assert abs(rates.multi_rate - relative * (1.0 - rates.lack_rate)) <= 1e-15
            assert abs(rates.fill_rate - (1.0 - rates.lack_rate)) <= 1e-15
            assert rates.relative_multi_rate == pytest.approx(relative, rel=1e-12)
            assert rates.mean_heralds == pytest.approx(
                config.source_count * probs.p_herald, rel=1e-12
            )


def _edge_rows(config: SimConfig) -> list[int]:
    """Rows whose click bits the walk tables keep."""
    s, k = config.source_count, config.step_count
    if config.boundary is BoundaryMode.UNCONSTRAINED:
        return []
    if s < 2 * k:
        return list(range(1, s + 1))
    return [*range(1, k + 1), *range(s - k + 1, s + 1)]


def _brute_force_outcomes(config: SimConfig) -> tuple[Counter, Counter, Counter, Counter]:
    """Click patterns per (level, interior clicks, edge clicks, next level),
    and their summed lacks, kept photons and discards per (level, interior
    clicks, edge clicks), one plan_cycle walk per edge pattern and interior
    count.

    The interior clicks sit on randomly chosen rows (the only choice when
    there is at most one interior row).  Counts at or past the number of
    open targets must all give one outcome, and count once; each click past
    the targets is one more discard, so discards are tallied as at the
    number of targets.
    """
    edge = _edge_rows(config)
    interior = [row for row in range(1, config.source_count + 1) if row not in edge]
    rng = np.random.default_rng(11)
    outcomes: dict[tuple, set] = {}
    for level in range(config.capacity + 1):
        targets = 2**config.step_count - level
        for bits in itertools.product((0, 1), repeat=len(edge)):
            for n in range(len(interior) + 1):
                rows = [row for row, bit in zip(edge, bits) if bit]
                rows += rng.choice(interior, size=n, replace=False).tolist()
                clicks = np.zeros(config.source_count, dtype=bool)
                clicks[np.array(rows, dtype=int) - 1] = True
                plan = plan_cycle(config, clicks, level)
                discards = len(rows) - len(plan.assignments) - max(n - targets, 0)
                outcomes.setdefault((level, min(n, targets), bits), set()).add(
                    (plan.storage_level, plan.lack_count, len(plan.assignments), discards)
                )
    counts, lacks, kept, discarded = Counter(), Counter(), Counter(), Counter()
    for (level, n, bits), found in outcomes.items():
        assert len(found) == 1, (level, n, bits, found)
        next_level, lack, keep, discards = found.pop()
        counts[(level, n, sum(bits), next_level)] += 1
        lacks[(level, n, sum(bits))] += lack
        kept[(level, n, sum(bits))] += keep
        discarded[(level, n, sum(bits))] += discards
    return +counts, +lacks, +kept, +discarded


def _walk_over_no_rows(starts: int, slots: int) -> np.ndarray:
    """The walk table the oracle never builds: from each delay below
    ``starts``, one pattern with no clicks that stores nothing and lacks
    max(``slots`` - start, 0), keeps nothing and discards nothing."""
    table = np.zeros((starts, 1, 4), dtype=np.int64)
    table[:, 0, 0] = 1
    table[:, 0, 1] = np.maximum(slots - np.arange(starts), 0)
    return table


def _walk_table_outcomes(config: SimConfig) -> tuple[Counter, Counter, Counter, Counter]:
    """The same four tallies composed from the oracle's walk tables: the
    joint walk without interior clicks, else the top rows' handover, the
    interior run to its stop s, and the bottom rows' walk from s.  A walk
    the oracle does not build is a walk over no rows."""
    m, span = config.multiple, 2**config.step_count
    edge = _edge_rows(config)
    interior_rows = config.source_count - len(edge)
    walks = [
        _walk_over_no_rows(span - m + 1, m),
        _walk_over_no_rows(span - m + 1, 0),
        _walk_over_no_rows(span + 1, m),
    ]
    if edge:
        built = oracle._walks(config.source_count, config.step_count, m)
        # the top and bottom walks exist where the bank has interior rows
        assert len(built) == (3 if interior_rows else 1)
        walks[:len(built)] = built
    joint, joint_sums = walks[0][..., :-3], walks[0][..., -3:]
    top, top_sums = walks[1][..., :-3], walks[1][..., -3:]
    bottom, bottom_sums = walks[2][..., :-3], walks[2][..., -3:]
    # the clicked top rows passed over: n - i of each pattern
    clicks, filled = np.ogrid[:top.shape[1], :top.shape[2]]
    assert np.array_equal(top_sums[..., 2], (top * (clicks - filled)).sum(axis=2))
    counts, lacks, kept, discarded = Counter(), Counter(), Counter(), Counter()
    for level in range(config.capacity + 1):
        for e, j in itertools.product(*map(range, joint.shape[1:])):
            counts[(level, 0, e, max(level - m, 0) + j)] += int(joint[level, e, j])
        for e in range(joint.shape[1]):
            lacks[(level, 0, e)] += int(joint_sums[level, e, 0])
            kept[(level, 0, e)] += int(joint_sums[level, e, 1])
            discarded[(level, 0, e)] += int(joint_sums[level, e, 2])
        for n in range(1, min(interior_rows, span - level) + 1):
            for t, i in itertools.product(*map(range, top.shape[1:])):
                stop = min(level + i + n, span)
                tops = int(top[level, t, i])
                # the top rows passed over and the run's clicks past the
                # targets they leave are discarded
                run_discards = t - i + max(level + i + n - span, 0)
                for b, j in itertools.product(*map(range, bottom.shape[1:])):
                    patterns = tops * int(bottom[stop, b, j])
                    counts[(level, n, t + b, max(stop - m, 0) + j)] += patterns
                    kept[(level, n, t + b)] += patterns * (stop - level)
                    discarded[(level, n, t + b)] += patterns * run_discards
                for b in range(bottom.shape[1]):
                    lacks[(level, n, t + b)] += tops * int(bottom_sums[stop, b, 0])
                    kept[(level, n, t + b)] += tops * int(bottom_sums[stop, b, 1])
                    discarded[(level, n, t + b)] += tops * int(bottom_sums[stop, b, 2])
    return +counts, +lacks, +kept, +discarded


def test_outcome_table_matches_every_click_pattern() -> None:
    configs = [
        SimConfig(source_count=8, multiple=4, mean_pairs=0.1, step_count=4),  # S = 2K
        SimConfig(source_count=6, multiple=1, mean_pairs=0.1, step_count=3),  # S = 2K
        SimConfig(source_count=9, multiple=6, mean_pairs=0.1, step_count=4),  # S = 2K + 1
        SimConfig(source_count=7, multiple=3, mean_pairs=0.1, step_count=3),  # S = 2K + 1
        SimConfig(source_count=5, multiple=9, mean_pairs=0.1, step_count=4),  # S < 2K
        SimConfig(source_count=3, multiple=2, mean_pairs=0.1, step_count=2),  # S < 2K
        SimConfig(source_count=2, multiple=3, mean_pairs=0.1, step_count=3),  # S < K
        # the deepest constrained chain the oracle accepts
        SimConfig(source_count=11, multiple=8, mean_pairs=0.1, step_count=5),  # S = 2K + 1
        SimConfig(source_count=12, multiple=20, mean_pairs=0.1, step_count=5),  # S = 2K
        SimConfig(source_count=24, multiple=2, mean_pairs=0.1, step_count=3),
        SimConfig(source_count=24, multiple=5, mean_pairs=0.1, step_count=3),
        SimConfig(
            source_count=12, multiple=3, mean_pairs=0.1, step_count=3, boundary="unconstrained"
        ),
    ]
    for config in configs:
        if config.boundary is BoundaryMode.CONSTRAINED:
            joint = oracle._walks(config.source_count, config.step_count, config.multiple)[0]
            assert joint.shape[1] == len(_edge_rows(config)) + 1
        assert _walk_table_outcomes(config) == _brute_force_outcomes(config), config


def test_walks_list_the_edge_rows_of_a_huge_bank() -> None:
    # the 2K edge rows are listed, not found by testing every row, so a
    # bank of 10**12 rows tabulates at once
    start = time.perf_counter()
    joint, top, bottom = oracle._walks(10**12, 3, 4)
    assert time.perf_counter() - start < 1.0
    bank = SimConfig(source_count=10**12, multiple=4, mean_pairs=0.1, step_count=3)
    assert oracle._interior_rows(bank) == 10**12 - 6
    assert joint.shape[1] == 7
    assert top.shape[1] == bottom.shape[1] == 4


def test_outcome_table_is_built_once_per_bank(monkeypatch: pytest.MonkeyPatch) -> None:
    # the walk tables are pump-independent, so a pump sweep reweights one
    # set, and the herald pmf is built once per distinct pump value
    pumps: list[float] = []
    real = oracle.herald_count_distribution

    def recording(source_count: int, mean: float) -> np.ndarray:
        pumps.append(mean)
        return real(source_count, mean)

    monkeypatch.setattr(oracle, "herald_count_distribution", recording)
    oracle._walks.cache_clear()
    config = _spec(100, 4, 3, 0.049)
    for mean in (0.03, 0.049, 0.06):
        stationary_rates(replace(config, mean_pairs=mean, boundary="constrained"))
    assert oracle._walks.cache_info().misses == 1
    assert pumps == [0.03, 0.049, 0.06]
    # a bank with no edge rows builds no walk table at all
    walks = oracle._walks.cache_info()
    stationary_rates(config)
    optimized_power(config)
    assert oracle._walks.cache_info() == walks

    for mode, distinct in (("boost", 2), ("turbo_boost", config.capacity + 1)):
        pumps.clear()
        feedback = replace(config, feedback=mode)
        stationary_rates(feedback)
        expected = {apply_feedback(feedback, level) for level in range(config.capacity + 1)}
        assert len(pumps) == len(expected) == distinct
        assert set(pumps) == expected


def test_walk_tables_do_not_hold_the_matrix() -> None:
    # the cache keeps only pump-independent walks, O(levels 4**K) numbers
    # for a constrained bank and none for an unconstrained one, not one
    # record per nonzero of the matrix
    for config in [
        _spec(200, 16, 10, -math.log1p(-0.95 * 16 / 200)),
        replace(_spec(200, 16, 5, -math.log1p(-0.95 * 16 / 200)), boundary="constrained"),
    ]:
        oracle._walks.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            rates = stationary_rates(config)
            del rates
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] < 2**19, config
        finally:
            tracemalloc.stop()


def test_stationary_rates_never_holds_the_matrix() -> None:
    # rows are built only at the levels they reach and solved as they are
    # built, so a warm call holds a window of band rows, not the
    # (capacity + 1)**2 matrix: 8.1 MB at K=10, 127 MiB at K=12.  The stop
    # rule keeps a level's column only while a later level can compare
    # against it, at most half the levels eliminated.  The stationary
    # distribution eliminates every level and keeps m + 1 numbers a level
    # for back-substitution: its exit rate and its reduced column
    for config, rates_mebibytes, pi_mebibytes in [
        (_spec(200, 16, 10, -math.log1p(-0.95 * 16 / 200)), 1.5, 1.5),
        (_spec(2000, 16, 12, 0.002025), 2, 2),
        (_spec(2000, 256, 12, -math.log1p(-0.95 * 256 / 2000)), 13, 20),
    ]:
        stationary_rates(config)  # fills the caches both solves read
        for solve, mebibytes in (
            (stationary_rates, rates_mebibytes),
            (stationary_distribution, pi_mebibytes),
        ):
            gc.collect()
            tracemalloc.start()
            try:
                solve(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mebibytes * 2**20, (solve.__name__, config)


def test_constrained_chain_depth_is_bounded_before_allocation() -> None:
    deep = SimConfig(
        source_count=100, multiple=4, mean_pairs=0.05, step_count=MAX_CONSTRAINED_STEP_COUNT + 1
    )
    for solve in (stationary_rates, stationary_distribution):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"at most {MAX_CONSTRAINED_STEP_COUNT}"):
                solve(deep)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
    # the unconstrained chain of the same bank has no such limit
    assert stationary_rates(replace(deep, boundary="unconstrained")).lack_rate < 1.0


def test_stationary_rates_at_numeric_extremes() -> None:
    # at mean 5 the chance of fewer than 4 heralds among 2000 sources
    # underflows, so the full level has no way down and holds all the mass
    rates = stationary_rates(_spec(2000, 4, 3, 5.0))
    assert rates.lack_rate == 0.0
    assert rates.mean_storage == 4.0

    # the empty level has probability ~8e-378, below double range:
    # back-substitution must rescale rather than overflow
    pi = stationary_distribution(_spec(60, 2, 10, 0.05))
    assert np.all(np.isfinite(pi))
    assert np.all(pi >= 0.0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    rates = stationary_rates(_spec(2000, 16, 10, 0.0081))
    assert rates.lack_rate == pytest.approx(PINNED_DEEP_LACK, rel=1e-9, abs=0.0)


def test_rates_with_no_storage_reduce_to_binomial_expectation() -> None:
    # full-span train: zero capacity, one state, lack is a pure binomial sum
    spec = _spec(6, 4, 2, 0.3)
    probs = herald_probabilities(0.3)
    assert spec.capacity == 0
    h = np.arange(7)
    pmf = stats.binom.pmf(h, 6, probs.p_herald)
    expected_lack = float(pmf @ (4 - np.minimum(4, h))) / 4
    rates = stationary_rates(spec)
    assert rates.lack_rate == pytest.approx(expected_lack, rel=1e-10)
    assert rates.multi_rate == pytest.approx(
        (probs.p_multi / probs.p_herald) * (1 - expected_lack), rel=1e-10
    )
    assert rates.mean_storage == 0.0


def test_lack_rate_at_large_pumps_matches_decimal_sum() -> None:
    # 40 sources filling a 32-photon train with no storage: the lack rate is
    # the binomial shortfall E[max(32 - H, 0)] / 32, made of dark terms
    # e**-mean that 1 - p_herald keeps only to a few digits and, past a mean
    # of 37.4, not at all; summed here in 60-digit decimals
    spec = _spec(40, 32, 5, 1.0)
    assert spec.capacity == 0
    for mean in (12.0, 20.0, 30.0, 36.0, 40.0, 60.0):
        with decimal.localcontext() as context:
            context.prec = 60
            dark = (-Decimal(mean)).exp()
            shortfall = sum(
                math.comb(40, h) * (1 - dark) ** h * dark ** (40 - h) * (32 - h)
                for h in range(32)
            )
        rates = stationary_rates(replace(spec, mean_pairs=mean))
        assert rates.lack_rate == pytest.approx(float(shortfall / 32), rel=1e-12, abs=0.0), mean


def test_single_source_never_stores() -> None:
    # one source cannot outrun a single-photon train, so storage stays
    # empty and the lack rate is just the no-click probability
    for step_count in (1, 3):
        spec = _spec(1, 1, step_count, 0.4)
        rates = stationary_rates(spec)
        assert rates.lack_rate == pytest.approx(math.exp(-0.4), rel=1e-10)
        assert rates.multi_rate == pytest.approx(herald_probabilities(0.4).p_multi, rel=1e-10)
        assert rates.mean_storage == 0.0
    # nor can three sources outrun an eight- or a four-photon train: every
    # stored level is transient and gets exactly zero
    for spec in (_spec(3, 8, 4, 0.4), _spec(3, 4, 12, 0.4)):
        assert stationary_rates(spec).mean_storage == 0.0


def test_solver_stops_at_the_ceiling(monkeypatch: pytest.MonkeyPatch) -> None:
    # three sources never pass level 0 of a 4-photon train, so the solver
    # reads the first block of rows and none of the other 272
    pulled = []
    real = oracle._chain_tables

    def counting(config: SimConfig):
        blocks, *vectors = real(config)
        return (pulled.append(block) or block for block in blocks), *vectors

    monkeypatch.setattr(oracle, "_chain_tables", counting)
    spec = _spec(3, 4, 12, 0.4)
    rates = stationary_rates(spec)
    assert len(pulled) == 1
    assert rates.mean_storage == 0.0
    # the levels never built add exact zeros: the rates are those of level 0
    assert rates.lack_rate == pytest.approx(
        float(herald_count_distribution(3, 0.4) @ [4, 3, 2, 1]) / 4, rel=1e-14
    )
    assert rates.mean_heralds == pytest.approx(3 * herald_probabilities(0.4).p_herald, rel=1e-15)


def test_kept_and_discarded_photons_add_up_to_the_heralds() -> None:
    # every click is either kept or discarded, at every level and pump
    banks = [
        _spec(40, 4, 3, 0.05),
        _spec(100, 16, 6, 0.3),
        SimConfig(source_count=24, multiple=5, mean_pairs=0.2, step_count=3),
        SimConfig(source_count=9, multiple=6, mean_pairs=0.7, step_count=4),
        SimConfig(source_count=60, multiple=8, mean_pairs=0.08, step_count=4,
                  feedback="turbo_boost"),
        replace(_spec(30, 2, 5, 2.0), feedback="boost"),
        # faint banks, whose kept photons come from the pmf's far tail
        _spec(218, 4, 6, 0.00043465739396145804),
        _spec(208, 6, 4, 6.848873694814347e-05),
    ]
    for config in banks:
        blocks, per_level, _ = oracle._chain_tables(config)
        for _ in blocks:
            pass
        _, kept, discards, heralds, _ = per_level.T[:5]
        assert (heralds > 0.0).all()
        assert (np.abs(kept + discards - heralds) <= 1e-14 * heralds).all(), config


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
    # the chain reads a SimConfig, so these are the bad chains it can still
    # be asked for: no sources, a train longer than the register and a
    # register past the depth limit
    with pytest.raises(ParameterError):
        stationary_rates(_spec(0, 1, 1, 0.1))
    with pytest.raises(ParameterError):
        stationary_rates(_spec(5, 3, 1, 0.1))
    with pytest.raises(ParameterError):
        stationary_rates(_spec(5, 1, 13, 0.1))


def test_chain_pump_wiring() -> None:
    config = _spec(100, 4, 3, 0.049)
    probs = herald_probabilities(0.049)
    rates = stationary_rates(config)
    assert config.capacity == 4
    assert rates.mean_heralds == pytest.approx(100 * probs.p_herald, rel=1e-15)
    assert rates.relative_multi_rate == pytest.approx(probs.p_multi / probs.p_herald, rel=1e-12)
    # boost pumps harder below full storage: more heralds, fewer lacks
    boosted = stationary_rates(replace(config, feedback="boost"))
    assert rates.mean_heralds < boosted.mean_heralds < 100 * herald_probabilities(0.098).p_herald
    assert boosted.lack_rate < rates.lack_rate


def test_optimized_power_balances_the_two_error_rates() -> None:
    mean, rates = optimized_power(_spec(100, 4, 3, 1.0))
    assert rates == stationary_rates(_spec(100, 4, 3, mean))
    assert abs(rates.lack_rate - rates.multi_rate) < 1e-6
    assert mean == pytest.approx(0.0477879, abs=5e-5)


def test_optimized_power_matches_closed_form_for_single_source() -> None:
    # with one source and a single-photon train the balance condition is
    # exp(-n) * (2 + n) = 1, whose root sits above one pair per cycle;
    # this also exercises the bracket growing past its initial upper end
    root = brentq(lambda n: math.exp(-n) * (2.0 + n) - 1.0, 0.5, 3.0, xtol=1e-12)
    assert optimized_power(_spec(1, 1, 1, 1.0))[0] == pytest.approx(root, abs=1e-4)
    assert optimized_power(_spec(1, 1, 3, 1.0))[0] == pytest.approx(root, abs=1e-4)


def test_optimized_power_failure_modes() -> None:
    # one source feeding a two-photon train lacks at least half the slots
    # at any pump, so the curves never cross
    with pytest.raises(ConvergenceError):
        optimized_power(_spec(1, 2, 1, 1.0))
    # boost at gain 1e6 lifts even the smallest pump tried to about 1, where
    # multi-pairs outnumber lacks
    bank = replace(_spec(10, 1, 1, 1.0), feedback="boost", feedback_strength=1e6)
    with pytest.raises(ConvergenceError, match="^lack does not exceed multi even at vanishing pump"):
        optimized_power(bank)
    # feedback triples the highest pump, so the bracket stops three times lower
    for feedback in ("boost", "turbo_boost"):
        bank = replace(_spec(4, 8, 4, 1.0), feedback=feedback, feedback_strength=2.0)
        with pytest.raises(ConvergenceError, match="below mean pair number 10.666666666666666$"):
            optimized_power(bank)
    # too deep a constrained chain is refused before any bound is asked
    with pytest.raises(ParameterError, match="at most 5 register steps, got 6"):
        optimized_power(SimConfig(source_count=1, multiple=4, mean_pairs=1.0, step_count=6))
    for tolerance in (0.0, math.inf, math.nan, "1e-6", None, b"1"):
        with pytest.raises(ParameterError):
            optimized_power(_spec(100, 4, 3, 1.0), tolerance=tolerance)
    # a tolerance below the gap's float resolution is accepted, and never met
    with pytest.raises(ConvergenceError, match=r"^bisection failed to bring \|lack - multi\| under 1e-300$"):
        optimized_power(_spec(100, 4, 3, 1.0), tolerance=1e-300)


def test_optimized_power_balances_the_bank_as_given() -> None:
    # the boundary limits and the pump feedback of the bank move the balance
    # away from the plain unconstrained 0.0477879; its own mean_pairs, cycles
    # and seed play no part
    for bank, optimum in (
        (SimConfig(source_count=100, multiple=4, mean_pairs=0.3, step_count=3), 0.048594),
        (replace(_spec(100, 4, 3, 0.3), feedback="turbo_boost", cycles=7, seed=5), 0.029672),
    ):
        mean, rates = optimized_power(bank, tolerance=1e-6)
        assert rates == stationary_rates(replace(bank, mean_pairs=mean))
        assert abs(rates.lack_rate - rates.multi_rate) < 1e-6
        assert mean == pytest.approx(optimum, abs=5e-6)
        assert mean == optimized_power(replace(bank, mean_pairs=0.01, cycles=1, seed=0))[0]


def test_optimize_builds_each_herald_pmf_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # a step the load bounds leave open asks for the pmf at its pump twice,
    # for the bound and for the chain, and builds it once
    calls: list[tuple[int, float]] = []
    real = oracle.herald_count_distribution

    def recording(source_count: int, mean: float) -> np.ndarray:
        calls.append((source_count, mean))
        return real(source_count, mean)

    monkeypatch.setattr(oracle, "herald_count_distribution", recording)
    oracle._herald_pmf.cache_clear()
    optimized_power(_spec(100, 4, 3, 1.0))
    # 24 load bounds and 16 chain solves
    assert len(calls) == 40
    assert oracle._herald_pmf.cache_info().misses == len(set(calls)) == 24
    pmf = real(100, 0.049)
    assert not pmf.flags.writeable
    with pytest.raises(ValueError):
        pmf[0] = 1.0


def _reference_optimized_power(bank: SimConfig, tolerance: float = 1e-6) -> float:
    """The bisection solving the chain at every step, as optimized_power did
    before it consulted the load bounds, stopping once the highest pump
    would pass 32."""
    gain = max(bank.pumps) / bank.mean_pairs

    def gap(mean: float) -> float:
        rates = oracle.stationary_rates(replace(bank, mean_pairs=mean))
        return rates.lack_rate - rates.multi_rate

    low, high = 1e-6, 1.0
    if gap(low) <= 0.0:
        raise ConvergenceError("no crossing at vanishing pump")
    while gap(high) > 0.0:
        high *= 2.0
        if high * gain > 32.0:
            raise ConvergenceError("no crossing below the cap")
    for _ in range(200):
        mid = 0.5 * (low + high)
        gap_mid = gap(mid)
        if abs(gap_mid) < tolerance:
            return mid
        if gap_mid > 0.0:
            low = mid
        else:
            high = mid
    raise ConvergenceError("bisection stalled")


def _random_bank(rng: np.random.Generator, max_sources: int, max_gain: float) -> SimConfig:
    steps = int(rng.integers(1, MAX_CONSTRAINED_STEP_COUNT + 1))
    return SimConfig(
        source_count=int(rng.integers(1, max_sources + 1)),
        multiple=int(rng.integers(1, 2**steps + 1)),
        mean_pairs=1.0,
        step_count=steps,
        boundary=("constrained", "unconstrained")[int(rng.integers(2))],
        feedback=("off", "boost", "turbo_boost")[int(rng.integers(3))],
        feedback_strength=round(float(rng.uniform(0.0, max_gain)), 2),
    )


def test_optimized_power_takes_the_reference_bisection_steps(monkeypatch) -> None:
    # the load bounds only skip solves: every bank reaches the float of the
    # bisection that solves the chain at every step, never in more solves
    solves = [0]
    solve = oracle.stationary_rates

    def counted(config: SimConfig) -> OracleRates:
        solves[0] += 1
        return solve(config)

    monkeypatch.setattr(oracle, "stationary_rates", counted)
    rng = np.random.default_rng(15)
    deep, deeper = _spec(500, 16, 8, 1.0), _spec(2000, 16, 12, 1.0)
    banks = [
        _spec(100, 4, 3, 1.0),  # A2
        deep,
        deeper,
        _spec(1, 2, 1, 1.0),  # no crossing at all
        _spec(1, 1, 1, 1.0),  # a crossing above one pair
        SimConfig(source_count=100, multiple=4, mean_pairs=0.3, step_count=3, feedback="boost"),
        replace(_spec(200, 8, 6, 1.0), feedback="turbo_boost", feedback_strength=2.0),
        *(_random_bank(rng, 90, 2.0) for _ in range(40)),
    ]
    for bank in banks:
        outcomes = []
        for optimize in (_reference_optimized_power, lambda bank: optimized_power(bank)[0]):
            solves[0] = 0
            try:
                outcomes.append((optimize(bank), solves[0]))
            except ConvergenceError:
                outcomes.append((ConvergenceError, solves[0]))
        (reference, reference_solves), (mean, bounded_solves) = outcomes
        assert mean == reference, bank
        assert bounded_solves <= reference_solves, bank
        if bank == deep:
            assert reference_solves == 24 and bounded_solves <= 5
        if bank == deeper:
            assert reference_solves == 27 and bounded_solves <= 3
    # the step that ends the bisection is a solve, so its rates are the chain's there
    mean, rates = optimized_power(deep)
    assert rates == solve(replace(deep, mean_pairs=mean))


def test_gap_bounds_hold_on_random_banks() -> None:
    rng = np.random.default_rng(16)
    for _ in range(30):
        bank = _random_bank(rng, 90, 3.7)
        for mean in np.exp(rng.uniform(math.log(1e-4), math.log(1.0), size=4)):
            config = replace(bank, mean_pairs=float(mean))
            rates = stationary_rates(config)
            lower, upper = oracle._gap_bounds(config)
            gap = rates.lack_rate - rates.multi_rate
            assert lower - 1e-12 <= gap <= upper + 1e-12, config
    # unconstrained single-pump banks up to K=12, on both sides of rho = S p / m
    # = 1: the Lundberg bound caps the discards below 1 and the lacks above it,
    # and the discards solved a tenth below and above the pump bound them both ways
    sides = set()
    for index in range(24):
        steps = int(rng.integers(1, 13))
        multiple = int(rng.integers(1, min(2**steps, 2000) + 1))
        sources = int(rng.integers(multiple + 1, 3001))
        load = (1 - 1e-3, 1 + 1e-3)[index % 2] if index < 4 else float(np.exp(rng.uniform(-2.0, 2.0)))
        if load * multiple >= sources:
            load = 0.5
        bank = SimConfig(
            source_count=sources, multiple=multiple, mean_pairs=1.0, step_count=steps,
            boundary="unconstrained", feedback=("off", "boost")[index % 3 == 0],
            feedback_strength=0.0,
        )
        mean = -math.log1p(-load * multiple / sources)
        discards = [
            stationary_rates(replace(bank, mean_pairs=mean * scale)).mean_discards
            for scale in (0.9, 1.1)
        ]
        config = replace(bank, mean_pairs=mean)
        rates = stationary_rates(config)
        gap = rates.lack_rate - rates.multi_rate
        assert discards[0] <= rates.mean_discards + 1e-12 and rates.mean_discards <= discards[1] + 1e-12
        for known in ((0.0, math.inf), tuple(discards)):
            lower, upper = oracle._gap_bounds(config, known)
            assert lower - 1e-12 <= gap <= upper + 1e-12, (config, known)
        sides.add(load < 1.0)
    assert sides == {True, False}
    # not vacuous: near the crossing of S=500, m=16, K=8 and above rho = 1 the
    # bound on the lacks fixes the sign, where the interior-click bound reads +0.073
    assert oracle._gap_bounds(_spec(500, 16, 8, 0.0332))[1] < -2e-6


def test_lundberg_exponent_gives_the_decay_of_the_discards() -> None:
    # ln z* of z**m = (1 - p + p z)**S at S=100, m=4, mu=0.04; the exact
    # discards lie under e**(-theta capacity) / (e**theta - 1) at every depth
    # and fall as e**(-theta capacity): their ratio to the bound settles
    theta = oracle._lundberg_exponent(100, 4, 0.04)
    assert theta == pytest.approx(0.0413794, abs=1e-7)
    p = -math.expm1(-0.04)
    # f(theta) = S log(1 - p + p e**theta) - m theta is at most zero, and only just
    assert 4 * theta * (1 - 1e-10) < 100 * math.log1p(p * math.expm1(theta)) <= 4 * theta
    ratios = []
    for steps in range(3, 11):
        bank = _spec(100, 4, steps, 0.04)
        bound = math.exp(-theta * bank.capacity) / math.expm1(theta)
        ratios.append(stationary_rates(bank).mean_discards / bound)
    assert max(ratios) < 1.0
    assert ratios[-1] == pytest.approx(ratios[-2], rel=1e-8)
