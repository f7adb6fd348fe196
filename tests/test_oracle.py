"""Exact chain solution: transition structure, stationary rates, optimizer."""

import gc
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from spdcmux import (
    BoundaryMode,
    ConvergenceError,
    FeedbackPolicy,
    HeraldProbabilities,
    OracleRates,
    ParameterError,
    RegisterTopology,
    SimConfig,
    apply_feedback,
    herald_count_distribution,
    herald_probabilities,
    optimized_power,
    oracle,
    plan_cycle,
    stationary_distribution,
    stationary_rates,
    transition_matrix,
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
    p = herald_probabilities(0.3).p_herald
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
    with pytest.raises(ParameterError, match="finite and non-negative"):
        stationary_distribution([[0.5, 0.5], [np.nan, 0.5]])
    with pytest.raises(ParameterError, match="finite and non-negative"):
        stationary_distribution([[1.5, -0.5], [0.5, 0.5]])


def test_stationary_distribution_ceiling_zeroes_the_levels_above() -> None:
    # level 1 has no way up, so level 2 is transient and gets exactly zero;
    # levels 0 and 1 balance 0.5 pi[0] = 0.3 pi[1]
    matrix = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]])
    pi = stationary_distribution(matrix)
    assert pi[2] == 0.0
    assert pi[:2] == pytest.approx([0.375, 0.625], rel=1e-15)


def test_stationary_distribution_with_a_subnormal_way_up() -> None:
    # level 0 leaves with probability 1e-310 and level 1 drops back with
    # probability 0.5: scaling row 0 by its exit rate stays finite, and
    # back-substitution shrinks the levels above rather than overflow
    matrix = np.array([[1.0, 1e-310, 0.0], [0.5, 0.25, 0.25], [0.0, 0.5, 0.5]])
    with np.errstate(all="raise"):
        pi = stationary_distribution(matrix)
    assert np.all(np.isfinite(pi))
    assert pi.tolist() == [1.0, 2e-310, 1e-310]


def test_stationary_distribution_of_a_dense_random_matrix() -> None:
    # every row can drop to level 0, so the band is the whole matrix
    matrix = np.random.default_rng(5).random((40, 40))
    matrix /= matrix.sum(axis=1, keepdims=True)
    pi = stationary_distribution(matrix)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(pi @ matrix - pi)) < 1e-12
    # the rows may arrive in blocks of any size: one row at a time gives
    # the same bits
    rows = (matrix[level:level + 1] for level in range(40))
    assert np.array_equal(oracle._solve_rows(rows, 40, 39), pi)


def test_solver_rejects_a_row_outside_the_band() -> None:
    # row 2 drops two levels, one more than the declared band
    matrix = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(ParameterError, match="drops more than 1 levels"):
        oracle._solve_rows((matrix[level:level + 1] for level in range(3)), 3, 1)
    # read from the data, the band is 2 and the chain solves
    assert stationary_distribution(matrix) == pytest.approx([0.5, 0.25, 0.25], rel=1e-15)


def _level_pump(config: SimConfig, level: int) -> HeraldProbabilities:
    return herald_probabilities(
        apply_feedback(config.feedback, level, config.capacity, config.mean_pairs)
    )


def _herald_count_outcomes(config: SimConfig, level: int):
    """(weight, next level, lacks, kept) per herald count of an unconstrained
    bank, with weights taken exactly from the float pmf."""
    m, capacity = config.multiple, config.capacity
    pmf = herald_count_distribution(config.source_count, _level_pump(config, level).p_herald)
    for heralds, weight in enumerate(pmf):
        filled = min(m, level + heralds)
        kept = min(heralds, m + capacity - level)
        yield Fraction(weight), min(capacity, level + heralds - filled), m - filled, kept


def _click_pattern_outcomes(config: SimConfig, level: int):
    """(weight, next level, lacks, kept) per click pattern of a constrained
    bank, each pattern routed by plan_cycle and weighted in exact rationals."""
    topology = RegisterTopology(config.source_count, config.step_count)
    p = Fraction(_level_pump(config, level).p_herald)
    for bits in itertools.product((0, 1), repeat=config.source_count):
        clicks = np.array(bits, dtype=bool)
        plan = plan_cycle(topology, clicks, clicks.astype(np.int64), (1,) * level, config.multiple)
        clicked = sum(bits)
        weight = p**clicked * (1 - p) ** (config.source_count - clicked)
        yield weight, len(plan.storage_out), plan.lack_count, len(plan.new_assignments)


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
    turbo = replace(_spec(20, 4, 3, 0.1), feedback=FeedbackPolicy("turbo_boost", 1.5))
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


def _brute_force_outcomes(config: SimConfig) -> tuple[Counter, Counter, Counter]:
    """Click patterns per (level, interior clicks, edge clicks, next level),
    and their summed lacks and kept photons per (level, interior clicks,
    edge clicks), one plan_cycle walk per edge pattern and interior count.

    The interior clicks sit on randomly chosen rows (the only choice when
    there is at most one interior row).  Counts at or past the number of
    open targets must all give one outcome, and count once.
    """
    topology = RegisterTopology(config.source_count, config.step_count)
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
                plan = plan_cycle(
                    topology, clicks, clicks.astype(np.int64), (1,) * level, config.multiple,
                    boundary_limits=config.boundary is BoundaryMode.CONSTRAINED,
                )
                outcomes.setdefault((level, min(n, targets), bits), set()).add(
                    (len(plan.storage_out), plan.lack_count, len(plan.new_assignments))
                )
    counts, lacks, kept = Counter(), Counter(), Counter()
    for (level, n, bits), found in outcomes.items():
        assert len(found) == 1, (level, n, bits, found)
        next_level, lack, keep = found.pop()
        counts[(level, n, sum(bits), next_level)] += 1
        lacks[(level, n, sum(bits))] += lack
        kept[(level, n, sum(bits))] += keep
    return counts, lacks, kept


def _walk_table_outcomes(config: SimConfig) -> tuple[Counter, Counter, Counter]:
    """The same three tallies composed from the oracle's walk tables: the
    joint walk without interior clicks, else the top rows' handover, the
    interior run to its stop s, and the bottom rows' walk from s."""
    walks = oracle._walks(
        config.source_count,
        config.step_count,
        config.multiple,
        config.boundary is BoundaryMode.CONSTRAINED,
    )
    m, span = config.multiple, 2**config.step_count
    counts, lacks, kept = Counter(), Counter(), Counter()
    for level in range(config.capacity + 1):
        for e, j in itertools.product(*map(range, walks.joint.shape[1:])):
            counts[(level, 0, e, max(level - m, 0) + j)] += int(walks.joint[level, e, j])
        for e in range(walks.joint.shape[1]):
            lacks[(level, 0, e)] += int(walks.joint_sums[level, e, 0])
            kept[(level, 0, e)] += int(walks.joint_sums[level, e, 1])
        for n in range(1, min(walks.interior_rows, span - level) + 1):
            for t, i in itertools.product(*map(range, walks.top.shape[1:])):
                stop = min(level + i + n, span)
                tops = int(walks.top[level, t, i])
                for b, j in itertools.product(*map(range, walks.bottom.shape[1:])):
                    patterns = tops * int(walks.bottom[stop, b, j])
                    counts[(level, n, t + b, max(stop - m, 0) + j)] += patterns
                    kept[(level, n, t + b)] += patterns * (stop - level)
                for b in range(walks.bottom.shape[1]):
                    lacks[(level, n, t + b)] += tops * int(walks.bottom_sums[stop, b, 0])
                    kept[(level, n, t + b)] += tops * int(walks.bottom_sums[stop, b, 1])
    return +counts, +lacks, +kept


def test_outcome_table_matches_every_click_pattern() -> None:
    configs = [
        SimConfig(source_count=8, multiple=4, mean_pairs=0.1, step_count=4),  # S = 2K
        SimConfig(source_count=6, multiple=1, mean_pairs=0.1, step_count=3),  # S = 2K
        SimConfig(source_count=9, multiple=6, mean_pairs=0.1, step_count=4),  # S = 2K + 1
        SimConfig(source_count=7, multiple=3, mean_pairs=0.1, step_count=3),  # S = 2K + 1
        SimConfig(source_count=5, multiple=9, mean_pairs=0.1, step_count=4),  # S < 2K
        SimConfig(source_count=3, multiple=2, mean_pairs=0.1, step_count=2),  # S < 2K
        SimConfig(source_count=24, multiple=2, mean_pairs=0.1, step_count=3),
        SimConfig(source_count=24, multiple=5, mean_pairs=0.1, step_count=3),
        SimConfig(
            source_count=12, multiple=3, mean_pairs=0.1, step_count=3, boundary="unconstrained"
        ),
    ]
    for config in configs:
        walks = oracle._walks(
            config.source_count,
            config.step_count,
            config.multiple,
            config.boundary is BoundaryMode.CONSTRAINED,
        )
        assert walks.joint.shape[1] == len(_edge_rows(config)) + 1
        assert _walk_table_outcomes(config) == _brute_force_outcomes(config), config


def test_outcome_table_is_built_once_per_bank(monkeypatch: pytest.MonkeyPatch) -> None:
    # the walk tables are pump-independent, so a pump sweep reweights one
    # set, and the herald pmf is built once per distinct pump value
    pumps: list[float] = []
    real = oracle.herald_count_distribution

    def recording(source_count: int, p_herald: float) -> np.ndarray:
        pumps.append(p_herald)
        return real(source_count, p_herald)

    monkeypatch.setattr(oracle, "herald_count_distribution", recording)
    oracle._walks.cache_clear()
    config = _spec(100, 4, 3, 0.049)
    for mean in (0.03, 0.049, 0.06):
        stationary_rates(replace(config, mean_pairs=mean))
    assert oracle._walks.cache_info().misses == 1
    assert pumps == [herald_probabilities(mean).p_herald for mean in (0.03, 0.049, 0.06)]
    assert oracle._walks(100, 3, 4, False).joint.shape[1] == 1

    for mode, distinct in (("boost", 2), ("turbo_boost", config.capacity + 1)):
        pumps.clear()
        stationary_rates(replace(config, feedback=mode))
        expected = {
            herald_probabilities(
                apply_feedback(FeedbackPolicy(mode), level, config.capacity, 0.049)
            ).p_herald
            for level in range(config.capacity + 1)
        }
        assert len(pumps) == len(expected) == distinct
        assert set(pumps) == expected


def test_turbo_boost_chain_builds_log_factorials_once() -> None:
    # turbo_boost gives every storage level its own pump and so its own
    # herald pmf, but all of them share one log-factorial table
    oracle._log_factorials.cache_clear()
    config = replace(_spec(300, 16, 6, 0.02), feedback="turbo_boost")
    stationary_rates(config)
    info = oracle._log_factorials.cache_info()
    assert (info.misses, info.hits) == (1, config.capacity)
    assert not oracle._log_factorials(300).flags.writeable


def test_walk_tables_do_not_hold_the_matrix() -> None:
    # the cache keeps only pump-independent walks, O(levels + 2**K) numbers
    # for an unconstrained bank, not one record per nonzero of the matrix
    oracle._walks.cache_clear()
    config = _spec(200, 16, 10, -math.log1p(-0.95 * 16 / 200))
    gc.collect()
    tracemalloc.start()
    try:
        rates = stationary_rates(config)
        del rates
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] < 2**19
    finally:
        tracemalloc.stop()


def test_stationary_rates_never_holds_the_matrix() -> None:
    # rows are solved as they are built, so a warm call holds a window of
    # rows, not the (capacity + 1)**2 matrix: 8.1 MB at K=10, 127 MiB at K=12
    for config, mebibytes in [
        (_spec(200, 16, 10, -math.log1p(-0.95 * 16 / 200)), 4),
        (_spec(2000, 16, 12, 0.002025), 8),
    ]:
        stationary_rates(config)
        gc.collect()
        tracemalloc.start()
        try:
            stationary_rates(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mebibytes * 2**20, config


def test_constrained_chain_depth_is_bounded_before_allocation() -> None:
    deep = SimConfig(
        source_count=100, multiple=4, mean_pairs=0.05, step_count=MAX_CONSTRAINED_STEP_COUNT + 1
    )
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"at most {MAX_CONSTRAINED_STEP_COUNT}"):
            stationary_rates(deep)
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
    pi = stationary_distribution(transition_matrix(_spec(60, 2, 10, 0.05)))
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


def test_single_source_never_stores() -> None:
    # one source cannot outrun a single-photon train, so storage stays
    # empty and the lack rate is just the no-click probability
    for step_count in (1, 3):
        spec = _spec(1, 1, step_count, 0.4)
        rates = stationary_rates(spec)
        assert rates.lack_rate == pytest.approx(math.exp(-0.4), rel=1e-10)
        assert rates.multi_rate == pytest.approx(herald_probabilities(0.4).p_multi, rel=1e-10)
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
    # the chain reads a SimConfig, so these are the bad chains it can still
    # be asked for: no sources, a train longer than the register, a register
    # past the depth limit, and a pump whose click probability rounds to one
    with pytest.raises(ParameterError):
        stationary_rates(_spec(0, 1, 1, 0.1))
    with pytest.raises(ParameterError):
        stationary_rates(_spec(5, 3, 1, 0.1))
    with pytest.raises(ParameterError):
        stationary_rates(_spec(5, 1, 13, 0.1))
    with pytest.raises(ParameterError):
        stationary_rates(_spec(5, 1, 1, 40.0))


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
    for tolerance in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            optimized_power(100, 4, 3, tolerance=tolerance)
