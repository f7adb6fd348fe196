"""Emission statistics: pmf values, herald probabilities, sampler contract."""

import decimal
import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from spdcmux import (
    ParameterError,
    herald,
    herald_probabilities,
    pair_pmf,
    sample_cycle_emissions,
)

# reference values computed independently with 40-digit arithmetic, frozen
PMF_0_AT_005 = 0.95122942450071401
PMF_1_AT_005 = 0.0475614712250357
PMF_2_AT_005 = 0.0011890367806258925
PMF_0_AT_01 = 0.90483741803595957
PMF_3_AT_03 = 0.0033336819930677304
P_HERALD_0049 = 0.047818870301495147
P_MULTI_0049 = 0.0011619949462684088
P_HERALD_01 = 0.095162581964040427
P_MULTI_01 = 0.0046788401604444695
# p_multi at pumps where p_herald - mean e**-mean cancels, from 60-digit sums
P_MULTI_AT_SMALL_PUMPS = {
    1e-8: 4.9999999666666668e-17,
    1e-12: 4.9999999999966667e-25,
    1e-15: 4.9999999999999967e-31,
    1e-18: 5.0e-37,
}


def test_pair_pmf_reference_values() -> None:
    assert pair_pmf(0, 0.05) == pytest.approx(PMF_0_AT_005, rel=1e-14)
    assert pair_pmf(1, 0.05) == pytest.approx(PMF_1_AT_005, rel=1e-14)
    assert pair_pmf(2, 0.05) == pytest.approx(PMF_2_AT_005, rel=1e-14)
    assert pair_pmf(0, 0.1) == pytest.approx(PMF_0_AT_01, rel=1e-14)
    assert pair_pmf(3, 0.3) == pytest.approx(PMF_3_AT_03, rel=1e-14)


def test_pair_pmf_normalises_and_has_poisson_mean() -> None:
    for mean in (0.049, 0.3, 2.0):
        probs = [pair_pmf(n, mean) for n in range(80)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-13)
        assert sum(n * p for n, p in enumerate(probs)) == pytest.approx(mean, rel=1e-12)


def test_pair_pmf_at_large_counts() -> None:
    # past 15 pairs: against 50-digit sums with exact factorials
    with decimal.localcontext() as context:
        context.prec = 50
        for count, mean in ((16, 16.0), (40, 25.5), (200, 230.0), (1000, 1000.0), (1000, 900.0)):
            exact = (Decimal(mean).ln() * count - Decimal(mean)).exp() / math.factorial(count)
            assert pair_pmf(count, mean) == pytest.approx(float(exact), rel=1e-14), (count, mean)
    # log(count!) passes the float range from a count of ~2.6e305: far from
    # the mean the value underflows, as it does for a count past the float range
    for count in (2.6e305, 1e306, 10**400):
        assert pair_pmf(count, 0.1) == 0.0
    # at the mean it is 1 / sqrt(2 pi n), Stirling's 1 / (12 n) below
    # resolution; the direct log form cancels there, to 2.1e-9 for 1.3e-8 at 10**15
    for mean in (1e15, 1e306, 2.0**1023, sys.float_info.max):
        peak = 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(mean)
        assert pair_pmf(mean, mean) == pytest.approx(peak, rel=1e-14), mean
    # half a standard deviation above a mean of 1e306, read from the exact gap
    mean = int(1e306)
    expected = math.exp(-10**306 / (2 * mean)) / math.sqrt(2.0 * math.pi * 1e306)
    assert pair_pmf(mean + 10**153, 1e306) == pytest.approx(expected, rel=1e-14)
    assert pair_pmf(10**306, 1e306) == 0.0  # 1.7e290 below it: 1.7e137 deviations


def test_pair_pmf_rejects_bad_arguments() -> None:
    for count, mean in ((-1, 0.05), (0, 0.0), (0, -0.1), (0, math.inf), ("2", 0.1), (1, "0.1")):
        with pytest.raises(ParameterError):
            pair_pmf(count, mean)


def test_herald_probabilities_reference_values() -> None:
    probs = herald_probabilities(0.049)
    assert probs.p_herald == pytest.approx(P_HERALD_0049, rel=1e-14)
    assert probs.p_multi == pytest.approx(P_MULTI_0049, rel=1e-14)
    probs = herald_probabilities(0.1)
    assert probs.p_herald == pytest.approx(P_HERALD_01, rel=1e-14)
    assert probs.p_multi == pytest.approx(P_MULTI_01, rel=1e-14)
    for mean, p_multi in P_MULTI_AT_SMALL_PUMPS.items():
        assert herald_probabilities(mean).p_multi == pytest.approx(p_multi, rel=1e-14), mean


def test_herald_probabilities_rejects_bad_pumps() -> None:
    for mean in (0.0, -0.1, math.inf, math.nan, "0.1", None):
        with pytest.raises(ParameterError):
            herald_probabilities(mean)


def test_herald_probabilities_match_pmf_tails() -> None:
    # p_herald is the mass above zero pairs, p_multi the mass above one
    for mean in (0.02, 0.1, 0.5):
        probs = herald_probabilities(mean)
        assert probs.p_herald == pytest.approx(1.0 - pair_pmf(0, mean), rel=1e-12)
        assert probs.p_multi == pytest.approx(
            1.0 - pair_pmf(0, mean) - pair_pmf(1, mean), rel=1e-11
        )
        assert 0.0 < probs.p_multi < probs.p_herald < 1.0


def test_sampler_is_reproducible() -> None:
    a = sample_cycle_emissions(50, 0.1, np.random.default_rng(123))
    b = sample_cycle_emissions(50, 0.1, np.random.default_rng(123))
    assert np.array_equal(a, b)
    # one read-only int64 array is the whole cycle record
    assert a.dtype == np.int64 and a.shape == (50,)
    with pytest.raises(ValueError):
        a[0] = 5


def test_sampler_consumes_one_uniform_per_source() -> None:
    # the stream must advance by exactly source_count draws regardless of
    # the counts that come out
    rng = np.random.default_rng(9)
    sample_cycle_emissions(7, 0.8, rng)
    follow_on = rng.random()

    reference = np.random.default_rng(9)
    reference.random(7)
    assert follow_on == reference.random()


def _sequential_search_counts(u: np.ndarray, mean: float) -> np.ndarray:
    """The sampler's original inversion, kept as the reference: walk the
    Poisson terms one count at a time until every uniform is covered."""
    counts = np.zeros(u.size, dtype=np.int64)
    term = math.exp(-mean)
    cumulative = term
    n = 0
    pending = u > cumulative
    while pending.any():
        n += 1
        term *= mean / n
        if term <= 0.0:
            counts[pending] = n
            break
        cumulative += term
        counts[pending] = n
        pending = u > cumulative
    return counts


def _running_sums(mean: float) -> list[float]:
    """The cumulative values the reference loop compares the uniforms with."""
    term = math.exp(-mean)
    sums = [term]
    for n in range(1, 5000):
        term *= mean / n
        if term <= 0.0:
            break
        sums.append(sums[-1] + term)
    return sums


class _FixedUniforms(np.random.Generator):
    """A generator whose ``random(n)`` hands out chosen uniforms."""

    def __init__(self, uniforms: np.ndarray) -> None:
        super().__init__(np.random.PCG64(0))
        self.uniforms = uniforms

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.uniforms.size
        return self.uniforms.copy()


def test_inversion_matches_sequential_search() -> None:
    # every edge of the table: 0, each running sum exactly, the floats on
    # either side of it, the largest uniform below 1, and random draws
    rng = np.random.default_rng(31)
    means = [*np.geomspace(1e-6, 708.0, 37), 0.049, 0.3, 1.0, 30.0, 700.0]
    for mean in means:
        sums = np.array(_running_sums(float(mean)))
        u = np.concatenate(
            [
                [0.0, 1.0 - 2.0**-53],
                sums,
                np.nextafter(sums, 0.0),
                np.nextafter(sums, 1.0),
                rng.random(200),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        got = sample_cycle_emissions(u.size, float(mean), _FixedUniforms(u))
        assert np.array_equal(got, _sequential_search_counts(u, float(mean))), mean


def test_sampler_matches_pmf_frequencies() -> None:
    rng = np.random.default_rng(2024)
    draws = 200_000
    counts = sample_cycle_emissions(draws, 0.3, rng)
    for n, expected in ((0, pair_pmf(0, 0.3)), (1, pair_pmf(1, 0.3)), (2, pair_pmf(2, 0.3))):
        observed = np.mean(counts == n)
        se = math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(observed - expected) < 4.0 * se
    mean_se = math.sqrt(0.3 / draws)
    assert abs(counts.mean() - 0.3) < 4.0 * mean_se


def test_sampler_validates_arguments() -> None:
    rng = np.random.default_rng(0)
    for source_count, mean in ((0, 0.1), ("3", 0.1), (5, -0.1), (3, "0.1")):
        with pytest.raises(ParameterError):
            sample_cycle_emissions(source_count, mean, rng)
    with pytest.raises(ParameterError):
        sample_cycle_emissions(5, 0.1, "not a generator")  # type: ignore[arg-type]
    # past ~708.4 exp(-mean) is subnormal or zero and inversion would be biased
    for mean in (708.5, 745.2, 800.0):
        with pytest.raises(ParameterError, match="too large to sample"):
            sample_cycle_emissions(5, mean, rng)
    assert sample_cycle_emissions(5, 708.0, rng).min() > 500


def test_herald_thresholds_counts() -> None:
    clicks = herald(np.array([0, 1, 3, 0, 2]))
    assert clicks.dtype == bool
    assert clicks.tolist() == [False, True, True, False, True]
