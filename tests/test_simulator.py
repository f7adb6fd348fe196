"""Simulation runs: feedback law, determinism, composition, statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cycle_reference import reference_cycles, reference_metrics
from spdcmux import (
    BoundaryMode,
    ConservationError,
    FeedbackMode,
    ParameterError,
    SimConfig,
    apply_feedback,
    derive_point_seed,
    herald,
    herald_probabilities,
    plan_cycle,
    run_cycles,
    run_simulation,
    sample_cycle_emissions,
    simulator,
)

# p_multi / p_herald at mean 0.1, frozen from 40-digit arithmetic
REL_MULTI_AT_01 = 0.049166805522495038


def _bank(feedback: str = "off", strength: float = 1.0, multiple: int = 4) -> SimConfig:
    """A 3-step bank: capacity 4 at the default train of 4 photons."""
    return SimConfig(
        source_count=10, multiple=multiple, mean_pairs=0.05,
        feedback=feedback, feedback_strength=strength,
    )


def test_apply_feedback_off_and_boost() -> None:
    off = _bank()
    assert apply_feedback(off, 0) == 0.05
    assert apply_feedback(off, 4) == 0.05
    boost = _bank(FeedbackMode.BOOST, 1.0)
    assert apply_feedback(boost, 0) == pytest.approx(0.10)
    assert apply_feedback(boost, 3) == pytest.approx(0.10)
    assert apply_feedback(boost, 4) == 0.05
    half = replace(_bank("boost", 0.5), mean_pairs=0.08)
    assert apply_feedback(half, 1) == pytest.approx(0.12)


def test_apply_feedback_turbo_scales_with_headroom() -> None:
    turbo = _bank(FeedbackMode.TURBO_BOOST, 1.0)
    assert apply_feedback(turbo, 0) == pytest.approx(0.10)
    assert apply_feedback(turbo, 2) == pytest.approx(0.075)
    assert apply_feedback(turbo, 4) == pytest.approx(0.05)
    # a full-span train leaves no storage, so there is nothing to react to
    full_span = _bank(FeedbackMode.TURBO_BOOST, 1.0, multiple=8)
    assert full_span.capacity == 0
    assert apply_feedback(full_span, 0) == 0.05


def test_pump_table_is_the_feedback_rule_at_every_level() -> None:
    for mode in FeedbackMode:
        for strength in (0.0, 0.5, 1.0, 2.3):
            for multiple in (1, 3, 4, 8):
                bank = replace(_bank(mode, strength, multiple), mean_pairs=0.07)
                assert len(bank.pumps) == bank.capacity + 1
                assert all(type(pump) is float for pump in bank.pumps)
                for level in range(bank.capacity + 1):
                    assert bank.pumps[level] == apply_feedback(bank, level)
    # the turbo rule's values, bit for bit
    turbo = _bank(FeedbackMode.TURBO_BOOST, 0.5)
    assert turbo.pumps == tuple(0.05 * (1.0 + 0.5 * ((4 - level) / 4)) for level in range(5))


def test_apply_feedback_validation() -> None:
    boost = _bank("boost")
    for level in (5, -1, 1.5, math.nan, "1"):
        with pytest.raises(ParameterError, match="storage level"):
            apply_feedback(boost, level)
    # a whole float is a level
    assert apply_feedback(boost, 2.0) == apply_feedback(boost, 2)
    for strength in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError, match="feedback strength"):
            _bank("boost", strength)
    with pytest.raises(ParameterError, match="unknown feedback mode"):
        _bank("warp")
    assert type(_bank("boost", 2).feedback_strength) is float


def test_sim_config_defaults_and_coercion() -> None:
    config = SimConfig(source_count=100, multiple=4, mean_pairs=0.049)
    assert config.step_count == 3
    assert config.cycles == 100_000
    assert config.seed == 0
    assert config.feedback is FeedbackMode.OFF
    assert config.feedback_strength == 1.0
    assert config.boundary is BoundaryMode.CONSTRAINED
    assert config.capacity == 4

    coerced = SimConfig(
        source_count=10, multiple=2, mean_pairs=0.1, feedback="boost", boundary="unconstrained"
    )
    assert coerced.feedback is FeedbackMode.BOOST
    assert coerced.boundary is BoundaryMode.UNCONSTRAINED


def test_sim_config_validation() -> None:
    with pytest.raises(ParameterError):
        SimConfig(source_count=0, multiple=4, mean_pairs=0.05)
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=9, mean_pairs=0.05)  # exceeds 2**3
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=2, mean_pairs=0.05, step_count=2.5)
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.0)
    # the pump and its gain take real numbers only, not text that parses as one
    for mean_pairs in ("0.05", b"0.05", "abc", None):
        with pytest.raises(ParameterError, match="mean pair number"):
            SimConfig(source_count=10, multiple=4, mean_pairs=mean_pairs)
    with pytest.raises(ParameterError, match="feedback strength"):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.05, feedback_strength="2")
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.05, cycles=-1)
    for cycles in (2.5, math.nan, math.inf, "5"):
        with pytest.raises(ParameterError):
            SimConfig(source_count=10, multiple=4, mean_pairs=0.05, cycles=cycles)
    assert SimConfig(source_count=10, multiple=4, mean_pairs=0.05, cycles=3.0).cycles == 3
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.05, seed=-3)
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.05, boundary="sideways")
    with pytest.raises(ParameterError):
        SimConfig(source_count=10, multiple=4, mean_pairs=0.05, feedback="warp")
    # non-integer and non-finite counts name the argument they came in as
    for source_count in (2.5, math.nan, math.inf, "10", b"10"):
        with pytest.raises(ParameterError, match="source count"):
            SimConfig(source_count=source_count, multiple=2, mean_pairs=0.3)
    for name in ("multiple", "step_count", "seed"):
        for value in (math.nan, math.inf, "3"):
            with pytest.raises(ParameterError, match=name.replace("_", " ")):
                SimConfig(**{"source_count": 10, "multiple": 2, "mean_pairs": 0.3, name: value})
    whole = SimConfig(source_count=10.0, multiple=2.0, mean_pairs=0.3, step_count=3.0, seed=4.0)
    assert [whole.source_count, whole.multiple, whole.step_count, whole.seed] == [10, 2, 3, 4]
    assert all(type(value) is int for value in (whole.source_count, whole.multiple, whole.seed))
    # an int is whole at any size: numpy seeds from one past the float range,
    # and a source count past 2**53 is still refused as given
    huge = SimConfig(source_count=10, multiple=4, mean_pairs=0.1, cycles=100, seed=2**1024)
    assert huge.seed == 2**1024 and run_simulation(huge).cycles == 100
    with pytest.raises(ParameterError, match=r"^source count must be an integer in \[1, 2\*\*53\], got 10{400}$"):
        SimConfig(source_count=10**400, multiple=4, mean_pairs=0.05)
    # and so is a cycle count, which bounds a run that must end
    assert SimConfig(source_count=10, multiple=4, mean_pairs=0.05, cycles=2**53).cycles == 2**53
    for cycles in (2**53 + 1, 10**400):
        with pytest.raises(ParameterError, match=rf"^cycle count must be an integer in \[0, {2**53}\]"):
            SimConfig(source_count=10, multiple=4, mean_pairs=0.05, cycles=cycles)


def test_same_config_reproduces_identical_metrics() -> None:
    config = SimConfig(source_count=20, multiple=4, mean_pairs=0.1, cycles=5_000, seed=77)
    assert run_simulation(config) == run_simulation(config)


def test_different_seed_changes_outcome() -> None:
    base = SimConfig(source_count=20, multiple=4, mean_pairs=0.1, cycles=5_000, seed=1)
    other = SimConfig(source_count=20, multiple=4, mean_pairs=0.1, cycles=5_000, seed=2)
    assert run_simulation(base) != run_simulation(other)


def test_zero_cycles_yields_nan_rates() -> None:
    metrics = run_simulation(SimConfig(source_count=5, multiple=2, mean_pairs=0.1, cycles=0))
    assert metrics.total_slots == 0
    assert metrics.filled_count == 0
    assert math.isnan(metrics.lack_rate)
    assert math.isnan(metrics.multi_rate)
    assert math.isnan(metrics.relative_multi_rate)
    assert math.isnan(metrics.mean_storage_level)


def test_vanishing_pump_starves_the_train() -> None:
    config = SimConfig(
        source_count=10, multiple=2, mean_pairs=1e-4, cycles=20_000, seed=3
    )
    metrics = run_simulation(config)
    assert metrics.lack_rate > 0.99
    assert metrics.multi_count <= 2


def test_manual_cycle_loop_reproduces_run_simulation() -> None:
    base = SimConfig(source_count=15, multiple=4, mean_pairs=0.15, cycles=3_000, seed=11)
    banks = [replace(base, feedback=f, boundary=b) for f in FeedbackMode for b in BoundaryMode]
    # a full-span train: no storage, so the run never reads a raised pump
    banks.append(replace(base, multiple=8, feedback="boost"))
    for config in banks:
        level = lack = discarded = heralds = level_sum = 0
        for _, plan in run_cycles(config):
            lack += plan.lack_count
            discarded += plan.discarded
            heralds += plan.herald_count
            level = plan.storage_level
            level_sum += level

        # the run's conservation totals against the plans' own counts
        metrics = run_simulation(config)
        assert metrics.lack_count == lack, config
        assert metrics.filled_count == config.multiple * config.cycles - lack, config
        assert metrics.discarded_count == discarded, config
        assert metrics.herald_count == heralds, config
        assert metrics.final_storage_level == level, config
        assert metrics.mean_storage_level == pytest.approx(level_sum / config.cycles), config
        # the multi-pair slots need the pair counts, which only the reference keeps
        assert metrics.multi_count == reference_metrics(config).multi_count, config


def test_run_cycles_yields_each_cycle_once() -> None:
    config = SimConfig(
        source_count=12, multiple=2, mean_pairs=0.3, cycles=400, seed=7, feedback="boost"
    )
    assert list(run_cycles(replace(config, cycles=0))) == []
    cycles = list(run_cycles(config))
    assert len(cycles) == config.cycles
    # each cycle starts where the one before it left storage, and draws at
    # the pump of that level from the same uniform stream
    rng = np.random.default_rng(config.seed)
    level = 0
    pumps = set()
    for counts, plan in cycles:
        pumps.add(config.pumps[level])
        replayed = sample_cycle_emissions(config.source_count, config.pumps[level], rng)
        assert np.array_equal(counts, replayed)
        assert plan == plan_cycle(config, herald(counts), level)
        level = plan.storage_level
    # the boost bank draws at both its pumps
    assert pumps == set(config.pumps) and len(pumps) == 2


def _random_banks(rng: np.random.Generator, count: int) -> list[SimConfig]:
    banks = []
    for _ in range(count):
        step_count = int(rng.integers(1, 7))
        span = 2**step_count
        banks.append(SimConfig(
            source_count=int(rng.integers(1, 41)),
            # a full-span train, capacity 0, one time in eight
            multiple=span if rng.random() < 0.125 else int(rng.integers(1, span + 1)),
            mean_pairs=float(rng.choice([rng.uniform(0.005, 0.3), rng.uniform(0.3, 2.0)])),
            step_count=step_count,
            cycles=0 if rng.random() < 0.05 else int(rng.integers(1, 801)),
            seed=int(rng.integers(0, 2**31)),
            feedback=list(FeedbackMode)[rng.integers(3)],
            feedback_strength=float(rng.uniform(0.0, 3.0)),
            boundary=list(BoundaryMode)[rng.integers(2)],
        ))
    return banks


def test_run_simulation_matches_the_reference_loop_on_random_banks() -> None:
    # the FIFO tally against the slot and storage contents kept photon by
    # photon, on the same uniforms
    banks = _random_banks(np.random.default_rng(1616), 240)
    for feedback in FeedbackMode:
        for boundary in BoundaryMode:
            assert any(b.feedback is feedback and b.boundary is boundary for b in banks)
    assert any(b.capacity == 0 for b in banks) and any(b.cycles == 0 for b in banks)
    stored_multis = 0
    for config in banks:
        assert run_simulation(config) == reference_metrics(config), config
        storage = ()
        for *_, storage in reference_cycles(config):
            pass
        stored_multis += any(count > 1 for count in storage)
    # runs that end with multi-pair photons still stored
    assert stored_multis >= 20


def test_plan_that_reuses_or_overwrites_a_target_aborts_the_run(monkeypatch) -> None:
    real_plan_cycle = simulator.plan_cycle
    config = SimConfig(source_count=11, multiple=2, mean_pairs=0.3, cycles=200, seed=1)
    for bad_delay in (lambda level: level, lambda level: level - 1):
        def faulty_plan_cycle(config, clicks, level):
            plan = real_plan_cycle(config, clicks, level)
            if level == 0:
                return plan
            # one photon more, routed to the first open target or onto a stored photon
            return plan._replace(assignments=[(1, bad_delay(level)), *plan.assignments])

        monkeypatch.setattr(simulator, "plan_cycle", faulty_plan_cycle)
        with pytest.raises(ConservationError, match="photon conservation violated at cycle"):
            run_simulation(config)
    monkeypatch.undo()
    assert run_simulation(config) == reference_metrics(config)


def test_run_totals_conserve_photons() -> None:
    config = SimConfig(source_count=30, multiple=4, mean_pairs=0.12, cycles=10_000, seed=5)
    metrics = run_simulation(config)
    assert metrics.herald_count == (
        metrics.filled_count + metrics.final_storage_level + metrics.discarded_count
    )


def test_herald_total_matches_click_probability() -> None:
    config = SimConfig(source_count=50, multiple=4, mean_pairs=0.1, cycles=20_000, seed=8)
    metrics = run_simulation(config)
    draws = config.source_count * config.cycles
    p = herald_probabilities(0.1).p_herald
    se = math.sqrt(p * (1.0 - p) / draws)
    assert abs(metrics.herald_count / draws - p) < 4.0 * se


def test_relative_multi_rate_is_binomial_in_filled_slots() -> None:
    # routing never reads multiplicities, so conditioned on the number of
    # filled slots the multi count is exactly binomial with the herald
    # tail ratio as its success probability
    config = SimConfig(
        source_count=50,
        multiple=2,
        mean_pairs=0.1,
        cycles=50_000,
        seed=21,
        boundary=BoundaryMode.UNCONSTRAINED,
    )
    metrics = run_simulation(config)
    filled = metrics.filled_count
    assert filled > 10_000
    se = math.sqrt(REL_MULTI_AT_01 * (1.0 - REL_MULTI_AT_01) / filled)
    assert abs(metrics.relative_multi_rate - REL_MULTI_AT_01) < 4.0 * se


def test_boost_feedback_raises_herald_yield() -> None:
    quiet = SimConfig(source_count=20, multiple=4, mean_pairs=0.05, cycles=20_000, seed=13)
    boosted = SimConfig(
        source_count=20,
        multiple=4,
        mean_pairs=0.05,
        cycles=20_000,
        seed=13,
        feedback=FeedbackMode.BOOST,
        feedback_strength=1.0,
    )
    assert run_simulation(boosted).herald_count > run_simulation(quiet).herald_count


def test_turbo_feedback_with_zero_capacity_is_inert() -> None:
    # multiple 4 with a 2-step register fills the whole span: no storage,
    # no feedback signal, so the run must match plain pumping draw for draw
    plain = SimConfig(
        source_count=12, multiple=4, mean_pairs=0.2, step_count=2, cycles=5_000, seed=4
    )
    turbo = SimConfig(
        source_count=12,
        multiple=4,
        mean_pairs=0.2,
        step_count=2,
        cycles=5_000,
        seed=4,
        feedback=FeedbackMode.TURBO_BOOST,
        feedback_strength=2.0,
    )
    assert run_simulation(plain) == run_simulation(turbo)


def test_derive_point_seed_is_stable_and_spread() -> None:
    first = derive_point_seed(42, 0)
    assert first == derive_point_seed(42, 0)
    seeds = {derive_point_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_point_seed(43, 0) != first
    with pytest.raises(ParameterError):
        derive_point_seed(-1, 0)
    with pytest.raises(ParameterError):
        derive_point_seed(1, -2)
    # a fractional or non-finite argument is not a seed, not a rounded one
    for master, index in ((1.5, 0), (1, 0.5), (math.nan, 0), (1, math.inf), ("1", 0)):
        with pytest.raises(ParameterError, match="non-negative integers"):
            derive_point_seed(master, index)
    assert derive_point_seed(42.0, 0.0) == first
    assert 0 <= derive_point_seed(2**1024, 0) < 2**64
