"""The argument checks of ``spdcmux.errors``, as each caller words its refusal."""

import math

import numpy as np
import pytest

from spdcmux import (
    ParameterError,
    RegisterTopology,
    SimConfig,
    apply_feedback,
    herald_probabilities,
    optimized_power,
    pair_pmf,
    plan_cycle,
    step_count_bounds,
    storage_capacity,
)


def test_each_check_names_its_argument_and_range() -> None:
    bank = SimConfig(source_count=11, multiple=4, mean_pairs=0.1, step_count=3)
    no_clicks = np.zeros(11, dtype=bool)

    def config(**changes: object) -> SimConfig:
        return SimConfig(**{"source_count": 10, "multiple": 4, "mean_pairs": 0.05, **changes})

    for refuse, message in (
        (lambda: config(step_count=13), "step count must be an integer in [1, 12], got 13"),
        (lambda: storage_capacity(3, 9), "multiple must be an integer in [1, 8], got 9"),
        (lambda: plan_cycle(bank, no_clicks, 5), "storage level must be an integer in [0, 4], got 5"),
        (lambda: apply_feedback(bank, -1), "storage level must be an integer in [0, 4], got -1"),
        (
            lambda: config(feedback_strength=-1.0),
            "feedback strength must be finite and non-negative, got -1.0",
        ),
        (
            lambda: config(cycles=-1),
            "cycle count must be an integer in [0, 9007199254740992], got -1",
        ),
        (lambda: config(seed=1.5), "seed must be a non-negative integer, got 1.5"),
        (lambda: pair_pmf(-1, 0.1), "pair count must be a non-negative integer, got -1"),
        (
            lambda: optimized_power(bank, tolerance=0.0),
            "tolerance must be positive and finite, got 0.0",
        ),
        (
            lambda: herald_probabilities(math.nan),
            "mean pair number must be positive and finite, got nan",
        ),
        # the source index reads "an integer in", as every bounded check does
        (
            lambda: step_count_bounds(RegisterTopology(11, 3), 0),
            "source index must be an integer in [1, 11], got 0",
        ),
    ):
        with pytest.raises(ParameterError) as refused:
            refuse()
        assert str(refused.value) == message
