"""Multiplexed heralded single-photon source toolkit.

Models a bank of pulsed SPDC pair sources whose heralded photons are
funnelled through a by-passable binary delay register into a periodic
m-photon output train, with the register span behind the train acting as
cross-cycle storage.  Provides a cycle-accurate Monte Carlo engine, an
exact Markov-chain solution for the idealized bank, delay reachability
analysis and an operating-point optimizer, plus a CLI wrapping all of it.
"""

from .emission import (
    HeraldProbabilities,
    herald,
    herald_probabilities,
    pair_pmf,
    sample_cycle_emissions,
)
from .errors import ConservationError, ConvergenceError, ParameterError
from .oracle import (
    OracleRates,
    herald_count_distribution,
    optimized_power,
    stationary_distribution,
    stationary_rates,
)
from .register import (
    RegisterTopology,
    step_count_bounds,
)
from .scheduler import (
    CyclePlan,
    plan_cycle,
    storage_capacity,
)
from .simulator import (
    BoundaryMode,
    FeedbackMode,
    SimConfig,
    SimMetrics,
    apply_feedback,
    derive_point_seed,
    run_cycles,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMode",
    "ConservationError",
    "ConvergenceError",
    "CyclePlan",
    "FeedbackMode",
    "HeraldProbabilities",
    "OracleRates",
    "ParameterError",
    "RegisterTopology",
    "SimConfig",
    "SimMetrics",
    "apply_feedback",
    "derive_point_seed",
    "herald",
    "herald_count_distribution",
    "herald_probabilities",
    "optimized_power",
    "pair_pmf",
    "plan_cycle",
    "run_cycles",
    "run_simulation",
    "sample_cycle_emissions",
    "stationary_distribution",
    "stationary_rates",
    "step_count_bounds",
    "storage_capacity",
]
