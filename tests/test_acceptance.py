"""Acceptance gate: every shipping criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as the suite executes; without ``-s`` they show up in the captured output
of any failing test.
"""

import time
from dataclasses import replace

import numpy as np

from cycle_reference import reference_cycles, verify_monotone_assignment
from spdcmux import (
    BoundaryMode,
    ParameterError,
    RegisterTopology,
    SimConfig,
    herald,
    plan_cycle,
    run_simulation,
    stationary_rates,
    storage_capacity,
)
from spdcmux.cli import run_command

FULL_DELAY_SET = frozenset(range(8))
EXPECTED_ROWS_11X3 = {
    1: frozenset({0}),
    2: frozenset({0, 1, 2, 4}),
    3: frozenset({0, 1, 2, 3, 4, 5, 6}),
    4: FULL_DELAY_SET,
    5: FULL_DELAY_SET,
    6: FULL_DELAY_SET,
    7: FULL_DELAY_SET,
    8: FULL_DELAY_SET,
    9: frozenset({1, 2, 3, 4, 5, 6, 7}),
    10: frozenset({3, 5, 6, 7}),
    11: frozenset({7}),
}


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_a1_balanced_error_band() -> None:
    # reference operating point: 100 sources, 3 steps, 4-photon train,
    # mean 0.049 pairs, no feedback, boundary limits on, 100k cycles
    config = SimConfig(
        source_count=100, multiple=4, mean_pairs=0.049, cycles=100_000, seed=42
    )
    start = time.perf_counter()
    metrics = run_simulation(config)
    runtime = time.perf_counter() - start
    lack = metrics.lack_rate
    multi = metrics.multi_rate
    ok = 0.019 <= lack <= 0.029 and 0.019 <= multi <= 0.029 and runtime < 60.0
    detail = f"lack={lack:.5f} multi={multi:.5f} runtime={runtime:.1f}s (seed 42)"
    _verdict("A1 balanced error band", ok, detail)
    assert ok, detail


def test_a2_optimized_pump_in_band(tmp_path) -> None:
    out = tmp_path / "optimum.csv"
    code = run_command(
        ["optimize", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--out", str(out)]
    )
    mean = float(out.read_text().strip().split("\n")[1].split(",")[0])
    ok = code == 0 and 0.044 <= mean <= 0.056
    detail = f"exit={code} optimized mean={mean:.6f}"
    _verdict("A2 optimized pump in band", ok, detail)
    assert ok, detail


def test_a3_reachability_table(tmp_path) -> None:
    topology = RegisterTopology(source_count=11, step_count=3)
    mismatches = [
        source
        for source, expected in EXPECTED_ROWS_11X3.items()
        if frozenset(np.flatnonzero(topology.access_table[source - 1]).tolist()) != expected
    ]
    out = tmp_path / "topology.csv"
    code = run_command(["verify-topology", "--sources", "11", "--steps", "3",
                        "--out", str(out)])
    for line in out.read_text().strip().split("\n")[1:]:
        cells = line.split(",")
        source = int(cells[0])
        dumped = frozenset(d for d, cell in enumerate(cells[1:]) if cell == "1")
        if dumped != EXPECTED_ROWS_11X3[source]:
            mismatches.append(source)
    ok = code == 0 and not mismatches
    detail = f"exit={code} mismatched rows={sorted(set(mismatches)) or 'none'}"
    _verdict("A3 reachability table", ok, detail)
    assert ok, detail


def _random_chain_configs(count: int) -> list[SimConfig]:
    """Deterministic spread of small banks whose exact rates are testable."""
    rng = np.random.default_rng(20240823)
    configs: list[SimConfig] = []
    while len(configs) < count:
        step_count = int(rng.integers(1, 4))
        span = 2**step_count
        multiple = int(rng.integers(max(1, span - 4), span + 1))
        source_count = int(rng.integers(2, 21))
        mean = float(rng.uniform(0.02, 0.3))
        config = SimConfig(
            source_count=source_count,
            multiple=multiple,
            mean_pairs=mean,
            step_count=step_count,
            cycles=100_000,
            boundary=BoundaryMode.UNCONSTRAINED,
        )
        lack = stationary_rates(config).lack_rate
        if not 5e-4 <= lack <= 0.9:
            continue  # keep both error rates resolvable at 100k cycles
        configs.append(replace(config, seed=int(rng.integers(0, 2**31))))
    return configs


def _batched_rates(
    config: SimConfig, batch_count: int, batch_cycles: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch lack and multi rates from one continuous run, read off the
    pair counts that the reference loop keeps in each slot."""
    m = config.multiple
    lacks = np.zeros(batch_count)
    multis = np.zeros(batch_count)
    run = replace(config, cycles=batch_count * batch_cycles)
    for cycle, (*_, slots, _) in enumerate(reference_cycles(run)):
        lack = slots.count(0)
        lacks[cycle // batch_cycles] += lack
        multis[cycle // batch_cycles] += m - lack - slots.count(1)
    slots_per_batch = batch_cycles * m
    return lacks / slots_per_batch, multis / slots_per_batch


def _chain_deviations(config: SimConfig, batch_count: int, batch_cycles: int) -> list[str]:
    """Rates of one batched run that miss the exact chain by more than 4 standard errors."""
    exact = stationary_rates(config)
    lack_b, multi_b = _batched_rates(config, batch_count, batch_cycles)
    floor = 2.0 / (batch_count * batch_cycles * config.multiple)
    deviations = []
    for name, batches, target in (
        ("lack", lack_b, exact.lack_rate),
        ("multi", multi_b, exact.multi_rate),
    ):
        observed = batches.mean()
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        tolerance = max(4.0 * se, floor)
        if abs(observed - target) > tolerance:
            deviations.append(
                f"S={config.source_count} m={config.multiple} "
                f"K={config.step_count} mean={config.mean_pairs:.4f} "
                f"{config.boundary.value} {config.feedback.value} {name}: "
                f"|{observed:.6f}-{target:.6f}|>{tolerance:.2e}"
            )
    return deviations


def test_a4_monte_carlo_agrees_with_chain() -> None:
    # 20 randomized small unconstrained banks, 100k cycles each, measured
    # rates within 4 standard errors of the exact chain solution
    configs = _random_chain_configs(20)
    failures = []
    for config in configs:
        failures += _chain_deviations(config, batch_count=100, batch_cycles=1_000)
    ok = not failures
    detail = f"20 configs, 40 rate comparisons, deviations={failures or 'none'}"
    _verdict("A4 chain agreement", ok, detail)
    assert ok, detail


# fixed banks covering both boundary settings and every feedback mode,
# including a constrained bank too short to have interior rows
EDGE_AND_FEEDBACK_CONFIGS = [
    SimConfig(source_count=100, multiple=4, mean_pairs=0.049, seed=3),
    SimConfig(source_count=11, multiple=4, mean_pairs=0.25, seed=4),
    SimConfig(source_count=5, multiple=9, mean_pairs=0.5, step_count=4, seed=5),
    SimConfig(source_count=30, multiple=8, mean_pairs=0.2, step_count=4, seed=6, feedback="boost"),
    SimConfig(
        source_count=20, multiple=4, mean_pairs=0.1, seed=7,
        feedback="turbo_boost", feedback_strength=2.0,
    ),
    SimConfig(
        source_count=100, multiple=4, mean_pairs=0.03, seed=8,
        boundary="unconstrained", feedback="boost",
    ),
    SimConfig(
        source_count=20, multiple=4, mean_pairs=0.15, seed=9,
        boundary="unconstrained", feedback="turbo_boost",
    ),
    SimConfig(
        source_count=40, multiple=16, mean_pairs=0.3, step_count=5, seed=10,
        feedback="turbo_boost",
    ),
]


def test_a4_chain_agreement_with_edges_and_feedback() -> None:
    # the A4 rule on banks with edge-row limits or pump feedback, which
    # the exact chain now models: 40k cycles each, in 100 batches
    failures = []
    for config in EDGE_AND_FEEDBACK_CONFIGS:
        failures += _chain_deviations(config, batch_count=100, batch_cycles=400)
    ok = not failures
    detail = (
        f"{len(EDGE_AND_FEEDBACK_CONFIGS)} configs, "
        f"{2 * len(EDGE_AND_FEEDBACK_CONFIGS)} rate comparisons, "
        f"deviations={failures or 'none'}"
    )
    _verdict("A4 chain agreement, edges and feedback", ok, detail)
    assert ok, detail


def test_a5_storage_capacity_rule() -> None:
    expected = {m: 8 - m for m in range(1, 9)}
    actual = {m: storage_capacity(3, m) for m in range(1, 9)}
    overflow_rejected = False
    try:
        storage_capacity(3, 9)
    except ParameterError:
        overflow_rejected = True
    ok = actual == expected and actual[6] == 2 and overflow_rejected
    detail = f"capacities={actual} train longer than 8 rejected={overflow_rejected}"
    _verdict("A5 storage capacity rule", ok, detail)
    assert ok, detail


def test_a6_per_cycle_conservation() -> None:
    # photons counted from the routed (row, delay) pairs themselves: each
    # kept photon comes from its own clicked row and takes its own target
    # at or behind the stored ones, and heralds plus stored photons equal
    # filled slots plus photons stored plus discards
    config = SimConfig(
        source_count=100, multiple=4, mean_pairs=0.1, cycles=100_000, seed=7
    )
    m = config.multiple
    violations = 0
    for counts, storage, plan, _, _ in reference_cycles(config):
        level = len(storage)
        rows = [row for row, _ in plan.assignments]
        delays = [delay for _, delay in plan.assignments]
        clicked = set((np.flatnonzero(counts) + 1).tolist())
        own_targets = delays == sorted(set(delays)) and all(d >= level for d in delays)
        own_rows = len(set(rows)) == len(rows) and set(rows) <= clicked
        in_slots = sum(1 for d in delays if d < m)
        filled = min(level, m) + in_slots
        stored = max(level - m, 0) + len(delays) - in_slots
        inflow = len(clicked) + level
        outflow = filled + stored + plan.discarded
        counted = plan.lack_count == m - filled and plan.storage_level == stored
        if inflow != outflow or not (own_targets and own_rows and counted):
            violations += 1
    ok = violations == 0
    detail = f"{config.cycles} cycles checked, violations={violations}"
    _verdict("A6 photon conservation", ok, detail)
    assert ok, detail


def test_a7_scaling_trends() -> None:
    def lack_at(source_count: int, mean: float) -> float:
        return run_simulation(
            SimConfig(
                source_count=source_count,
                multiple=4,
                mean_pairs=mean,
                cycles=100_000,
                seed=99,
            )
        ).lack_rate

    def multi_at(mean: float) -> float:
        return run_simulation(
            SimConfig(
                source_count=100, multiple=4, mean_pairs=mean, cycles=100_000, seed=99
            )
        ).multi_rate

    lacks = [lack_at(s, 0.05) for s in (25, 50, 100, 200)]
    decreasing = all(a > b for a, b in zip(lacks, lacks[1:]))
    ratio = multi_at(0.10) / multi_at(0.05)
    ratio_ok = 1.8 <= ratio <= 2.2
    ok = decreasing and ratio_ok
    detail = (
        f"lack over sizes (25,50,100,200)={[f'{v:.4f}' for v in lacks]} "
        f"multi ratio 0.10/0.05={ratio:.3f}"
    )
    _verdict("A7 scaling trends", ok, detail)
    assert ok, detail


def test_a8_monotone_routing() -> None:
    # 10k random cycles per train length: random storage levels and herald
    # patterns (fire probability 0.3), both boundary settings
    rng = np.random.default_rng(11)
    checked = 0
    failures = 0
    for multiple in (4, 6, 8):
        capacity = storage_capacity(3, multiple)
        banks = [
            SimConfig(source_count=11, multiple=multiple, mean_pairs=0.1, boundary=boundary)
            for boundary in BoundaryMode
        ]
        for _ in range(10_000):
            level = int(rng.integers(0, capacity + 1))
            fired = rng.random(11) < 0.3
            counts = np.where(fired, rng.integers(1, 4, 11), 0).astype(np.int64)
            clicks = herald(counts)
            for bank in banks:
                plan = plan_cycle(bank, clicks, level)
                checked += 1
                if not verify_monotone_assignment(plan.assignments):
                    failures += 1
    ok = failures == 0
    detail = f"{checked} plans checked, non-monotone={failures}"
    _verdict("A8 monotone routing", ok, detail)
    assert ok, detail


def test_a9_deterministic_output(tmp_path) -> None:
    argv = [
        "simulate",
        "--sources", "100",
        "--multiple", "4",
        "--mean-pairs", "0.049",
        "--cycles", "20000",
        "--seed", "42",
    ]
    out_a = tmp_path / "first.csv"
    out_b = tmp_path / "second.csv"
    code_a = run_command(argv + ["--out", str(out_a)])
    code_b = run_command(argv + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    detail = f"exits=({code_a},{code_b}) byte-identical={identical}"
    _verdict("A9 deterministic output", ok, detail)
    assert ok, detail
