"""Workload command lists and the checks applied to their outputs.

A workload is a list of CLI argument vectors that one caller runs in
order (a closed loop). ``NOTES.md`` says why each workload was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("mc_reference", "mc_wide_feedback", "oracle_deep")

# Simulated cycles per `simulate` command, full size and smoke size.
MC_CYCLES = 5_000
SMOKE_MC_CYCLES = 300

# Stream references exist for simulate seeds 0 .. REFERENCE_SEEDS - 1; the
# workload seed n runs the simulate command with seed n % REFERENCE_SEEDS,
# so every workload seed has a byte-exact reference to check against.
REFERENCE_SEEDS = 32

# Oracle and optimize rows are compared field by field within this relative
# tolerance. The CSV carries 6 significant digits (a last-digit flip is at
# most 1e-5 relative), and a direct solve or a vectorised chain build moves
# the rates in far lower digits; a real change of model moves them by more.
REL_TOL = 1e-4
# Rates below this are compared absolutely (a lack rate can sit near zero).
ABS_TOL = 1e-9

# `--cycles` echoed by oracle and optimize rows; it only scales the counts.
ORACLE_CYCLES = 100_000

CSV_FIELDS = (
    "param",
    "lack_rate",
    "multi_rate",
    "relative_multi_rate",
    "filled",
    "discarded",
    "mean_storage",
    "engine",
    "seed",
    "cycles",
)
RATE_FIELDS = ("lack_rate", "multi_rate", "relative_multi_rate")
COUNT_FIELDS = ("lack_count", "multi_count", "discarded_count", "filled_count", "herald_count")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``reference_key`` names the recorded output it is checked against; it
    is None for a command whose check is only ``finite_rates`` (exit 0
    with finite rates in [0, 1]).
    """

    argv: tuple[str, ...]
    sources: int
    steps: int
    multiple: int
    cycles: int
    seed: int
    reference_key: str | None

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _simulate(sources, steps, multiple, mean, boundary, feedback, cycles, seed) -> Command:
    argv = (
        "simulate",
        "--sources", str(sources),
        "--steps", str(steps),
        "--multiple", str(multiple),
        "--mean-pairs", repr(mean),
        "--boundary", boundary,
        "--feedback", feedback,
        "--cycles", str(cycles),
        "--seed", str(seed),
    )
    return Command(argv, sources, steps, multiple, cycles, seed, " ".join(argv))


def _exact(kind, sources, steps, multiple, seed, mean=None, *, checked=True) -> Command:
    """An `oracle` or `optimize` command; its seed only labels the CSV row,
    so the reference key leaves it out."""
    argv = [kind, "--sources", str(sources), "--steps", str(steps), "--multiple", str(multiple)]
    if mean is not None:
        argv += ["--mean-pairs", repr(mean)]
    argv += ["--cycles", str(ORACLE_CYCLES)]
    key = " ".join(argv) if checked else None
    argv += ["--seed", str(seed)]
    return Command(tuple(argv), sources, steps, multiple, ORACLE_CYCLES, seed, key)


def _critical_mean(sources: int, multiple: int, load: float) -> float:
    """Mean pairs per source that gives sources * p_herald = load * multiple."""
    return -math.log1p(-load * multiple / sources)


def commands(workload: str, seed: int, *, smoke: bool = False) -> list[Command]:
    """The command list of one pass of ``workload`` for workload seed ``seed``."""
    if workload == "mc_reference":
        # A1: the paper's reference operating point, constrained bank
        cycles = SMOKE_MC_CYCLES if smoke else MC_CYCLES
        return [_simulate(100, 3, 4, 0.049, "constrained", "off", cycles, seed % REFERENCE_SEEDS)]
    if workload == "mc_wide_feedback":
        cycles = SMOKE_MC_CYCLES if smoke else MC_CYCLES
        return [
            _simulate(1000, 5, 16, 0.010, "unconstrained", "turbo_boost", cycles, seed % REFERENCE_SEEDS)
        ]
    if workload == "oracle_deep":
        if smoke:
            deep = [
                _exact("optimize", 40, 4, 8, seed),
                _exact("oracle", 40, 5, 8, seed, _critical_mean(40, 8, 0.95)),
            ]
        else:
            deep = [
                _exact("optimize", 500, 8, 16, seed),
                _exact("oracle", 200, 10, 16, seed, _critical_mean(200, 16, 0.95)),
            ]
        return [
            _exact("optimize", 100, 3, 4, seed),  # A2
            *deep,
            # raises OverflowError in herald_count_distribution at S >= ~1030
            _exact("oracle", 2000, 3, 4, seed, 0.0025, checked=False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _rows(csv_text: str) -> list[dict[str, str]]:
    lines = [line.split(",") for line in csv_text.splitlines()]
    if not lines or tuple(lines[0]) != CSV_FIELDS:
        raise ValueError("CSV header differs from the fixed header")
    if any(len(fields) != len(CSV_FIELDS) for fields in lines[1:]):
        raise ValueError("CSV row has the wrong number of fields")
    return [dict(zip(CSV_FIELDS, fields)) for fields in lines[1:]]


def _close(got: float, want: float, abs_tol: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def check_output(
    command: Command,
    csv_text: str,
    references: dict,
    counts: dict[str, int] | None = None,
) -> str | None:
    """Compare one command's CSV (and, when captured, its SimMetrics counts)
    with the recorded reference. Returns None on a match, else the reason."""
    if command.reference_key is None:
        return _check_finite_rates(command, csv_text)
    reference = references.get(command.reference_key)
    if reference is None:
        return "no recorded reference for this command"
    if command.kind == "simulate":
        if csv_text != reference["csv"]:
            return "CSV differs from the recorded bytes"
        if counts is not None and counts != reference["counts"]:
            return f"SimMetrics counts {counts} differ from recorded {reference['counts']}"
        return None
    try:
        got, want = _rows(csv_text), _rows(reference["csv"])
    except ValueError as exc:
        return str(exc)
    if len(got) != len(want):
        return f"{len(got)} rows, recorded {len(want)}"
    slots = command.cycles * command.multiple
    for row, ref in zip(got, want):
        if row["engine"] != ref["engine"]:
            return f"engine {row['engine']}, recorded {ref['engine']}"
        if row["seed"] != str(command.seed) or row["cycles"] != str(command.cycles):
            return "seed or cycles column does not echo the command"
        for name in ("param", *RATE_FIELDS, "mean_storage", "filled", "discarded"):
            # counts scale with the slot count, so their absolute floor does too
            floor = REL_TOL * slots if name in ("filled", "discarded") else ABS_TOL
            if not _close(float(row[name]), float(ref[name]), floor):
                return f"{name} {row[name]} differs from recorded {ref[name]}"
    return None


def _check_finite_rates(command: Command, csv_text: str) -> str | None:
    try:
        rows = _rows(csv_text)
    except ValueError as exc:
        return str(exc)
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    for name in RATE_FIELDS:
        value = float(rows[0][name])
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"{name} {rows[0][name]} is not a finite rate in [0, 1]"
    return None


def sim_counts(metrics) -> dict[str, int]:
    """The exact result counts of a SimMetrics."""
    return {name: int(getattr(metrics, name)) for name in COUNT_FIELDS}
