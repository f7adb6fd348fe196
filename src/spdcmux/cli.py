"""Command line front end.

Subcommands
-----------
simulate
    One Monte Carlo run, one CSV row.
oracle
    Exact steady-state rates for the same configuration, one CSV row.
    The boundary defaults to unconstrained here.
sweep
    Scan pump power, train multiple or bank size over a grid and emit
    one row per grid point and engine; both engines describe the same
    bank, boundary and feedback included.
optimize
    Solve for the pump power where lack and multi-pair rates balance in
    the unconstrained bank without feedback, optionally confirming with
    a Monte Carlo run.
verify-topology
    Dump the delay reachability table of a bank as 0/1 cells.

Configuration comes from ``key=value`` lines in a file passed with
``--config``, from direct flags, or both; flags win.  Recognised keys:
sources, steps, multiple, mean_pairs, cycles, seed, feedback,
feedback_strength, boundary.

All rate output is CSV with a fixed header and newline-terminated lines,
so identical invocations produce byte-identical files.  Measured values
are printed to 6 significant digits; identifiers (seed, cycles, event
counts) are printed exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConservationError, ConvergenceError, ParameterError
from .oracle import MAX_CONSTRAINED_STEP_COUNT, optimized_power, stationary_rates
from .register import RegisterTopology
from .simulator import (
    BoundaryMode,
    FeedbackMode,
    FeedbackPolicy,
    SimConfig,
    derive_point_seed,
    run_simulation,
)

__all__ = [
    "SweepRow",
    "emit_csv",
    "format_config",
    "main",
    "parse_config",
    "run_command",
]

_HEADER = (
    "param,lack_rate,multi_rate,relative_multi_rate,"
    "filled,discarded,mean_storage,engine,seed,cycles"
)

_CONFIG_KEYS = (
    "sources",
    "steps",
    "multiple",
    "mean_pairs",
    "cycles",
    "seed",
    "feedback",
    "feedback_strength",
    "boundary",
)
_MANDATORY_KEYS = ("sources", "multiple", "mean_pairs")


@dataclass(frozen=True)
class SweepRow:
    """One output record: a parameter value and the rates measured there."""

    param: float
    lack_rate: float
    multi_rate: float
    relative_multi_rate: float
    filled: float
    discarded: float
    mean_storage: float
    engine: str
    seed: int
    cycles: int


def _format_value(value: float | int) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return "nan"
    return format(number, ".6g")


def emit_csv(rows: Iterable[SweepRow]) -> str:
    """Render rows as CSV text: fixed header, LF endings, trailing newline."""
    lines = [_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _format_value(row.param),
                    _format_value(row.lack_rate),
                    _format_value(row.multi_rate),
                    _format_value(row.relative_multi_rate),
                    _format_value(row.filled),
                    _format_value(row.discarded),
                    _format_value(row.mean_storage),
                    row.engine,
                    _format_value(int(row.seed)),
                    _format_value(int(row.cycles)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ParameterError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key in pairs:
            raise ParameterError(f"config line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _cast(key: str, value: str, kind: Callable[[str], object]) -> object:
    try:
        return kind(value)
    except ValueError as exc:
        raise ParameterError(f"invalid value for {key!r}: {value!r}") from exc


def _config_from_mapping(pairs: dict[str, str]) -> SimConfig:
    unknown = sorted(set(pairs) - set(_CONFIG_KEYS))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k in _MANDATORY_KEYS if k not in pairs)
    if missing:
        raise ParameterError(f"missing mandatory config keys: {', '.join(missing)}")

    mode = _cast("feedback", pairs.get("feedback", "off"), FeedbackMode)
    strength = _cast("feedback_strength", pairs.get("feedback_strength", "1.0"), float)
    return SimConfig(
        source_count=_cast("sources", pairs["sources"], int),
        multiple=_cast("multiple", pairs["multiple"], int),
        mean_pairs=_cast("mean_pairs", pairs["mean_pairs"], float),
        step_count=_cast("steps", pairs.get("steps", "3"), int),
        cycles=_cast("cycles", pairs.get("cycles", "100000"), int),
        seed=_cast("seed", pairs.get("seed", "0"), int),
        feedback=FeedbackPolicy(mode=mode, strength=strength),
        boundary=_cast("boundary", pairs.get("boundary", "constrained"), BoundaryMode),
    )


def parse_config(text: str) -> SimConfig:
    """Parse ``key=value`` config text into a validated run configuration.

    Blank lines and ``#`` comments are ignored.  ``sources``, ``multiple``
    and ``mean_pairs`` are mandatory; everything else has defaults.
    Unknown and duplicate keys are rejected rather than ignored.
    """
    return _config_from_mapping(_parse_pairs(text))


def format_config(config: SimConfig) -> str:
    """Inverse of :func:`parse_config`: text that parses back to ``config``."""
    lines = [
        f"sources={config.source_count}",
        f"steps={config.step_count}",
        f"multiple={config.multiple}",
        f"mean_pairs={config.mean_pairs!r}",
        f"cycles={config.cycles}",
        f"seed={config.seed}",
        f"feedback={config.feedback.mode.value}",
        f"feedback_strength={config.feedback.strength!r}",
        f"boundary={config.boundary.value}",
    ]
    return "\n".join(lines) + "\n"


def _monte_carlo_row(config: SimConfig, param: float) -> SweepRow:
    metrics = run_simulation(config)
    return SweepRow(
        param=param,
        lack_rate=metrics.lack_rate,
        multi_rate=metrics.multi_rate,
        relative_multi_rate=metrics.relative_multi_rate,
        filled=metrics.filled_count,
        discarded=metrics.discarded_count,
        mean_storage=metrics.mean_storage_level,
        engine="monte_carlo",
        seed=config.seed,
        cycles=config.cycles,
    )


def _oracle_row(config: SimConfig, param: float) -> SweepRow:
    """Exact-chain counterpart of a run: rates are stationary, counts are
    stationary expectations over the same number of cycles."""
    rates = stationary_rates(config)
    filled = (1.0 - rates.lack_rate) * config.multiple * config.cycles
    discarded = max(0.0, rates.mean_heralds * config.cycles - filled)
    return SweepRow(
        param=param,
        lack_rate=rates.lack_rate,
        multi_rate=rates.multi_rate,
        relative_multi_rate=rates.relative_multi_rate,
        filled=filled,
        discarded=discarded,
        mean_storage=rates.mean_storage,
        engine="oracle",
        seed=config.seed,
        cycles=config.cycles,
    )


def _gather_config(
    args: argparse.Namespace, defaults: dict[str, str] | None = None
) -> SimConfig:
    pairs: dict[str, str] = {}
    if getattr(args, "config", None) is not None:
        pairs = _parse_pairs(Path(args.config).read_text())
    overrides = {
        "sources": getattr(args, "sources", None),
        "steps": getattr(args, "register_steps", None),
        "multiple": getattr(args, "multiple", None),
        "mean_pairs": getattr(args, "mean_pairs", None),
        "cycles": getattr(args, "cycles", None),
        "seed": getattr(args, "seed", None),
        "feedback": getattr(args, "feedback", None),
        "feedback_strength": getattr(args, "feedback_strength", None),
        "boundary": getattr(args, "boundary", None),
    }
    for key, value in overrides.items():
        if value is not None:
            pairs[key] = str(value)
    for key, value in (defaults or {}).items():
        pairs.setdefault(key, value)
    return _config_from_mapping(pairs)


def _cmd_simulate(args: argparse.Namespace) -> str:
    config = _gather_config(args)
    return emit_csv([_monte_carlo_row(config, config.mean_pairs)])


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = _gather_config(args, defaults={"boundary": BoundaryMode.UNCONSTRAINED.value})
    return emit_csv([_oracle_row(config, config.mean_pairs)])


def _grid_values(args: argparse.Namespace) -> list[float]:
    has_list = args.values is not None
    has_range = (
        args.grid_from is not None or args.grid_to is not None or args.grid_steps is not None
    )
    if has_list == has_range:
        raise ParameterError("provide either --values or the --from/--to/--steps range")
    if has_list:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ParameterError(f"invalid --values list: {args.values!r}") from exc
        if not values:
            raise ParameterError("--values is empty")
        return values
    if args.grid_from is None or args.grid_to is None or args.grid_steps is None:
        raise ParameterError("--from, --to and --steps must be given together")
    if args.grid_steps < 1:
        raise ParameterError(f"--steps must be at least 1, got {args.grid_steps}")
    return [float(v) for v in np.linspace(args.grid_from, args.grid_to, args.grid_steps)]


def _apply_sweep_param(config: SimConfig, param: str, value: float) -> SimConfig:
    if param == "power":
        return replace(config, mean_pairs=value)
    if not math.isfinite(value):
        raise ParameterError(f"--param {param} needs finite grid values, got {value!r}")
    rounded = round(value)
    if abs(value - rounded) > 1e-9:
        raise ParameterError(f"--param {param} needs integer grid values, got {value!r}")
    if param == "multiple":
        return replace(config, multiple=int(rounded))
    if param == "size":
        return replace(config, source_count=int(rounded))
    raise ParameterError(f"unknown sweep parameter {param!r}")


# the swept key is replaced at every grid point, so the base config only
# needs a syntactically valid stand-in for it
_SWEEP_PLACEHOLDERS = {
    "power": {"mean_pairs": "0.05"},
    "multiple": {"multiple": "1"},
    "size": {"sources": "1"},
}


def _cmd_sweep(args: argparse.Namespace) -> str:
    base = _gather_config(args, defaults=_SWEEP_PLACEHOLDERS.get(args.param))
    values = _grid_values(args)
    rows: list[SweepRow] = []
    for index, value in enumerate(values):
        point = _apply_sweep_param(base, args.param, value)
        # each grid point gets its own derived stream so point order and
        # parallel evaluation cannot change the numbers
        point = replace(point, seed=derive_point_seed(base.seed, index))
        if args.engine in ("monte_carlo", "both"):
            rows.append(_monte_carlo_row(point, value))
        if args.engine in ("oracle", "both"):
            rows.append(_oracle_row(point, value))
    return emit_csv(rows)


def _cmd_optimize(args: argparse.Namespace) -> str:
    mean = optimized_power(
        args.sources, args.multiple, args.register_steps, tolerance=args.tolerance
    )
    config = SimConfig(
        source_count=args.sources,
        multiple=args.multiple,
        mean_pairs=mean,
        step_count=args.register_steps,
        cycles=args.cycles,
        seed=args.seed,
        boundary=BoundaryMode.UNCONSTRAINED,
    )
    rows = [_oracle_row(config, mean)]
    if args.confirm:
        rows.append(_monte_carlo_row(config, mean))
    return emit_csv(rows)


def _cmd_verify_topology(args: argparse.Namespace) -> str:
    topology = RegisterTopology(source_count=args.sources, step_count=args.register_steps)
    table = topology.access_table
    lines = ["source," + ",".join(f"d{d}" for d in range(topology.delay_count))]
    for i in range(1, topology.source_count + 1):
        cells = ",".join("1" if table[i - 1, d] else "0" for d in range(topology.delay_count))
        lines.append(f"{i},{cells}")
    return "\n".join(lines) + "\n"


def _add_device_arguments(parser: argparse.ArgumentParser, *, steps_flag: str = "--steps") -> None:
    parser.add_argument("--config", type=Path, help="key=value configuration file")
    parser.add_argument("--sources", type=int, help="number of source rows")
    parser.add_argument(
        steps_flag, dest="register_steps", type=int, help="binary delay stages in the register"
    )
    parser.add_argument("--multiple", type=int, help="photons per emitted train")
    parser.add_argument("--mean-pairs", dest="mean_pairs", type=float, help="mean pairs per source per cycle")
    parser.add_argument("--cycles", type=int, help="clock cycles to simulate")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument(
        "--feedback", choices=[m.value for m in FeedbackMode], help="pump feedback mode"
    )
    parser.add_argument(
        "--feedback-strength", dest="feedback_strength", type=float, help="pump feedback gain"
    )
    parser.add_argument(
        "--boundary",
        choices=[m.value for m in BoundaryMode],
        help="keep or ignore edge-row reachability limits",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcmux",
        description="Multiplexed heralded single-photon source: simulation and exact rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one Monte Carlo simulation")
    _add_device_arguments(p)
    p.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "oracle",
        help="exact steady-state rates for one configuration",
        description=(
            "Exact steady-state rates of the storage-level chain, boundary and "
            "feedback included.  The boundary defaults to unconstrained; a "
            f"constrained chain takes at most {MAX_CONSTRAINED_STEP_COUNT} register steps."
        ),
    )
    _add_device_arguments(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("sweep", help="scan a parameter over a grid")
    _add_device_arguments(p, steps_flag="--register-steps")
    p.add_argument(
        "--param", required=True, choices=["power", "multiple", "size"], help="quantity to scan"
    )
    p.add_argument("--values", help="comma separated grid values")
    p.add_argument("--from", dest="grid_from", type=float, help="grid start (inclusive)")
    p.add_argument("--to", dest="grid_to", type=float, help="grid end (inclusive)")
    p.add_argument("--steps", dest="grid_steps", type=int, help="number of grid points")
    p.add_argument(
        "--engine", choices=["monte_carlo", "oracle", "both"], default="both",
        help="which engine(s) to evaluate at each point",
    )
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("optimize", help="balance lack against multi-pair rate")
    p.add_argument("--sources", type=int, required=True)
    p.add_argument("--multiple", type=int, required=True)
    p.add_argument("--steps", dest="register_steps", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-6, help="|lack - multi| stop threshold")
    p.add_argument(
        "--confirm", action="store_true",
        help="append a Monte Carlo run at the optimum (unconstrained, matching the oracle model)",
    )
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("verify-topology", help="dump the reachability table of a bank")
    p.add_argument("--sources", type=int, required=True)
    p.add_argument("--steps", dest="register_steps", type=int, default=3)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_verify_topology)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code.

    Usage mistakes exit 2 (argparse convention), domain and numeric
    failures (including a float overflow, an allocation the memory limit
    refuses and a photon conservation violation) exit 1 with a message on
    stderr, success exits 0.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        text = args.handler(args)
        out = getattr(args, "out", None)
        if out is not None:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
    except (
        ParameterError, ConvergenceError, ConservationError, OverflowError, MemoryError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
