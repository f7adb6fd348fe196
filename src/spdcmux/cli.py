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
    the bank as given, boundary and feedback included, optionally
    confirming with a Monte Carlo run.  The boundary defaults to
    unconstrained here.
verify-topology
    Dump the delay reachability table of a bank as 0/1 cells.

Configuration comes from ``key=value`` lines in a file passed with
``--config``, from direct flags, or both; flags win.  The ``--config``
help lists the recognised keys, one per device flag.  The file's blank
lines and ``#`` comments are ignored; unknown and duplicate keys are
rejected rather than ignored.  The library itself takes a ``SimConfig``.

All rate output is CSV with a fixed header and newline-terminated lines,
so identical invocations produce byte-identical files.  Measured values
are printed to 6 significant digits; identifiers (seed, cycles, event
counts) are printed exactly.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import MISSING, astuple, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConservationError, ConvergenceError, ParameterError
from .oracle import MAX_CONSTRAINED_STEP_COUNT, OracleRates, optimized_power, stationary_rates
from .register import RegisterTopology
from .simulator import (
    BoundaryMode,
    FeedbackMode,
    SimConfig,
    derive_point_seed,
    run_simulation,
)

__all__ = ["SweepRow", "emit_csv", "main", "run_command"]

class _Setting(NamedTuple):
    """How one config key's text parses (int, float, or the enum of the
    accepted values), its flag help, the ``SimConfig`` field it sets and
    the ``sweep --param`` name that scans it."""

    parse: type
    help: str
    field: str | None = None
    sweep: str | None = None


# every config key, in file and flag order, one per SimConfig field; a field
# not named here is named like its key, and a key left out keeps its default
_SETTINGS = {
    key: setting._replace(field=setting.field or key)
    for key, setting in {
        "sources": _Setting(int, "number of source rows", "source_count", sweep="size"),
        "steps": _Setting(int, "binary delay stages in the register", "step_count"),
        "multiple": _Setting(int, "photons per emitted train", sweep="multiple"),
        "mean_pairs": _Setting(float, "mean pairs per source per cycle", sweep="power"),
        "cycles": _Setting(int, "clock cycles to simulate"),
        "seed": _Setting(int, "master random seed"),
        "feedback": _Setting(FeedbackMode, "pump feedback mode"),
        "feedback_strength": _Setting(float, "pump feedback gain"),
        "boundary": _Setting(BoundaryMode, "keep or ignore edge-row reachability limits"),
    }.items()
}

# the keys of SimConfig's fields without a default are mandatory
_MANDATORY_FIELDS = {
    f.name for f in fields(SimConfig) if f.default is MISSING and f.default_factory is MISSING
}

# sweep --param name -> the key it scans; --param lists them power, multiple, size
_SWEPT = {s.sweep: key for key, s in reversed(_SETTINGS.items()) if s.sweep}


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


def _format_value(value: float | int | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return "nan"
    return format(number, ".6g")


def emit_csv(rows: Iterable[SweepRow]) -> str:
    """Render rows as CSV text: fixed header, LF endings, trailing newline."""
    lines = [",".join(f.name for f in fields(SweepRow))]
    lines += [",".join(map(_format_value, astuple(row))) for row in rows]
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
    unknown = sorted(set(pairs) - set(_SETTINGS))
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(
        key for key, setting in _SETTINGS.items()
        if setting.field in _MANDATORY_FIELDS and key not in pairs
    )
    if missing:
        raise ParameterError(f"missing mandatory config keys: {', '.join(missing)}")
    return SimConfig(**{
        setting.field: _cast(key, pairs[key], setting.parse)
        for key, setting in _SETTINGS.items()
        if key in pairs
    })


def _monte_carlo_row(config: SimConfig, param: float) -> SweepRow:
    run = run_simulation(config)
    return SweepRow(
        param, run.lack_rate, run.multi_rate, run.relative_multi_rate, run.filled_count,
        run.discarded_count, run.mean_storage_level, "monte_carlo", config.seed, config.cycles,
    )


def _oracle_row(config: SimConfig, param: float, rates: OracleRates) -> SweepRow:
    """Exact-chain counterpart of a run from the ``rates`` of ``config``:
    rates are stationary, counts are stationary expectations over the same
    number of cycles."""
    filled = rates.fill_rate * config.multiple * config.cycles
    return SweepRow(
        param, rates.lack_rate, rates.multi_rate, rates.relative_multi_rate, filled,
        rates.mean_discards * config.cycles, rates.mean_storage, "oracle", config.seed, config.cycles,
    )


def _gather_config(args: argparse.Namespace, **defaults: str) -> SimConfig:
    """The bank of a config file and the flags, which win; ``defaults``
    (by key) stand in for keys that neither gives."""
    pairs: dict[str, str] = {}
    if getattr(args, "config", None) is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParameterError(
                f"config file {args.config} is not UTF-8 text ({exc.reason} at offset {exc.start})"
            ) from exc
        pairs = _parse_pairs(text)
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            pairs[key] = str(value)
    for key, value in defaults.items():
        pairs.setdefault(key, value)
    return _config_from_mapping(pairs)


def _cmd_simulate(args: argparse.Namespace) -> str:
    config = _gather_config(args)
    return emit_csv([_monte_carlo_row(config, config.mean_pairs)])


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = _gather_config(args, boundary=BoundaryMode.UNCONSTRAINED.value)
    return emit_csv([_oracle_row(config, config.mean_pairs, stationary_rates(config))])


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
    setting = _SETTINGS[_SWEPT[param]]
    if setting.parse is int:
        if not math.isfinite(value):
            raise ParameterError(f"--param {param} needs finite grid values, got {value!r}")
        # past 2**53 every float is whole and past every bound the bank accepts:
        # its own check refuses it as given, not as an int of hundreds of digits
        if abs(value) <= 2**53:
            rounded = round(value)
            if abs(value - rounded) > 1e-9:
                raise ParameterError(f"--param {param} needs integer grid values, got {value!r}")
            value = int(rounded)
    return replace(config, **{setting.field: value})


def _cmd_sweep(args: argparse.Namespace) -> str:
    # the swept key is replaced at every grid point, so the base bank only
    # needs a valid stand-in for it
    base = _gather_config(args, **{_SWEPT[args.param]: "1"})
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
            rows.append(_oracle_row(point, value, stationary_rates(point)))
    return emit_csv(rows)


def _cmd_optimize(args: argparse.Namespace) -> str:
    # the pump is solved for, so the bank is read with a stand-in for it
    bank = _gather_config(args, mean_pairs="1", boundary=BoundaryMode.UNCONSTRAINED.value)
    mean, rates = optimized_power(bank, tolerance=args.tolerance)
    config = replace(bank, mean_pairs=mean)
    rows = [_oracle_row(config, mean, rates)]
    if args.confirm:
        rows.append(_monte_carlo_row(config, mean))
    return emit_csv(rows)


def _cmd_verify_topology(args: argparse.Namespace) -> str:
    steps = SimConfig.step_count if args.steps is None else args.steps
    topology = RegisterTopology(source_count=args.sources, step_count=steps)
    delays = topology.delay_count
    # each row renders as one byte array: a digit per delay, commas between
    shape = (topology.source_count, 2 * delays)
    if shape[0] * shape[1] > np.iinfo(np.intp).max:
        # numpy refuses a shape past its index range with a ValueError
        raise MemoryError(f"Unable to allocate a table of shape {shape}: past any address space")
    cells = np.full(shape, ord(","), dtype=np.uint8)
    cells[:, ::2] = topology.access_table
    cells[:, ::2] += ord("0")
    cells[:, -1] = ord("\n")
    header = "source," + ",".join(f"d{d}" for d in range(delays)) + "\n"
    return header + "".join(
        f"{i},{row.tobytes().decode()}" for i, row in enumerate(cells, start=1)
    )


def _add_device_arguments(
    parser: argparse.ArgumentParser,
    keys: Iterable[str] | None = None,
    *,
    flags: dict[str, str] | None = None,
) -> None:
    """One flag per config key in ``keys``; by default every key, beside a
    ``--config`` file.  A subset is read from flags alone, so its mandatory
    keys are required.  ``flags`` renames flags."""
    if keys is None:
        parser.add_argument(
            "--config", type=Path,
            help=f"key=value configuration file; keys: {', '.join(_SETTINGS)}",
        )
    for key in _SETTINGS if keys is None else keys:
        setting = _SETTINGS[key]
        flag = "--" + key.replace("_", "-")
        enum = issubclass(setting.parse, Enum)
        parser.add_argument(
            (flags or {}).get(flag, flag),
            dest=key,
            type=None if enum else setting.parse,
            choices=[mode.value for mode in setting.parse] if enum else None,
            required=keys is not None and setting.field in _MANDATORY_FIELDS,
            help=setting.help,
        )


# built once per process: parsing leaves the parser as it was
@functools.cache
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

    # every command that solves the chain refuses a deeper constrained bank
    depth = f"a constrained chain takes at most {MAX_CONSTRAINED_STEP_COUNT} register steps"
    p = sub.add_parser(
        "oracle",
        help="exact steady-state rates for one configuration",
        description=(
            "Exact steady-state rates of the storage-level chain, boundary and "
            f"feedback included.  The boundary defaults to unconstrained; {depth}."
        ),
    )
    _add_device_arguments(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser(
        "sweep", help="scan a parameter over a grid",
        description=f"Scan a parameter over a grid; in the oracle engine {depth}.",
    )
    _add_device_arguments(p, flags={"--steps": "--register-steps"})
    p.add_argument("--param", required=True, choices=list(_SWEPT), help="quantity to scan")
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

    p = sub.add_parser(
        "optimize", help="balance lack against multi-pair rate",
        description=(
            "Balance lack against multi-pair rate on the exact chain of the bank as "
            f"given.  The boundary defaults to unconstrained; {depth}."
        ),
    )
    # it solves for the pump, so it takes every other setting of the bank
    _add_device_arguments(p, [key for key in _SETTINGS if key != "mean_pairs"])
    p.add_argument("--tolerance", type=float, default=1e-6, help="|lack - multi| stop threshold")
    p.add_argument(
        "--confirm", action="store_true",
        help="append a Monte Carlo run of the same bank at the optimum",
    )
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("verify-topology", help="dump the reachability table of a bank")
    topology = {f.name for f in fields(RegisterTopology)}
    _add_device_arguments(p, [key for key, s in _SETTINGS.items() if s.field in topology])
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_verify_topology)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code.

    Usage mistakes exit 2 (argparse convention), domain and numeric
    failures (including a float overflow, an allocation the memory limit
    refuses or numpy cannot index, and a photon conservation violation)
    exit 1 with a message on stderr, success exits 0.
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
