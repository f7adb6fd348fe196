#!/usr/bin/env python3
"""spdcmux benchmark: one workload, run in-process through the CLI entry point.

    python3 bench/run.py --workload mc_reference --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. A run
times ``spdcmux.cli.run_command`` over the workload's command list (see
``workloads.py``) in a closed loop: one warm-up pass, then passes until
``--seconds`` have been measured. Every output is checked against
``references.json``. With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer split, taken from spans
around each module's public functions (see ``spans.py``). The last line of
stdout is the JSON result; the lines before it explain it. ``--smoke``
runs the same structure at tiny sizes.

Exit status is 0 when a result was printed, also when some commands
failed (they are counted in the result), and 2 when the benchmark could
not run at all, for example when ``src/spdcmux`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np

from spans import LayerTotals, Span, Tracer, layer_totals
from workloads import WORKLOADS, Command, check_output, commands, sim_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

# fresh interpreters timed for setup_s; one more launch first, uncounted,
# so that writing bytecode caches is not part of the figure
SETUP_LAUNCHES = 7
SMOKE_SETUP_LAUNCHES = 2
TABLE_BUILDS = 5

# On a shared 2-core virtual machine, the speed of plain Python code drifted
# by up to a quarter over tens of seconds, in process CPU time as much as in
# wall time. wall_cal divides each pass by a calibration loop timed next to
# it, which cancels most of that drift; wall_s stays printed as measured.
CAL_TABLE = np.arange(64)
CAL_STEPS = 20_000
CAL_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_cal": "ratio", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "emission.sample_s": "s",
    "emission.sample_calls": "count",
    "emission.uniforms_drawn": "count",
    "emission.herald_s": "s",
    "scheduler.plan_s": "s",
    "scheduler.plan_calls": "count",
    "scheduler.fill_yield": "ratio",
    "register.table_build_s": "s",
    "simulator.run_s": "s",
    "simulator.self_s": "s",
    "simulator.feedback_s": "s",
    "oracle.rates_calls": "count",
    "oracle.build_s": "s",
    "oracle.solve_s": "s",
    "oracle.pmf_s": "s",
    "oracle.bisect_s": "s",
    "oracle.build_cells": "count",
    "oracle.matrix_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Outcome(NamedTuple):
    command: Command
    span_command: int  # id shared by this command's spans
    seconds: float
    csv: str
    error: str | None  # non-zero exit or escaped exception


class Pass(NamedTuple):
    seconds: float
    outcomes: list[Outcome]


def import_cli():
    if not (SRC / "spdcmux" / "cli.py").is_file():
        raise BenchError(f"no spdcmux sources at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import spdcmux.cli

    if Path(spdcmux.cli.__file__).resolve().parent != SRC / "spdcmux":
        raise BenchError(f"imported spdcmux from {spdcmux.cli.__file__}, not {SRC}")
    return spdcmux.cli


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {REFERENCES}: {exc}") from exc


def run_pass(cli, pass_commands: list[Command], tracer: Tracer) -> Pass:
    """Run every command once, in order; looks ``run_command`` up on the
    module so that a traced run goes through its wrapper."""
    outcomes = []
    pass_start = perf_counter()
    for command in pass_commands:
        tracer.command += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run_command(list(command.argv))
            error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except Exception as exc:  # an escaped exception is a failed operation
            error = f"escaped {type(exc).__name__}: {exc}"
        outcomes.append(
            Outcome(command, tracer.command, perf_counter() - start, out.getvalue(), error)
        )
    return Pass(perf_counter() - pass_start, outcomes)


def sim_results(tracer: Tracer) -> dict[int, object]:
    """SimMetrics returned by each command's run_simulation call, by command id."""
    return {
        s.command: s.info
        for s in tracer.spans
        if s.name == "simulator.run_simulation" and s.info is not None
    }


class Failure(NamedTuple):
    label: str
    problem: str
    wrong_output: bool  # the command succeeded but its output did not match


def failures(passes: list[Pass], references: dict, results: dict[int, object]) -> list[Failure]:
    found = []
    for p in passes:
        for o in p.outcomes:
            if o.error:
                found.append(Failure(o.command.label, o.error, False))
                continue
            metrics = results.get(o.span_command)
            counts = sim_counts(metrics) if metrics is not None else None
            problem = check_output(o.command, o.csv, references, counts)
            if problem:
                found.append(Failure(o.command.label, problem, True))
    return found


def keep_result(args, result):
    return result


def capture_results(cli) -> Tracer:
    """A tracer that only keeps the SimMetrics of each simulate command."""
    tracer = Tracer()
    tracer.wrap(cli, "run_simulation", "simulator.run_simulation", keep_result)
    return tracer


def layer_tracer(cli) -> Tracer:
    """Wrap each layer's public functions where they are looked up."""
    from spdcmux import oracle, simulator

    tracer = Tracer()
    tracer.wrap(cli, "run_command", "cli.run_command")
    tracer.wrap(cli, "run_simulation", "simulator.run_simulation", keep_result)
    tracer.wrap(cli, "optimized_power", "oracle.optimized_power")
    chain = lambda args, result: (args[0].source_count, args[0].capacity)  # noqa: E731
    tracer.wrap(cli, "stationary_rates", "oracle.stationary_rates", chain)
    tracer.wrap(simulator, "sample_cycle_emissions", "emission.sample_cycle_emissions",
                lambda args, result: args[0])
    tracer.wrap(simulator, "herald", "emission.herald")
    tracer.wrap(simulator, "plan_cycle", "scheduler.plan_cycle")
    tracer.wrap(simulator, "apply_feedback", "simulator.apply_feedback")
    # optimized_power reaches these through the oracle module's globals
    tracer.wrap(oracle, "stationary_rates", "oracle.stationary_rates", chain)
    tracer.wrap(oracle, "stationary_distribution", "oracle.stationary_distribution")
    tracer.wrap(oracle, "herald_count_distribution", "oracle.herald_count_distribution")
    return tracer


def calibration_seconds() -> float:
    """Median time of a fixed loop of interpreter and numpy scalar work that
    does not touch spdcmux."""
    runs = []
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(CAL_STEPS):
            total += int(CAL_TABLE[i & 63]) + i * i % 7
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def measured_passes(cli, pass_commands, seconds: float, tracer: Tracer):
    """Passes until ``seconds`` of pass time have been measured, at least one.

    The calibration loop is timed before the first pass and after each pass.
    Returns the passes, and for each pass its wall time divided by the mean
    of the calibration times on either side of it.
    """
    passes: list[Pass] = []
    ratios: list[float] = []
    before = calibration_seconds()
    while not passes or sum(p.seconds for p in passes) < seconds:
        passes.append(run_pass(cli, pass_commands, tracer))
        after = calibration_seconds()
        ratios.append(passes[-1].seconds / ((before + after) / 2.0))
        before = after
    return passes, ratios


def measure_setup(launches: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `import spdcmux.cli` is done."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import spdcmux.cli"
    times = []
    for launch in range(launches + 1):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"`import spdcmux.cli` failed: {done.stderr.decode().strip()}")
        if launch:
            times.append(elapsed)
    return times


def table_build_seconds(pass_commands: list[Command]) -> float:
    """Median time to build a fresh access table for the workload's bank;
    0 for a workload that simulates no bank."""
    from spdcmux.register import RegisterTopology

    banks = {(c.sources, c.steps) for c in pass_commands if c.kind == "simulate"}
    if not banks:
        return 0.0
    runs = []
    for _ in range(TABLE_BUILDS):
        start = perf_counter()
        for sources, steps in banks:
            RegisterTopology(sources, steps).access_table
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spdcmux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args, pass_commands: list[Command]) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "cycles_per_command": [c.cycles for c in pass_commands],
        "smoke": args.smoke,
        "trace": args.trace,
    }


def summary(values: list[float]) -> str:
    middle = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
    return f"median {middle:.6g} of n={len(values)} (quartiles {low:.6g}, {high:.6g})"


def report_counts(passes: list[Pass], results: dict[int, object]) -> None:
    """Exact SimMetrics counts of each simulate command of the first pass,
    beside the counts the benchmark computes from the configuration."""
    for o in passes[0].outcomes:
        metrics = results.get(o.span_command)
        if metrics is None:
            continue
        exact = " ".join(f"{k}={v}" for k, v in sim_counts(metrics).items())
        c = o.command
        print(f"counts seed={c.seed}: exact from SimMetrics: {exact}; "
              f"computed: uniforms_drawn={c.sources * c.cycles} slots={c.multiple * c.cycles}")


def pass_failures(groups: list[tuple[list[Pass], Tracer]], references: dict):
    """Check every pass; each group's tracer holds its commands' SimMetrics."""
    attempted = sum(len(p.outcomes) for passes, _ in groups for p in passes)
    found = [
        f for passes, tracer in groups
        for f in failures(passes, references, sim_results(tracer))
    ]
    for f in sorted(set(found)):
        print(f"failed: {f.label}: {f.problem}")
    print(f"metric failed_fraction {len(found) / attempted:.6g} "
          f"({len(found)} failed of {attempted} attempted)")
    return attempted, found


def mc_rates(passes: list[Pass]) -> list[float]:
    rates = []
    for p in passes:
        sims = [o for o in p.outcomes if o.command.kind == "simulate"]
        if sims:
            rates.append(sum(o.command.cycles for o in sims) / sum(o.seconds for o in sims))
    return rates


def end_to_end(cli, args, pass_commands, references) -> tuple[dict, int, list[Failure]]:
    setup = measure_setup(SMOKE_SETUP_LAUNCHES if args.smoke else SETUP_LAUNCHES)
    capture = capture_results(cli)
    with capture.installed():
        warm = run_pass(cli, pass_commands, capture)
    report_counts([warm], sim_results(capture))
    untraced = Tracer()
    passes, ratios = measured_passes(cli, pass_commands, args.seconds, untraced)
    attempted, found = pass_failures([([warm], capture), (passes, untraced)], references)
    walls = [p.seconds for p in passes]
    print(f"metric setup_s {summary(setup)} s (fresh interpreter to `import spdcmux.cli`)")
    print(f"metric wall_s {summary(walls)} s per pass, after one warm-up pass")
    print(f"metric wall_cal {summary(ratios)} ratio (pass wall time / calibration loop time)")
    rates = mc_rates(passes)
    if rates:
        print(f"metric mc_cycles_per_s {summary(rates)} 1/s (inside `simulate`)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"metric peak_rss_mb {rss:.6g} MB")
    values = {"setup_s": statistics.median(setup), "wall_cal": statistics.median(ratios),
              "peak_rss_mb": rss}
    return values, attempted, found


def per_layer(spans: list[Span], results: list) -> dict:
    """Per-layer figures of one pass, from its spans and its SimMetrics."""
    totals = layer_totals(spans)

    def t(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals(0, 0, 0))

    chains = [s.info for s in spans if s.name == "oracle.stationary_rates"]
    heralds = sum(m.herald_count for m in results)
    filled = sum(m.filled_count for m in results)
    return {
        "emission.sample_s": t("emission.sample_cycle_emissions").self_ns * 1e-9,
        "emission.sample_calls": t("emission.sample_cycle_emissions").calls,
        "emission.uniforms_drawn": sum(
            s.info for s in spans if s.name == "emission.sample_cycle_emissions"
        ),
        "emission.herald_s": t("emission.herald").self_ns * 1e-9,
        "scheduler.plan_s": t("scheduler.plan_cycle").self_ns * 1e-9,
        "scheduler.plan_calls": t("scheduler.plan_cycle").calls,
        "scheduler.fill_yield": filled / heralds if heralds else 0.0,
        "simulator.run_s": t("simulator.run_simulation").total_ns * 1e-9,
        "simulator.self_s": t("simulator.run_simulation").self_ns * 1e-9,
        "simulator.feedback_s": t("simulator.apply_feedback").self_ns * 1e-9,
        "oracle.rates_calls": t("oracle.stationary_rates").calls,
        "oracle.build_s": t("oracle.stationary_rates").self_ns * 1e-9,
        "oracle.solve_s": t("oracle.stationary_distribution").self_ns * 1e-9,
        "oracle.pmf_s": t("oracle.herald_count_distribution").self_ns * 1e-9,
        "oracle.bisect_s": t("oracle.optimized_power").self_ns * 1e-9,
        "oracle.build_cells": sum((cap + 1) * (sources + 1) for sources, cap in chains),
        "oracle.matrix_bytes": sum(8 * (cap + 1) ** 2 for _, cap in chains),
        "cli.self_s": t("cli.run_command").self_ns * 1e-9,
    }


def traced(cli, args, pass_commands, references) -> tuple[dict, int, list[Failure]]:
    capture = capture_results(cli)
    with capture.installed():
        warm = run_pass(cli, pass_commands, capture)
    # untraced and traced passes alternate, so that a drift in machine speed
    # falls on both sides of trace.overhead_s alike
    untraced, tracer = Tracer(), layer_tracer(cli)
    plain: list[Pass] = []
    passes: list[Pass] = []
    origin = perf_counter_ns()
    while not passes or sum(p.seconds for p in plain + passes) < args.seconds:
        plain.append(run_pass(cli, pass_commands, untraced))
        with tracer.installed():
            passes.append(run_pass(cli, pass_commands, tracer))
    results = sim_results(tracer)
    report_counts(passes, results)
    attempted, found = pass_failures(
        [([warm], capture), (plain, untraced), (passes, tracer)], references
    )

    by_command = defaultdict(list)
    for s in tracer.spans:
        by_command[s.command].append(s)
    rows = []
    for p in passes:
        ids = [o.span_command for o in p.outcomes]
        spans = [s for i in ids for s in by_command[i]]
        rows.append(per_layer(spans, [results[i] for i in ids if i in results]))
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["register.table_build_s"] = table_build_seconds(pass_commands)
    plain_wall = statistics.median(p.seconds for p in plain)
    traced_wall = statistics.median(p.seconds for p in passes)
    values["trace.overhead_s"] = traced_wall - plain_wall
    print(f"traced wall_s {summary([p.seconds for p in passes])} s; "
          f"untraced wall_s {summary([p.seconds for p in plain])} s")
    print("computed counts: emission.uniforms_drawn (sources x sample calls), "
          "oracle.build_cells (sum of (capacity+1)(sources+1)), "
          "oracle.matrix_bytes (sum of 8(capacity+1)^2)")
    notes = {
        "register.table_build_s": f"median of {TABLE_BUILDS} builds",
        "trace.overhead_s": "traced minus untraced median pass wall time",
    }
    for name, unit in PER_LAYER_UNITS.items():
        note = notes.get(name, f"median over {len(rows)} traced passes")
        print(f"metric {name} {values[name]:.6g} {unit} ({note})")

    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"spans-{args.workload}-seed{args.seed}{suffix}.csv"
    tracer.write(path, origin)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return values, attempted, found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
        references = load_references()
        pass_commands = commands(args.workload, args.seed, smoke=args.smoke)
        print("stamp " + json.dumps(stamp(args, pass_commands)))
        measure = traced if args.trace else end_to_end
        values, attempted, found = measure(cli, args, pass_commands, references)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        # a command that errors is a failed operation; a wrong output is also incorrect
        "correct": not any(f.wrong_output for f in found),
        "attempted": attempted,
        "failed": len(found),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
