"""Tests of the benchmark itself; runs take the smoke sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spans import Span, Tracer, layer_totals
from workloads import WORKLOADS, check_output, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((HERE / "references.json").read_text())["outputs"]
SEED = 5


def smoke_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result, lines


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(smoke_run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    named = {"setup_s", "wall_s", "failed_fraction", "peak_rss_mb"}
    if workload.startswith("mc_"):
        named.add("mc_cycles_per_s")
        assert result["failed"] == 0
    assert named <= printed
    assert lines[0].startswith("stamp ")
    assert {"commit", "python", "numpy", "scipy", "nproc", "seed", "cycles_per_command"} <= set(
        json.loads(lines[0][len("stamp "):])
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result, lines = result_of(smoke_run(workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    command = commands(workload, SEED, smoke=True)[0]
    if workload.startswith("mc_"):
        assert value["emission.sample_calls"] == value["scheduler.plan_calls"] == command.cycles
        assert value["emission.uniforms_drawn"] == command.sources * command.cycles
        assert 0 < value["scheduler.fill_yield"] <= 1
        assert any(line.startswith("counts ") and "exact from SimMetrics" in line for line in lines)
    else:
        assert value["oracle.rates_calls"] > 0 and value["oracle.build_cells"] > 0
    spans = ROOT / "bench" / "out" / f"spans-{workload}-seed{SEED}-smoke.csv"
    assert spans.read_text().startswith("command,span,parent,name,start_ns,end_ns\n")


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = smoke_run("mc_reference", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, -1, "root", 0, 100, None),
        Span(1, 1, 0, "child", 10, 40, None),
        Span(1, 2, 1, "grandchild", 15, 25, None),
    ]
    totals = layer_totals(spans)
    assert totals["root"] == (1, 100, 70)
    assert totals["child"] == (1, 30, 20)
    assert totals["grandchild"] == (1, 10, 10)


def test_tracer_records_parents_and_restores_the_module():
    module = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner", lambda args, result: result)
    tracer.wrap(module, "outer", "outer")
    with tracer.installed():
        tracer.command = 7
        assert module.outer(1) == 4
        with pytest.raises(ValueError):
            module.outer(-1)
    assert module.inner is inner and module.outer is outer
    first_outer, first_inner = tracer.spans[0], tracer.spans[1]
    assert (first_outer.name, first_outer.parent) == ("outer", -1)
    assert (first_inner.parent, first_inner.info, first_inner.command) == (first_outer.id, 2, 7)
    assert [s.name for s in tracer.spans] == ["outer", "inner", "outer", "inner"]


def test_check_output_needs_identical_simulate_bytes():
    command = commands("mc_reference", 0, smoke=True)[0]
    csv = REFERENCES[command.reference_key]["csv"]
    assert check_output(command, csv, REFERENCES) is None
    changed = csv[:-2] + ("1" if csv[-2] != "1" else "2") + "\n"
    assert check_output(command, changed, REFERENCES) is not None


def test_check_output_allows_last_digit_noise_in_oracle_rates():
    command = commands("oracle_deep", SEED, smoke=True)[0]
    header, row = REFERENCES[command.reference_key]["csv"].splitlines()
    fields = row.split(",")
    fields[-2] = str(SEED)
    assert check_output(command, f"{header}\n{','.join(fields)}\n", REFERENCES) is None
    for scale, ok in ((1 + 1e-6, True), (1 + 1e-3, False)):
        fields[1] = repr(float(row.split(",")[1]) * scale)
        problem = check_output(command, f"{header}\n{','.join(fields)}\n", REFERENCES)
        assert (problem is None) == ok
