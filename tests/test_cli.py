"""Command line surface: config parsing, CSV shape, subcommands, exit codes."""

import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from spdcmux import cli, simulator
from spdcmux import (
    BoundaryMode,
    FeedbackMode,
    ParameterError,
    SimConfig,
    derive_point_seed,
    optimized_power,
    run_simulation,
    stationary_rates,
)
from spdcmux.cli import SweepRow, emit_csv, run_command
from spdcmux.oracle import MAX_CONSTRAINED_STEP_COUNT

HEADER = (
    "param,lack_rate,multi_rate,relative_multi_rate,"
    "filled,discarded,mean_storage,engine,seed,cycles"
)


def _rows(text: str) -> list[list[str]]:
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


def _python(*argv: str, preexec_fn=None, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports spdcmux from the tree under test."""
    src = str(Path(simulator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        preexec_fn=preexec_fn,
        cwd=cwd,
    )


def _format_config(config: SimConfig) -> str:
    """A config file for ``config``: one ``key=value`` line per setting."""
    lines = []
    for key, setting in cli._SETTINGS.items():
        value = getattr(config, setting.field)
        lines.append(f"{key}={value.value if isinstance(value, Enum) else repr(value)}\n")
    return "".join(lines)


def _read_config(tmp_path: Path, text: str) -> SimConfig:
    """The bank ``simulate --config`` reads from a file holding ``text``."""
    path = tmp_path / "bank.cfg"
    path.write_text(text)
    return cli._gather_config(cli._build_parser().parse_args(["simulate", "--config", str(path)]))


def _assert_rejected(tmp_path: Path, capsys: pytest.CaptureFixture, text: str, match: str) -> None:
    """The config text is refused, and ``simulate`` exits 1 with one error line."""
    with pytest.raises(ParameterError, match=match):
        _read_config(tmp_path, text)
    assert run_command(["simulate", "--config", str(tmp_path / "bank.cfg")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and match in captured.err, captured.err


def test_parse_config_minimal_applies_defaults(tmp_path) -> None:
    config = _read_config(tmp_path, "sources=100\nmultiple=4\nmean_pairs=0.049\n")
    assert config == SimConfig(source_count=100, multiple=4, mean_pairs=0.049)
    assert config.step_count == 3
    assert config.cycles == 100_000
    assert config.feedback is FeedbackMode.OFF
    assert config.boundary is BoundaryMode.CONSTRAINED


def test_parse_config_full_with_comments(tmp_path) -> None:
    text = """
    # bank geometry
    sources = 11
    steps = 3

    multiple = 4      # train length
    mean_pairs = 0.05
    cycles = 2000
    seed = 9
    feedback = turbo_boost
    feedback_strength = 0.5
    boundary = unconstrained
    """
    config = _read_config(tmp_path, text)
    assert config.source_count == 11
    assert config.cycles == 2000
    assert config.seed == 9
    assert config.feedback is FeedbackMode.TURBO_BOOST
    assert config.feedback_strength == 0.5
    assert config.boundary is BoundaryMode.UNCONSTRAINED


def test_parse_config_rejects_unknown_and_duplicate_keys(tmp_path, capsys) -> None:
    base = "sources=5\nmultiple=2\nmean_pairs=0.1\n"
    _assert_rejected(tmp_path, capsys, base + "colour=blue\n", "unknown config keys")
    _assert_rejected(tmp_path, capsys, base + "sources=6\n", "duplicate")


def test_parse_config_rejects_missing_and_malformed_entries(tmp_path, capsys) -> None:
    for text, match in (
        ("sources=5\nmultiple=2\n", "missing mandatory"),
        ("sources\nmultiple=2\nmean_pairs=0.1\n", "key=value"),
        ("sources=five\nmultiple=2\nmean_pairs=0.1\n", "invalid value"),
        ("sources=5\nmultiple=2\nmean_pairs=0.1\nfeedback=warp\n", "invalid value"),
    ):
        _assert_rejected(tmp_path, capsys, text, match)


def test_format_config_round_trips(tmp_path) -> None:
    # --config reads back every bank written by _format_config
    for config in (
        SimConfig(source_count=100, multiple=4, mean_pairs=0.049),
        SimConfig(
            source_count=7,
            multiple=3,
            mean_pairs=0.123456789,
            step_count=2,
            cycles=42,
            seed=17,
            feedback="boost",
            boundary="unconstrained",
        ),
        # whole floats are stored as ints, which the parser reads back
        SimConfig(source_count=10.0, multiple=2.0, mean_pairs=0.3, step_count=3.0, seed=4.0),
        # a numpy scalar pump is stored as a float, so it is written as one
        SimConfig(source_count=10, multiple=4, mean_pairs=np.float64(0.05)),
        # every key away from its default
        SimConfig(
            source_count=2000,
            multiple=16,
            mean_pairs=0.002025,
            step_count=12,
            cycles=7,
            seed=123456789,
            feedback="turbo_boost",
            feedback_strength=0.37,
            boundary="unconstrained",
        ),
    ):
        assert _read_config(tmp_path, _format_config(config)) == config


def test_settings_name_every_sim_config_field() -> None:
    # one config key per SimConfig field, each naming the field itself
    assert {f.name for f in fields(SimConfig)} == {s.field for s in cli._SETTINGS.values()}


def test_emit_csv_shape_and_formatting() -> None:
    rows = [
        SweepRow(
            param=0.123456789,
            lack_rate=0.0218765432,
            multi_rate=math.nan,
            relative_multi_rate=0.025,
            filled=391234,
            discarded=85584.7654,
            mean_storage=2.91640299,
            engine="oracle",
            seed=18446744073709551615,
            cycles=100000,
        )
    ]
    text = emit_csv(rows)
    assert text.endswith("\n")
    assert "\r" not in text
    line = _rows(text)[0]
    assert line == [
        "0.123457",
        "0.0218765",
        "nan",
        "0.025",
        "391234",
        "85584.8",
        "2.9164",
        "oracle",
        "18446744073709551615",
        "100000",
    ]


def test_emit_csv_empty_is_header_only() -> None:
    assert emit_csv([]) == HEADER + "\n"


def test_simulate_writes_csv_to_stdout(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        [
            "simulate",
            "--sources", "11",
            "--multiple", "4",
            "--mean-pairs", "0.1",
            "--cycles", "500",
            "--seed", "3",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0][7] == "monte_carlo"
    assert rows[0][8] == "3"
    assert rows[0][9] == "500"
    assert float(rows[0][0]) == pytest.approx(0.1)
    # a seed past the float range is a seed like any other
    huge = str(2**1024)
    code = run_command(
        ["simulate", "--sources", "10", "--multiple", "4", "--mean-pairs", "0.1", "--seed", huge]
    )
    assert code == 0
    assert _rows(capsys.readouterr().out)[0][8] == huge


def test_simulate_same_seed_is_byte_identical(tmp_path) -> None:
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "simulate",
        "--sources", "11",
        "--multiple", "4",
        "--mean-pairs", "0.1",
        "--cycles", "2000",
        "--seed", "42",
    ]
    assert run_command(argv + ["--out", str(out_a)]) == 0
    assert run_command(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(HEADER.encode())


def test_config_file_with_flag_override(tmp_path, capsys: pytest.CaptureFixture) -> None:
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "sources=11\nmultiple=4\nmean_pairs=0.1\ncycles=500\nseed=1\n"
    )
    assert run_command(["simulate", "--config", str(config_file), "--cycles", "200"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0][9] == "200"
    # every key's flag overrides its file entry; sweep names the register
    # depth --register-steps
    base = SimConfig(source_count=11, multiple=4, mean_pairs=0.1, cycles=500, seed=1,
                     feedback="boost", feedback_strength=0.5, boundary="constrained")
    config_file.write_text(_format_config(base))
    parser = cli._build_parser()
    for command, flag, value, expected in (
        ("simulate", "--sources", "12", replace(base, source_count=12)),
        ("simulate", "--steps", "4", replace(base, step_count=4)),
        ("sweep", "--register-steps", "4", replace(base, step_count=4)),
        ("simulate", "--multiple", "5", replace(base, multiple=5)),
        ("simulate", "--mean-pairs", "0.2", replace(base, mean_pairs=0.2)),
        ("simulate", "--cycles", "200", replace(base, cycles=200)),
        ("simulate", "--seed", "2", replace(base, seed=2)),
        ("simulate", "--feedback", "turbo_boost",
         replace(base, feedback="turbo_boost")),
        ("simulate", "--feedback-strength", "0.37",
         replace(base, feedback_strength=0.37)),
        ("simulate", "--boundary", "unconstrained", replace(base, boundary="unconstrained")),
    ):
        argv = [command, "--config", str(config_file), flag, value]
        if command == "sweep":
            argv += ["--param", "power"]
        assert cli._gather_config(parser.parse_args(argv)) == expected, flag


def test_config_file_with_byte_order_mark(tmp_path) -> None:
    text = "sources=11\nmultiple=4\nmean_pairs=0.1\ncycles=500\nseed=1\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for config in (plain, marked):
        out = tmp_path / f"{config.stem}.csv"
        assert run_command(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_oracle_subcommand_matches_library(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        ["oracle", "--sources", "100", "--multiple", "4", "--mean-pairs", "0.049"]
    )
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    rates = stationary_rates(
        SimConfig(source_count=100, multiple=4, mean_pairs=0.049, boundary="unconstrained")
    )
    assert row[7] == "oracle"
    assert float(row[1]) == pytest.approx(rates.lack_rate, abs=1e-6)
    assert float(row[2]) == pytest.approx(rates.multi_rate, abs=1e-6)
    assert float(row[6]) == pytest.approx(rates.mean_storage, abs=1e-4)


def test_oracle_reads_boundary_and_feedback(capsys: pytest.CaptureFixture) -> None:
    # the oracle defaults to the unconstrained bank, and models edge-row
    # limits and pump feedback when asked to
    device = ["oracle", "--sources", "100", "--multiple", "4", "--mean-pairs", "0.03"]
    for extra, lack in (
        ([], "0.267073"),
        (["--boundary", "constrained"], "0.276742"),
        (["--feedback", "turbo_boost"], "0.0206465"),
    ):
        assert run_command(device + extra) == 0, extra
        assert _rows(capsys.readouterr().out)[0][1] == lack, extra


def test_oracle_row_bookkeeping_follows_the_chain(capsys: pytest.CaptureFixture) -> None:
    # relative multi is multi per filled slot, and discards come from the
    # chain itself: the herald flow is the filled slots plus the discards,
    # under feedback too
    device = ["--sources", "20", "--multiple", "4", "--mean-pairs", "0.15",
              "--feedback", "turbo_boost", "--cycles", "1000"]
    assert run_command(["oracle", *device]) == 0
    row = [float(cell) for cell in _rows(capsys.readouterr().out)[0][:7]]
    config = SimConfig(source_count=20, multiple=4, mean_pairs=0.15, cycles=1000,
                       feedback="turbo_boost", boundary="unconstrained")
    rates = stationary_rates(config)
    filled = rates.fill_rate * 4 * 1000
    assert filled == pytest.approx((1.0 - rates.lack_rate) * 4 * 1000, rel=1e-12)
    assert row[3] == pytest.approx(rates.multi_rate / rates.fill_rate, rel=1e-5)
    assert row[4] == pytest.approx(filled, rel=1e-5)
    assert row[5] == pytest.approx(rates.mean_discards * 1000, rel=1e-5)
    assert rates.mean_heralds == pytest.approx(
        rates.fill_rate * 4 + rates.mean_discards, rel=1e-12
    )
    # filled slots come from the kept photons, not from 1 - lack: a bank whose
    # rows reach no delay fills none and has no relative multi rate, as its
    # Monte Carlo row says, and a faint pump keeps every digit of its fill
    for argv, fields in (
        (["oracle", "--sources", "3", "--steps", "3", "--multiple", "2",
          "--mean-pairs", "0.3", "--boundary", "constrained"], {3: "nan", 4: "0"}),
        (["sweep", "--param", "size", "--values", "2", "--mean-pairs", "0.1",
          "--multiple", "1", "--cycles", "10", "--engine", "both"], {3: "nan", 4: "0"}),
        (["oracle", "--sources", "100", "--multiple", "4", "--mean-pairs", "1e-15"],
         {3: "5e-16", 4: "1e-08", 5: "1.90223e-118"}),
        # at most 15 sources never outrun a 16-photon train: nothing is discarded
        (["sweep", "--param", "size", "--values", "9,10,12,13", "--multiple", "16",
          "--register-steps", "12", "--engine", "oracle", "--mean-pairs", "0.5",
          "--boundary", "unconstrained"], {5: "0"}),
    ):
        assert run_command(argv) == 0, argv
        for row in _rows(capsys.readouterr().out):
            assert {index: row[index] for index in fields} == fields, argv
    # the faint bank discards what passes the eight open targets at level 0:
    # E[max(H - 8, 0)] per cycle with H ~ Binomial(100, p)
    p = -math.expm1(-1e-15)
    expected = sum(
        math.comb(100, h) * p**h * math.exp(-1e-15 * (100 - h)) * (h - 8)
        for h in range(9, 101)
    )
    faint = stationary_rates(SimConfig(source_count=100, multiple=4, mean_pairs=1e-15,
                                       boundary="unconstrained"))
    assert faint.mean_discards == pytest.approx(expected, rel=1e-10)


def test_constrained_oracle_depth_limit_exits_one(capsys: pytest.CaptureFixture) -> None:
    steps = str(MAX_CONSTRAINED_STEP_COUNT + 1)
    argv = ["--sources", "100", "--multiple", "4", "--mean-pairs", "0.05",
            "--boundary", "constrained"]
    for command in (["oracle", *argv, "--steps", steps],
                    ["sweep", *argv, "--register-steps", steps, "--param", "power",
                     "--values", "0.05", "--engine", "oracle"]):
        assert run_command(command) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the constrained chain supports at most "
                                       f"{MAX_CONSTRAINED_STEP_COUNT} register steps"), command


def test_sweep_values_with_both_engines(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        [
            "sweep",
            "--param", "power",
            "--values", "0.03,0.06",
            "--sources", "11",
            "--multiple", "4",
            "--cycles", "300",
            "--seed", "5",
            "--engine", "both",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    assert [r[7] for r in rows] == ["monte_carlo", "oracle", "monte_carlo", "oracle"]
    # both rows of a pair describe the same (default, constrained) bank
    for row, mean in ((rows[1], 0.03), (rows[3], 0.06)):
        exact = stationary_rates(SimConfig(source_count=11, multiple=4, mean_pairs=mean))
        assert float(row[1]) == pytest.approx(exact.lack_rate, rel=1e-5)
    assert float(rows[0][0]) == pytest.approx(0.03)
    assert float(rows[2][0]) == pytest.approx(0.06)
    # every grid point runs on its own derived stream
    assert int(rows[0][8]) == derive_point_seed(5, 0)
    assert int(rows[2][8]) == derive_point_seed(5, 1)
    # at 40 mean pairs p_herald rounds to one, yet the exact chain still
    # weighs each dark source by e**-40
    code = run_command(
        ["sweep", "--param", "power", "--values", "0.05,40", "--sources", "11",
         "--multiple", "4", "--cycles", "300", "--engine", "both"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[7] for r in rows] == ["monte_carlo", "oracle", "monte_carlo", "oracle"]
    exact = stationary_rates(SimConfig(source_count=11, multiple=4, mean_pairs=40.0))
    assert 0.0 < exact.lack_rate < 1e-250
    assert rows[3][1] == format(exact.lack_rate, ".6g")


def test_sweep_range_grid_is_inclusive(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        [
            "sweep",
            "--param", "power",
            "--from", "0.02",
            "--to", "0.06",
            "--steps", "3",
            "--sources", "11",
            "--multiple", "4",
            "--cycles", "200",
            "--engine", "oracle",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [float(r[0]) for r in rows] == pytest.approx([0.02, 0.04, 0.06])


def test_sweep_size_without_sources_flag(capsys: pytest.CaptureFixture) -> None:
    # the swept quantity needs no explicit base value
    code = run_command(
        [
            "sweep",
            "--param", "size",
            "--values", "10,20",
            "--multiple", "4",
            "--mean-pairs", "0.05",
            "--cycles", "200",
            "--engine", "monte_carlo",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["10", "20"]


def test_sweep_grid_misuse_fails_cleanly(capsys: pytest.CaptureFixture) -> None:
    base = ["sweep", "--param", "power", "--sources", "5", "--multiple", "2"]
    assert run_command(base) == 1
    assert run_command(base + ["--values", "0.1", "--from", "0.1"]) == 1
    assert run_command(base + ["--from", "0.1", "--to", "0.2"]) == 1
    assert run_command(base + ["--values", "0.1,oops"]) == 1
    assert run_command(["sweep", "--param", "multiple", "--values", "2.5",
                        "--sources", "5", "--mean-pairs", "0.1", "--cycles", "100"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert run_command(base + ["--values", ","]) == 1
    assert capsys.readouterr().err == "error: --values is empty\n"
    assert run_command(base + ["--from", "0.1", "--to", "0.2", "--steps", "0"]) == 1
    assert capsys.readouterr().err == "error: --steps must be at least 1, got 0\n"
    # non-finite grid values cannot be rounded to a bank size or a train length
    for argv in (["--param", "size", "--multiple", "4"], ["--param", "multiple", "--sources", "5"]):
        for value in ("nan", "inf"):
            assert run_command(["sweep", *argv, "--values", value, "--mean-pairs", "0.05"]) == 1
            assert capsys.readouterr().err.startswith("error: ")


def test_optimize_reports_balanced_point(capsys: pytest.CaptureFixture) -> None:
    code = run_command(["optimize", "--sources", "100", "--multiple", "4", "--steps", "3"])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0][7] == "oracle"
    mean = float(rows[0][0])
    assert 0.04 < mean < 0.06
    assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), abs=1e-4)


def test_optimize_confirm_appends_monte_carlo_row(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        [
            "optimize",
            "--sources", "20",
            "--multiple", "4",
            "--steps", "3",
            "--confirm",
            "--cycles", "2000",
            "--seed", "6",
        ]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r[7] for r in rows] == ["oracle", "monte_carlo"]
    assert rows[0][0] == rows[1][0]


def test_optimize_balances_the_bank_as_given(capsys: pytest.CaptureFixture) -> None:
    code = run_command(
        ["optimize", "--sources", "100", "--steps", "3", "--multiple", "4",
         "--boundary", "constrained", "--feedback", "boost", "--confirm", "--cycles", "2000"]
    )
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    bank = SimConfig(100, 4, 1.0, 3, feedback="boost", cycles=2000)
    mean, _ = optimized_power(bank)
    assert rows[0][0] == format(mean, ".6g")
    # the confirming run simulates the same bank at the optimum
    run = run_simulation(replace(bank, mean_pairs=mean))
    assert rows[1][1:3] == [format(run.lack_rate, ".6g"), format(run.multi_rate, ".6g")]


def test_verify_topology_dumps_reachability_grid(capsys: pytest.CaptureFixture) -> None:
    code = run_command(["verify-topology", "--sources", "11", "--steps", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "source,d0,d1,d2,d3,d4,d5,d6,d7"
    assert lines[1] == "1,1,0,0,0,0,0,0,0"
    assert lines[2] == "2,1,1,1,0,1,0,0,0"
    assert lines[3] == "3,1,1,1,1,1,1,1,0"
    assert lines[9] == "9,0,1,1,1,1,1,1,1"
    assert lines[10] == "10,0,0,0,1,0,1,1,1"
    assert lines[11] == "11,0,0,0,0,0,0,0,1"
    for line in lines[4:9]:
        assert line.endswith("1,1,1,1,1,1,1,1")


def test_usage_errors_exit_two() -> None:
    assert run_command([]) == 2
    assert run_command(["simulate", "--bogus"]) == 2
    assert run_command(["sweep", "--param", "colour"]) == 2
    assert run_command(["no-such-command"]) == 2


def test_domain_errors_exit_one(capsys: pytest.CaptureFixture, tmp_path) -> None:
    assert run_command(
        ["simulate", "--sources", "10", "--multiple", "4", "--mean-pairs", "-0.1"]
    ) == 1
    assert "error:" in capsys.readouterr().err
    assert run_command(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert run_command(["optimize", "--sources", "1", "--multiple", "2", "--steps", "1"]) == 1
    capsys.readouterr()
    # boost triples the pump, so the bracket stops at a third of 32
    assert run_command(
        ["optimize", "--sources", "4", "--multiple", "8", "--steps", "4",
         "--feedback", "boost", "--feedback-strength", "2"]
    ) == 1
    assert capsys.readouterr().err == (
        "error: no lack/multi crossing below mean pair number 10.666666666666666\n"
    )
    # a finite pump whose fed-back pump overflows to infinity
    assert run_command(
        ["oracle", "--sources", "5", "--multiple", "4", "--boundary", "constrained",
         "--mean-pairs", "1e200", "--feedback", "boost", "--feedback-strength", "1e200"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    missing_key = tmp_path / "partial.cfg"
    missing_key.write_text("sources=5\n")
    assert run_command(["simulate", "--config", str(missing_key)]) == 1
    capsys.readouterr()
    not_utf8 = tmp_path / "bad.cfg"
    not_utf8.write_bytes(b"sources=5\n\xff\n")
    assert run_command(["simulate", "--config", str(not_utf8)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {not_utf8} is not UTF-8")


def test_write_failure_exits_one(tmp_path) -> None:
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = run_command(
        [
            "oracle",
            "--sources", "5",
            "--multiple", "2",
            "--mean-pairs", "0.1",
            "--out", str(target),
        ]
    )
    assert code == 1


def test_overflow_exits_one(capsys: pytest.CaptureFixture) -> None:
    # an infinite grid value cannot be rounded to a bank size
    code = run_command(
        ["sweep", "--param", "size", "--values", "1e400",
         "--multiple", "4", "--mean-pairs", "0.05", "--cycles", "10"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_banks_exit_one(capsys: pytest.CaptureFixture) -> None:
    # past 2**53 sources the count is refused before any array is sized
    huge = ["--sources", "100000000000000000000", "--multiple", "4"]
    for command in (
        ["simulate", *huge, "--mean-pairs", "0.05", "--cycles", "10"],
        ["oracle", *huge, "--mean-pairs", "0.05"],
        ["optimize", *huge],
        ["sweep", "--param", "size", "--values", "1e300", "--multiple", "4",
         "--mean-pairs", "0.05", "--cycles", "10"],
        ["sweep", "--param", "size", "--values", "1e300", "--multiple", "4",
         "--mean-pairs", "0.05", "--engine", "oracle"],
    ):
        assert run_command(command) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: source count must be an integer in [1, 2**53]")
        assert captured.err.count("\n") == 1, command
    # so is a cycle count past the float range, before any chain or run starts
    bank = ["--sources", "10", "--multiple", "4", "--cycles", str(10**400)]
    for command in (
        ["simulate", *bank, "--mean-pairs", "0.1"],
        ["oracle", *bank, "--mean-pairs", "0.1"],
        ["optimize", *bank],
        ["sweep", "--param", "power", "--values", "0.1", *bank, "--engine", "oracle"],
    ):
        assert run_command(command) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.startswith("error: cycle count must be an integer in [0, "), command
        assert captured.err.count("\n") == 1, command


def test_sweep_names_a_huge_grid_value_as_given(capsys: pytest.CaptureFixture) -> None:
    # a grid value past 2**53 is refused as parsed, not as an int of 301 digits
    code = run_command(["sweep", "--param", "size", "--values", "1e300", "--multiple", "4",
                        "--mean-pairs", "0.05"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "1e+300" in captured.err


def _random_command(rng: np.random.Generator) -> list[str]:
    """One command line drawn over every command, boundary and feedback mode,
    with K <= 8, 1 .. 300 sources, 0 .. 500 cycles, gains 0 .. 50 and
    pumps 1e-9 .. 316."""
    command = str(rng.choice(["simulate", "oracle", "optimize", "sweep"]))
    steps = int(rng.integers(1, 9))
    bank = {
        "--steps": steps,
        "--sources": int(rng.integers(1, 301)),
        "--multiple": int(rng.integers(1, 2**steps + 1)),
        "--mean-pairs": 10 ** rng.uniform(-9, 2.5),
        "--cycles": int(rng.integers(0, 501)),
        "--seed": int(rng.integers(0, 2**16)),
        "--feedback": str(rng.choice([mode.value for mode in FeedbackMode])),
        "--feedback-strength": rng.uniform(0, 50),
        "--boundary": str(rng.choice([mode.value for mode in BoundaryMode])),
    }
    argv = [command]
    if command == "optimize":
        del bank["--mean-pairs"]
        if rng.random() < 0.2:
            argv.append("--confirm")
    if command == "sweep":
        bank["--register-steps"] = bank.pop("--steps")
        param = str(rng.choice(["power", "multiple", "size"]))
        grid = {
            "power": lambda: repr(10 ** rng.uniform(-9, 2.5)),
            "multiple": lambda: str(rng.integers(1, 2**steps + 1)),
            "size": lambda: str(rng.integers(1, 301)),
        }[param]
        values = ",".join(grid() for _ in range(rng.integers(1, 4)))
        engine = str(rng.choice(["monte_carlo", "oracle", "both"]))
        argv += ["--param", param, "--values", values, "--engine", engine]
    for flag, value in bank.items():
        argv += [flag, repr(value) if isinstance(value, float) else str(value)]
    return argv


def test_random_commands_exit_zero_or_one_with_one_error_line(
    capsys: pytest.CaptureFixture,
) -> None:
    # a seeded fuzz: every call prints its rows and nothing on stderr, no
    # numpy warning included, or prints nothing and one error: line
    rng = np.random.default_rng(26)
    for _ in range(400):
        argv = _random_command(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command(argv)
        captured = capsys.readouterr()
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 0:
            assert captured.err == "", argv
            _rows(captured.out)
        else:
            assert code == 1, argv
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_out_of_memory_exits_one() -> None:
    def limit_address_space() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    # routing builds no reachability table, so three million rows at K=12
    # simulate in a 1 GiB address space
    bank = ["--sources", "3000000", "--steps", "12"]
    run = ["--multiple", "4", "--mean-pairs", "0.01", "--cycles", "1"]
    result = _python("-m", "spdcmux", "simulate", *bank, *run, preexec_fn=limit_address_space)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 2  # the CSV header and one row
    # 200 million rows need 1.49 GiB of uniforms, and printing the
    # 3 million by 4096 table needs an 11.4 GiB one: both are refused
    for argv in (
        ["simulate", "--sources", "200000000", "--steps", "12", *run],
        ["verify-topology", *bank],
    ):
        result = _python("-m", "spdcmux", *argv, preexec_fn=limit_address_space)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("error: "), result.stderr
        assert "Traceback" not in result.stderr


def test_error_without_text_names_its_class(monkeypatch, capsys: pytest.CaptureFixture) -> None:
    # a bare MemoryError has no message; the line still says what failed
    def exhausted(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "stationary_rates", exhausted)
    assert run_command(["oracle", "--sources", "10", "--multiple", "4", "--mean-pairs", "0.1"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_unsampleable_pump_exits_one(capsys: pytest.CaptureFixture) -> None:
    # exp(-800) underflows, so every source would read exactly one pair
    code = run_command(
        ["simulate", "--sources", "20", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "800", "--cycles", "200", "--seed", "1"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mean pair number 800.0 is too large")
    # boost doubles a samplable base pump past the limit on the first cycle
    code = run_command(
        ["simulate", "--sources", "20", "--multiple", "4", "--mean-pairs", "400",
         "--feedback", "boost", "--cycles", "10"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mean pair number 800.0 is too large")


def test_unsampleable_fed_back_pump_names_the_setting(capsys: pytest.CaptureFixture) -> None:
    # boost raises a samplable pump of 304.43 by a gain of 41.62, past the
    # largest pump the sampler takes; the line names the pump as given
    code = run_command(
        ["simulate", "--sources", "20", "--multiple", "4", "--mean-pairs", "304.43",
         "--feedback", "boost", "--feedback-strength", "41.62", "--cycles", "10"]
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: mean pair number 12974.8066 is too large to sample")
    assert err.endswith("from mean pair number 304.43 with feedback boost at gain 41.62\n")


def test_conservation_violation_exits_one(monkeypatch, capsys: pytest.CaptureFixture) -> None:
    real_plan_cycle = simulator.plan_cycle

    def leaky_plan_cycle(config, clicks, level):
        plan = real_plan_cycle(config, clicks, level)
        # two photons routed to the same target
        return plan._replace(assignments=[(1, level), (2, level), *plan.assignments])

    monkeypatch.setattr(simulator, "plan_cycle", leaky_plan_cycle)
    code = run_command(
        ["simulate", "--sources", "11", "--multiple", "4", "--mean-pairs", "0.1",
         "--cycles", "10"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: photon conservation violated at cycle 0\n"


def test_register_depth_is_bounded_before_allocation(capsys: pytest.CaptureFixture) -> None:
    # 2**40 delays, or a dense chain over 2**16 levels (32 GiB), must be
    # refused by the argument check before any table or matrix exists
    device = ["--sources", "5", "--multiple", "4", "--mean-pairs", "0.05"]
    commands = [
        ["simulate", *device, "--steps", "40", "--cycles", "10"],
        ["verify-topology", "--sources", "5", "--steps", "40"],
        ["oracle", *device, "--steps", "40"],
        ["oracle", *device, "--steps", "16"],
    ]
    tracemalloc.start()
    try:
        for argv in commands:
            tracemalloc.reset_peak()
            code = run_command(argv)
            peak = tracemalloc.get_traced_memory()[1]
            assert code == 1, argv
            assert capsys.readouterr().err.startswith("error: step count"), argv
            assert peak < 2**20, (argv, peak)
    finally:
        tracemalloc.stop()


def test_table_past_the_index_range_exits_one(capsys: pytest.CaptureFixture) -> None:
    # S * 2**(K+1) cells of at least 2**63 bytes is a shape numpy refuses
    # outright; the command says so in one line and allocates nothing
    tracemalloc.start()
    try:
        for sources in ("9007199254740992", "1125899906842624"):
            tracemalloc.reset_peak()
            code = run_command(["verify-topology", "--sources", sources, "--steps", "12"])
            peak = tracemalloc.get_traced_memory()[1]
            out, err = capsys.readouterr()
            assert code == 1, sources
            assert out == "" and err.count("\n") == 1, (sources, err)
            assert err.startswith("error: Unable to allocate a table of shape"), err
            assert peak < 2**20, (sources, peak)
    finally:
        tracemalloc.stop()


def test_module_entry_points_run_the_cli() -> None:
    for module in ("spdcmux", "spdcmux.cli"):
        done = _python("-m", module, "verify-topology", "--sources", "3", "--steps", "1")
        assert done.returncode == 0, (module, done.stderr)
        assert done.stdout == "source,d0,d1\n1,1,0\n2,1,1\n3,0,1\n", module


def test_cli_import_does_not_load_scipy() -> None:
    done = _python(
        "-c",
        "import sys, spdcmux.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Exact output bytes of fixed invocations.  No change that leaves the RNG
# stream alone may alter a number or a CSV byte, so a refactor of emission,
# reachability or planning must reproduce these byte for byte.
GOLDEN_OUTPUTS = [
    (
        ["simulate", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "0.049", "--cycles", "5000", "--seed", "42",
         "--boundary", "constrained"],
        HEADER + "\n0.049,0.02445,0.0232,0.0237815,19511,4290,2.8034,monte_carlo,42,5000\n",
    ),
    (
        ["simulate", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "0.049", "--cycles", "5000", "--seed", "42",
         "--boundary", "unconstrained"],
        HEADER + "\n0.049,0.02065,0.0234,0.0238934,19587,4214,2.895,monte_carlo,42,5000\n",
    ),
    (
        ["simulate", "--sources", "1000", "--multiple", "16", "--steps", "5",
         "--mean-pairs", "0.01", "--cycles", "500", "--seed", "42",
         "--feedback", "turbo_boost"],
        HEADER + "\n0.01,0.008125,0.007375,0.00743541,7935,48,6.224,monte_carlo,42,500\n",
    ),
    (
        ["simulate", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "0.03", "--cycles", "5000", "--seed", "42",
         "--feedback", "boost", "--boundary", "constrained"],
        HEADER + "\n0.03,0.0101,0.02395,0.0241944,19798,3252,2.7088,monte_carlo,42,5000\n",
    ),
    (
        # a pump where one and several pairs are both common
        ["simulate", "--sources", "20", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "1.5", "--cycles", "500", "--seed", "42",
         "--boundary", "unconstrained"],
        HEADER + "\n1.5,0,0.566,0.566,2000,5729,4,monte_carlo,42,500\n",
    ),
    (
        # a pump deep in the Poisson tail: counts run to ~50 pairs
        ["simulate", "--sources", "20", "--multiple", "4", "--steps", "3",
         "--mean-pairs", "30", "--cycles", "500", "--seed", "42"],
        HEADER + "\n30,0,1,1,2000,7996,4,monte_carlo,42,500\n",
    ),
    (
        ["simulate", "--sources", "1000", "--steps", "5", "--multiple", "16",
         "--mean-pairs", "0.01", "--cycles", "500", "--seed", "42",
         "--feedback", "turbo_boost", "--boundary", "unconstrained"],
        HEADER + "\n0.01,0.00775,0.007375,0.0074326,7938,15,6.342,monte_carlo,42,500\n",
    ),
    (
        # deep storage that ends holding 4,069 photons, 19 of them multi-pair
        ["simulate", "--sources", "2000", "--steps", "12", "--multiple", "16",
         "--mean-pairs", "0.0081", "--boundary", "unconstrained", "--feedback", "turbo_boost",
         "--cycles", "2000", "--seed", "42"],
        HEADER + "\n0.0081,0,0.004875,0.004875,32000,364,3589.51,monte_carlo,42,2000\n",
    ),
    (
        # a constrained bank that ends with 13 multi-pair photons stored
        ["simulate", "--sources", "40", "--steps", "6", "--multiple", "8",
         "--mean-pairs", "0.3", "--boundary", "constrained", "--feedback", "boost",
         "--cycles", "3000", "--seed", "42"],
        HEADER + "\n0.3,0,0.172292,0.172292,24000,11508,55.5323,monte_carlo,42,3000\n",
    ),
    (
        ["simulate", "--sources", "30", "--steps", "2", "--multiple", "4",
         "--mean-pairs", "0.2", "--cycles", "2000", "--seed", "42", "--feedback", "boost"],
        HEADER + "\n0.2,0.07275,0.090125,0.097196,7418,3397,0,monte_carlo,42,2000\n",
    ),
    (
        ["simulate", "--sources", "100", "--steps", "3", "--multiple", "4",
         "--mean-pairs", "0.03", "--cycles", "5000", "--seed", "42",
         "--feedback", "turbo_boost", "--feedback-strength", "0.5"],
        HEADER + "\n0.03,0.0837,0.01745,0.019044,18326,925,1.4822,monte_carlo,42,5000\n",
    ),
    (
        ["optimize", "--sources", "100", "--multiple", "4", "--steps", "3"],
        HEADER + "\n0.0477879,0.0231549,0.0231548,0.0237037,390738,75902.3,2.79399,"
        "oracle,0,100000\n",
    ),
    (
        ["optimize", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--boundary", "constrained", "--feedback", "boost"],
        HEADER + "\n0.0266352,0.0232245,0.0232246,0.0237768,390710,44822.8,2.34891,"
        "oracle,0,100000\n",
    ),
    (
        ["optimize", "--sources", "100", "--multiple", "4", "--steps", "3",
         "--feedback", "turbo_boost"],
        HEADER + "\n0.0296717,0.0221047,0.0221044,0.022604,391158,26499.4,2.24094,"
        "oracle,0,100000\n",
    ),
    (
        # a 241-level chain, solved at every bisection step the load bounds leave
        ["optimize", "--sources", "500", "--steps", "8", "--multiple", "16"],
        HEADER + "\n0.0320056,0.0156678,0.015668,0.0159174,1.57493e+06,8.7826,28.2647,"
        "oracle,0,100000\n",
    ),
    (
        # a 1009-level chain at 0.95 of the load the train can take
        ["oracle", "--sources", "200", "--steps", "10", "--multiple", "16",
         "--mean-pairs", "0.07904320734045289"],
        HEADER + "\n0.0790432,0.05,0.037051,0.039001,1.52e+06,2.25332e-44,6.89319,"
        "oracle,0,100000\n",
    ),
    (
        ["verify-topology", "--sources", "11", "--steps", "3"],
        "source,d0,d1,d2,d3,d4,d5,d6,d7\n"
        "1,1,0,0,0,0,0,0,0\n"
        "2,1,1,1,0,1,0,0,0\n"
        "3,1,1,1,1,1,1,1,0\n"
        "4,1,1,1,1,1,1,1,1\n"
        "5,1,1,1,1,1,1,1,1\n"
        "6,1,1,1,1,1,1,1,1\n"
        "7,1,1,1,1,1,1,1,1\n"
        "8,1,1,1,1,1,1,1,1\n"
        "9,0,1,1,1,1,1,1,1\n"
        "10,0,0,0,1,0,1,1,1\n"
        "11,0,0,0,0,0,0,0,1\n",
    ),
    (
        # every row's stage window is empty: three rows cannot span four stages
        ["verify-topology", "--sources", "3", "--steps", "4"],
        "source," + ",".join(f"d{d}" for d in range(16)) + "\n"
        + "".join(f"{i}," + ",".join(["0"] * 16) + "\n" for i in (1, 2, 3)),
    ),
]


def test_golden_output_bytes(tmp_path) -> None:
    for index, (argv, expected) in enumerate(GOLDEN_OUTPUTS):
        out = tmp_path / f"golden{index}.csv"
        assert run_command(argv + ["--out", str(out)]) == 0, argv
        assert out.read_bytes() == expected.encode(), argv


def test_demo_output_bytes(tmp_path) -> None:
    # the fast demos, whose stdout is pinned byte for byte; error_rate_tradeoff's
    # is pinned up to its last lines, which say whether matplotlib drew the plot
    root = Path(__file__).resolve().parents[1]
    endings = {
        "error_rate_tradeoff": (
            "\nmatplotlib not available, skipping the plot\n",
            "\nsaved error_rate_tradeoff.png\n",
        ),
    }
    for name in ("cycle_walkthrough", "emission_statistics", "error_rate_tradeoff",
                 "register_reachability"):
        # in a scratch directory, where error_rate_tradeoff would save its plot
        done = _python(str(root / "demos" / f"{name}.py"), cwd=tmp_path)
        assert done.returncode == 0, (name, done.stderr)
        golden = (root / "tests" / "golden" / f"{name}.txt").read_text()
        assert done.stdout[:len(golden)] == golden, name
        assert done.stdout[len(golden):] in endings.get(name, ("",)), name
