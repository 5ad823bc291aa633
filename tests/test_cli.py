import contextlib
import csv
import functools
import io
import math
import os
import itertools
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quenchkit import cli, kernels, spin, well


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestParsing:
    def test_angles(self):
        assert cli.parse_angle("pi") == math.pi
        assert cli.parse_angle("pi/4") == math.pi / 4
        assert cli.parse_angle("0.75") == 0.75
        assert cli.parse_angle_list("pi/12,pi/6") == [math.pi / 12, math.pi / 6]

    @pytest.mark.parametrize("text", ["tau/4", "pi/0", "pi/", "inf", "nan", "pi/nan"])
    def test_bad_angle(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle(text)

    def test_ranges(self):
        assert cli.parse_range("0.1:5") == (0.1, 5.0)

    @pytest.mark.parametrize("text", ["5", "2:1", "a:b", "1:1", "1:inf", "nan:2"])
    def test_bad_ranges(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_range(text)


# (argv, the value the error must name)
_NON_FINITE_CASES = [
    (["well", "coeffs", "--gamma", "inf"], "inf"),
    (["spin", "omega-scan", "--ratio", "1:inf", "--points", "3"], "inf"),
    (["spin", "return-prob", "--ratio", "inf"], "inf"),
    (["well", "energy-scan", "--gamma", "1:inf"], "inf"),
    (["well", "oracle-check", "--gamma-list", "1,inf"], "inf"),
    (["spin", "ode-check", "--ratio-list", "nan"], "nan"),
    (["spin", "threshold", "--alpha", "pi/nan"], "pi/nan"),
    # pi/inf was taken as the angle 0
    (["spin", "threshold", "--alpha", "pi/inf"], "pi/inf"),
    (["spin", "threshold", "--epsilon", "nan"], "nan"),
    (["well", "force-scan", "--step", "nan"], "nan"),
]

# (group, command, flag) for each physical-constant flag the commands dropped
_CONSTANT_FLAGS = [
    (group, command, flag)
    for group, commands, flags in (
        ("well", ["energy-scan", "force-scan", "oracle-check"], ["--mass", "--planck", "--width"]),
        ("spin", ["return-prob", "omega-scan", "threshold", "ode-check", "symmetry-check"],
         ["--b0", "--charge", "--mass"]),
    )
    for flag in flags
    for command in commands
]


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["well", "frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["well", "coeffs", "--frequency", "3"])
        assert err.value.code == 2

    def test_too_few_points_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["well", "energy-scan", "--points", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["well", "energy-scan", "--help"],
            ["well", "oracle-check", "--help"],
            ["spin", "omega-scan", "--help"],
            ["spin", "threshold", "--help"],
            ["spin", "symmetry-check", "--help"],
        ],
    )
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_group_help_lists_table_schemas(self, capsys):
        for group in ("well", "spin"):
            with pytest.raises(SystemExit):
                cli.main([group, "--help"])
            assert "columns" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["well", "coeffs", "--levels", "3"],
            ["well", "pop-scan", "--levels", "3"],
            ["well", "captured", "--points", "3"],
            ["well", "energy-scan", "--points", "3"],
            ["well", "force-scan", "--points", "3"],
            ["well", "oracle-check", "--gamma-list", "0.5", "--max-level", "2"],
            ["spin", "return-prob", "--points", "3"],
            ["spin", "omega-scan", "--points", "3"],
            ["spin", "threshold", "--points", "100"],
            ["spin", "ode-check", "--ratio-list", "1", "--samples", "2"],
            ["spin", "symmetry-check", "--draws", "2"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_help_names_the_header_it_writes(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.main([*argv[:2], "--help"])
        (columns,) = re.findall(r"\bcolumns\s+(\S+)", capsys.readouterr().out)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.split("\n", 1)[0] == columns

    def test_argument_error_prints_usage_to_stderr(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["well", "energy-scan", "--points", "not-a-number"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_out_of_domain_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["spin", "omega-scan", "--alpha", "-1", "--points", "4",
                      "--ratio", "1:2"])
        assert err.value.code == 2
        assert "alpha" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["well", "oracle-check", "--max-level", "2", "--tol"],
            ["well", "oracle-check", "--max-level", "2", "--quad-tol"],
            ["spin", "ode-check", "--ratio-list", "1", "--tol"],
            ["spin", "symmetry-check", "--draws", "2", "--tol"],
        ],
        ids=["oracle-check", "oracle-check-quad", "ode-check", "symmetry-check"],
    )
    def test_tolerance_must_be_finite_and_positive(self, argv, value, capsys):
        # a nan tolerance used to pass every check: worst > nan is False
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, value])
        assert err.value.code == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, bad", _NON_FINITE_CASES, ids=[" ".join(a) for a, _ in _NON_FINITE_CASES]
    )
    def test_non_finite_input_exits_2(self, argv, bad, capsys):
        # nan/inf once overflowed in a kernel, wrote nan rows with exit 0, or
        # blamed the wrong value after a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert f"got {bad!r}" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["well", "coeffs", "--gamma", "1e300"], "got 1e+300"),
            (["well", "energy-scan", "--gamma", "1e160:1e161"], "got [1e+160, 1e+161]"),
            (["well", "captured", "--gamma", "1:1e200"], "got [1.0, 1e+200]"),
            (["spin", "omega-scan", "--ratio", "1:1e308", "--points", "3"],
             "got [1.0, 1e+308]"),
            # captured probability underflows to zero below gamma ~ 1e-108
            (["well", "energy-scan", "--gamma", "1e-120:1e-110", "--points", "3"],
             "at gamma = 1e-120 "),
            # below gamma ~ 2e-162, gamma * gamma underflows too: dividing by
            # it first made 0/0 and a RuntimeWarning
            (["well", "energy-scan", "--gamma", "1e-200:1e-150", "--points", "3"],
             "at gamma = 1e-200 "),
            (["well", "captured", "--gamma", "5e-324:1", "--points", "3"], "at gamma = 5e-324 "),
            (["well", "force-scan", "--gamma", "5e-324:1", "--points", "3"],
             "at gamma = 5e-324 "),
            # every point an exact integer >= 1 (every double above 2^53 is)
            # once wrote a header-only table with exit 0
            (["well", "force-scan", "--gamma", "1:2", "--points", "2"],
             "every grid point in [1.0, 2.0] is an exact integer >= 1"),
            (["well", "force-scan", "--gamma", "1:3", "--points", "3"], "in [1.0, 3.0]"),
            (["well", "force-scan", "--gamma", "1e16:2e16"], "in [1e+16, 2e+16]"),
            (["well", "force-scan", "--gamma", "1e50:1e150", "--points", "42"],
             "in [1e+50, 1e+150]"),
            (["well", "force-scan", "--gamma", "0.5:2", "--points", "11", "--step", "0.3"],
             "got -0.09999999999999998"),
            # a step of zero or below must not reach the stencil, where it
            # makes nan rows with exit 0
            (["well", "force-scan", "--step", "0"], "step must be positive, got 0.0"),
            (["well", "force-scan", "--step=-1e-4"], "step must be positive, got -0.0001"),
            # the doubles there are 1.2e-4 apart, above the step 1e-4: the
            # stencil read rounding and wrote F = 1.76e-34 for about 1.32e-34
            (["well", "force-scan", "--gamma", "1000000000000.5:1000000000001.5",
              "--points", "2"], "at gamma = 1000000000000.5"),
            # (omega - omega0) ** 2 in spin.rabi_lambda raised OverflowError
            (["spin", "return-prob", "--ratio", "1e200", "--points", "3"], "got 1e+200"),
            (["spin", "ode-check", "--ratio-list", "1e200"], "got 1e+200"),
            # tiny ratios once wrote nan rows with exit 0, warned and then
            # failed with "math domain error", or blamed a ratio never given
            (["spin", "omega-scan", "--ratio", "1e-320:1e-300", "--points", "3"],
             "got [1e-320, 1e-300]"),
            (["spin", "return-prob", "--ratio", "1e-310"], "got 1e-310"),
            # 600 steps per Larmor period: 6e11 RK4 steps, refused before any
            (["spin", "ode-check", "--ratio-list", "1e-9"], "above the budget of 10000000"),
            # only the first angle was checked; -7 wrote a curve with exit 0
            (["spin", "omega-scan", "--alpha=pi/4,-7", "--points", "3"], "got -7.0"),
            # the share of the first gamma's finest level underflowed to 0 and
            # the message was the whole tolerance array
            (["well", "oracle-check", "--quad-tol", "5e-324"],
             "tolerance 5e-324 divided into 21 panel shares at gamma = 0.1 gives 0.0"),
            # an -o path that cannot be opened ended in a traceback with exit 1
            (["well", "coeffs", "-o", "/nonexistent/x.csv"], "cannot write '/nonexistent/x.csv'"),
            (["well", "coeffs", "-o", "."], "cannot write '.'"),
            # a flag that is not an integer was named by its parser function
            (["well", "coeffs", "--levels", "1e3"], "argument --levels: cannot parse integer '1e3'"),
            (["well", "captured", "--points", "x"], "argument --points: cannot parse integer 'x'"),
            (["spin", "symmetry-check", "--seed", "1e3"],
             "argument --seed: cannot parse integer '1e3'"),
            # numpy's own message did not name the flag
            (["spin", "symmetry-check", "--seed", "-1"],
             "argument --seed: expected a non-negative integer, got -1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_out_of_domain_finite_input_exits_2(self, argv, named, capsys):
        # huge ratios once overflowed to nan rows with exit 0 or ended in an
        # AssertionError traceback; a stencil below zero must keep its error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        # the failing subcommand's usage and a one-line message
        command = " ".join(["quenchkit", *argv[:2]])
        *usage, error = stderr.splitlines()
        assert usage[0].startswith(f"usage: {command} ")
        assert error.startswith(f"{command}: error: ") and named in error
        assert "Traceback" not in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["well", "coeffs", "--levels"],
            ["well", "energy-scan", "--points"],
            ["well", "force-scan", "--levels"],
            ["well", "oracle-check", "--max-level"],
            ["spin", "omega-scan", "--points"],
            ["spin", "ode-check", "--samples"],
        ],
        ids=" ".join,
    )
    def test_sizes_above_the_budget_exit_2(self, argv, capsys):
        # refused while parsing, by size: nothing is allocated
        too_big = cli.MAX_ELEMENTS + 1
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, str(too_big)])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        (error,) = [line for line in stderr.splitlines() if "error:" in line]
        assert error.endswith(
            f"argument {argv[-1]}: {too_big} "
            f"exceeds the size budget of {cli.MAX_ELEMENTS} elements"
        )
        assert "Traceback" not in stderr
        # the budget itself parses
        assert cli.build_parser().parse_args([*argv, str(cli.MAX_ELEMENTS)])

    @pytest.mark.parametrize(
        "group, command, flag", _CONSTANT_FLAGS, ids=[f"{f}-{c}" for _, c, f in _CONSTANT_FLAGS]
    )
    def test_well_constant_flags_are_gone(self, group, command, flag, capsys):
        # the dimensionless well and spin commands never read them
        with pytest.raises(SystemExit) as err:
            cli.main([group, command, flag, "1"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestWellCommands:
    def test_coeffs_identity_single_nonzero_row(self, capsys):
        code, out = run_cli(capsys, "well", "coeffs", "--gamma", "1", "--levels", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,b_n,rho_n"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        nonzero = [row for row in rows if float(row[1]) != 0.0]
        assert len(nonzero) == 1
        assert nonzero[0][0] == "1" and float(nonzero[0][1]) == 1.0

    def test_pop_scan_columns(self, capsys):
        code, out = run_cli(capsys, "well", "pop-scan", "--gamma", "0.5", "--levels", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,rho_n"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.argmax(values) == 0

    def test_captured_scan(self, capsys):
        code, out = run_cli(
            capsys, "well", "captured", "--gamma", "1:5", "--points", "9"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,captured"
        assert len(lines) == 10

    def test_energy_scan_matches_library(self, capsys):
        code, out = run_cli(
            capsys, "well", "energy-scan", "--gamma", "0.5:2.5", "--points", "21"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,E_over_E1"
        table = well.energy_scan(0.5, 2.5, 21)
        for line, (g, e) in zip(lines[1:], table):
            gs, es = line.split(",")
            assert float(gs) == g and float(es) == e

    def test_force_scan_columns(self, capsys):
        code, out = run_cli(
            capsys, "well", "force-scan", "--gamma", "2.5:3.5", "--points", "11"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma,E_over_E1,F_over_E1_per_Q0"
        # gamma = 3.0 sits on the grid and is omitted as resonant
        gammas = [float(line.split(",")[0]) for line in lines[1:]]
        assert 3.0 not in gammas and len(gammas) == 10

    def test_oracle_check_passes(self, capsys):
        code, out = run_cli(
            capsys,
            "well",
            "oracle-check",
            "--gamma-list",
            "0.5,2,4.9",
            "--max-level",
            "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,gamma,b_closed,b_oracle,abs_diff"
        assert max(float(line.split(",")[4]) for line in lines[1:]) <= 1e-8

    def test_oracle_check_fails_on_absurd_tolerance(self, capsys, tmp_path):
        code = cli.main(
            [
                "well",
                "oracle-check",
                "--gamma-list",
                "0.5",
                "--max-level",
                "3",
                "--tol",
                "1e-30",
                "-o",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("gamma", ["1e150", "1e-150", "1e-20"])
    def test_oracle_check_gate_is_relative(self, gamma, monkeypatch, capsys):
        # every |b_n| is below 1e-29 here: against the absolute --tol an
        # oracle 50% wrong passed with exit 0
        oracle = well.overlap_oracle
        monkeypatch.setattr(
            well, "overlap_oracle", lambda n, g, **kw: 1.5 * oracle(n, g, **kw)
        )
        code = cli.main(["well", "oracle-check", "--gamma-list", gamma, "--max-level", "5"])
        assert code == 1
        out, stderr = capsys.readouterr()
        assert len(out.splitlines()) == 6
        assert stderr.startswith(
            f"quenchkit: coefficient oracle disagreement at gamma = {float(gamma)}:"
        )

    def test_oracle_check_refuses_more_panels_than_the_budget(self, capsys):
        # 10^5 levels passed the size check and then built ~5e9 panels
        with pytest.raises(SystemExit) as err:
            cli.main(["well", "oracle-check", "--max-level", "100000"])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == ""
        assert "make up to 50000500000 quadrature panels, above the size budget" in stderr
        # ten gammas at 1414 levels are just above it
        gammas = ",".join(["0.5"] * 10)
        with pytest.raises(SystemExit):
            cli.main(["well", "oracle-check", "--gamma-list", gammas, "--max-level", "1414"])
        assert "make up to 10004050 quadrature panels" in capsys.readouterr().err

    def test_oracle_check_stops_at_a_non_finite_integrand(self, capsys):
        # at a width of 1e-309 sqrt(2 / W) is inf; every panel once split
        # down to the depth budget of the adaptive rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["well", "oracle-check", "--gamma-list", "1e-300"])
        assert code == 1
        out, stderr = capsys.readouterr()
        assert out == ""
        assert stderr.startswith("quenchkit: quadrature on [0.0, ")
        assert stderr.endswith(" met an integrand value or a rule sum that is not finite\n")

    @pytest.mark.parametrize("quad_tol", ["1e-17", "1e-300"])
    def test_oracle_check_exits_1_on_a_tolerance_below_rounding(self, quad_tol):
        # the adaptive rule once bisected toward 2^48 panels and never
        # returned; two fixed rules either meet the tolerance or exit 1
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = ["well", "oracle-check", "--quad-tol", quad_tol]
        proc = subprocess.run(
            [sys.executable, "-m", "quenchkit", *argv], capture_output=True, env=env, timeout=20
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"quenchkit: quadrature on [")


class TestSpinCommands:
    def test_return_prob_starts_at_one(self, capsys):
        code, out = run_cli(
            capsys, "spin", "return-prob", "--ratio", "1", "--points", "5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t_over_period,rho1"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    def test_return_prob_blocks_give_the_whole_grid(self, capsys):
        # rows go out in blocks of EMIT_CHUNK_ROWS; the last one is short
        points = 2 * cli.EMIT_CHUNK_ROWS + 3
        code, out = run_cli(
            capsys, "spin", "return-prob", "--alpha", "0.3", "--ratio", "2.5",
            "--points", str(points),
        )
        assert code == 0
        table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        fractions = np.linspace(0.0, 1.0, points)
        cfg = spin.RotorConfig.at_ratio(2.5, alpha=0.3)
        rho = spin.return_probability(fractions * cfg.drive_period, spin.UPPER, cfg)
        np.testing.assert_array_equal(table, np.column_stack((fractions, rho)))

    def test_omega_scan_single_alpha(self, capsys):
        code, out = run_cli(
            capsys, "spin", "omega-scan", "--alpha", "pi/4",
            "--ratio", "0.5:2", "--points", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega_over_omega0,rho1"
        assert len(lines) == 5

    def test_omega_scan_multiple_alphas(self, capsys):
        code, out = run_cli(
            capsys, "spin", "omega-scan", "--alpha", "pi/12,pi/4",
            "--ratio", "0.5:2", "--points", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha_rad,omega_over_omega0,rho1"
        assert len(lines) == 7

    def test_threshold_two_line_report(self, capsys):
        code, out = run_cli(
            capsys, "spin", "threshold", "--alpha", "pi/4", "--epsilon", "0.02",
            "--ratio", "0.05:20", "--points", "2000",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "monotone_onset_ratio,frozen_ratio,max_rho1"
        onset, frozen, _ = (float(v) for v in lines[1].split(","))
        assert abs(onset - 1.442) <= 0.05
        assert frozen <= 15.0

    def test_threshold_without_a_frozen_onset_exits_1(self, capsys):
        # the message once quoted max_rho1, the scan's overall maximum, as
        # if it were the reason no ratio qualified
        assert cli.main(["spin", "threshold", "--ratio", "0.05:5"]) == 1
        out, err = capsys.readouterr()
        row = out.splitlines()[1].split(",")
        assert row[1] == "nan" and float(row[2]) >= 0.98
        assert err == (
            "quenchkit: no frozen onset in [0.05, 5.0]: "
            "rho1 < 1 - 0.02 at the top of the range\n"
        )

    def test_ode_check_passes(self, capsys):
        code, out = run_cli(
            capsys, "spin", "ode-check", "--alpha", "pi/4",
            "--ratio-list", "1", "--samples", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha_rad,omega_over_omega0,max_abs_diff,norm_drift"
        assert float(lines[1].split(",")[2]) <= 1e-6

    def test_ode_check_passes_on_slow_drives(self, capsys):
        # 20 steps per Larmor period left 2.5e-6 at ratio 0.01 and 7e-3 at 0.002
        code, out = run_cli(
            capsys, "spin", "ode-check", "--alpha", "pi/12", "--ratio-list", "0.01,0.002"
        )
        assert code == 0
        table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        assert table[:, 2].max() <= 1e-6

    def test_symmetry_check_passes(self, capsys):
        code, out = run_cli(capsys, "spin", "symmetry-check", "--draws", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "draws,max_branch_gap,max_cycle_gap"
        _, sym, cyc = lines[1].split(",")
        assert float(sym) <= 1e-12 and float(cyc) <= 1e-12

    @staticmethod
    def per_draw_symmetry_check(draws, seed):
        """The reference for the array draws: per draw, three `uniform`
        calls and the closed forms at one configuration."""
        rng = np.random.default_rng(seed)
        worst_sym = worst_cycle = 0.0
        for _ in range(draws):
            alpha = rng.uniform(0.0, math.pi)
            cfg = spin.RotorConfig.at_ratio(rng.uniform(*spin.DEFAULT_RATIO_RANGE), alpha=alpha)
            t = rng.uniform(0.0, 1.0) * cfg.drive_period
            upper = spin.return_probability(t, spin.UPPER, cfg)
            worst_sym = max(worst_sym, abs(upper - spin.return_probability(t, spin.LOWER, cfg)))
            cycle = spin.return_probability(cfg.drive_period, spin.UPPER, cfg)
            worst_cycle = max(worst_cycle, abs(cycle - spin.return_probability_cycle(cfg)))
        return [float(draws), worst_sym, worst_cycle]

    @pytest.mark.parametrize(
        "draws, seed",
        [(1000, 20260810), (1000, 1), (1000, 7), (1000, 1211412377), (300, 99),
         (cli.EMIT_CHUNK_ROWS + 1, 3)],
    )
    def test_symmetry_check_draws_as_arrays_give_the_per_draw_doubles(self, draws, seed):
        args = cli.build_parser().parse_args(
            ["spin", "symmetry-check", "--draws", str(draws), "--seed", str(seed)]
        )
        rows, failure = args.run(args)
        assert failure is None
        assert rows.tolist() == [self.per_draw_symmetry_check(draws, seed)]


# Edge values for every real, angle, list and range flag of the spin and well
# commands: zero, the smallest subnormal, both sides of the ratio bounds
# 1e-150 and 1e150, the largest decade and pi, and the negatives of each.
_EDGES = [
    0.0, 5e-324, np.nextafter(1e-150, 0.0), 1e-150, np.nextafter(1e-150, 1.0),
    np.nextafter(1e150, 0.0), 1e150, np.nextafter(1e150, math.inf), 1e308, math.pi,
]
_EDGES = [float(x) for x in _EDGES]  # repr(np.float64(x)) is "np.float64(x)"
_EDGES += [-x for x in _EDGES[1:]]
_real = st.sampled_from(_EDGES) | st.floats(0.002, 100.0)
_text = _real.map(repr)
_angle = st.sampled_from(["pi", "pi/4"]) | _text
_size = st.integers(-1, 64).map(str)


def _listed(values, most=3):
    return st.lists(values, min_size=1, max_size=most).map(",".join)


_range = st.tuples(_text, _text).map(":".join)
# RK4 takes about 600 / ratio steps below a ratio of 0.064: every drawn ratio
# is either >= 0.002 (at most 3e5 steps) or so small that the step budget
# refuses it at once
_SPIN_FLAGS = {
    "return-prob": {"alpha": _angle, "ratio": _text, "points": _size},
    "omega-scan": {"alpha": _listed(_angle), "ratio": _range, "points": _size},
    "threshold": {"alpha": _angle, "epsilon": _text, "ratio": _range, "points": _size},
    "ode-check": {"alpha": _listed(_angle, 2), "ratio-list": _listed(_text, 2),
                  "samples": _size, "tol": _text},
    "symmetry-check": {"draws": _size, "seed": st.integers(-1, 2**64).map(str),
                       "tol": _text},
}
_SPIN_HEADERS = {
    "return-prob": ["t_over_period,rho1"],
    "omega-scan": ["omega_over_omega0,rho1", "alpha_rad,omega_over_omega0,rho1"],
    "threshold": ["monotone_onset_ratio,frozen_ratio,max_rho1"],
    "ode-check": ["alpha_rad,omega_over_omega0,max_abs_diff,norm_drift"],
    "symmetry-check": ["draws,max_branch_gap,max_cycle_gap"],
}
# --quad-tol reaches down to the smallest subnormal: below what the doubles
# resolve, and then below what a panel's share of it can hold
_quad_tol = (st.sampled_from([1e-17, 1e-300, 5e-324]) | st.floats(5e-324, 1e-10)).map(repr)
_WELL_FLAGS = {
    "coeffs": {"gamma": _text, "levels": _size},
    "pop-scan": {"gamma": _text, "levels": _size},
    "captured": {"gamma": _range, "points": _size, "levels": _size},
    "energy-scan": {"gamma": _range, "points": _size, "levels": _size},
    "force-scan": {"gamma": _range, "points": _size, "levels": _size, "step": _text},
    "oracle-check": {"gamma-list": _listed(_text), "max-level": _size, "tol": _text,
                     "quad-tol": _quad_tol},
}
_WELL_HEADERS = {
    "coeffs": ["n,b_n,rho_n"],
    "pop-scan": ["n,rho_n"],
    "captured": ["gamma,captured"],
    "energy-scan": ["gamma,E_over_E1"],
    "force-scan": ["gamma,E_over_E1,F_over_E1_per_Q0"],
    "oracle-check": ["n,gamma,b_closed,b_oracle,abs_diff"],
}


def _rows_or_a_clean_exit(argv, headers, checks):
    """Run the CLI on ``argv``: finite rows under one of ``headers`` with exit
    0, or exit 2 with a usage error, or, for one of the cross-``checks``,
    exit 1 with a one-line reason; never a traceback or a warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        header, *rows = out.splitlines()
        assert header in headers and rows and err == ""
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    elif code == 2:
        assert out == ""
        assert any("error:" in line for line in err.splitlines())
    else:
        assert code == 1 and argv[1] in checks
        assert err.startswith("quenchkit: ")


class TestSpinInputFuzz:
    @pytest.mark.parametrize("command", list(_SPIN_FLAGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_input_gives_rows_or_a_clean_exit(self, command, data):
        flags = data.draw(st.fixed_dictionaries({}, optional=_SPIN_FLAGS[command]))
        argv = ["spin", command, *(f"--{k}={v}" for k, v in flags.items())]
        _rows_or_a_clean_exit(
            argv, _SPIN_HEADERS[command], ("threshold", "ode-check", "symmetry-check")
        )


class TestWellInputFuzz:
    @pytest.mark.parametrize("command", list(_WELL_FLAGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_input_gives_rows_or_a_clean_exit(self, command, data):
        flags = data.draw(st.fixed_dictionaries({}, optional=_WELL_FLAGS[command]))
        argv = ["well", command, *(f"--{k}={v}" for k, v in flags.items())]
        _rows_or_a_clean_exit(argv, _WELL_HEADERS[command], ("oracle-check",))


class TestOutputContract:
    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["well", "energy-scan", "--gamma", "0.1:5", "--points", "200"]
        assert cli.main(argv + ["-o", str(a)]) == 0
        assert cli.main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_file_and_stdout_identical(self, tmp_path, capsys):
        argv = ["spin", "omega-scan", "--ratio", "0.5:5", "--points", "50"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "scan.csv"
        assert cli.main(argv + ["-o", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == out

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "energy.csv"
        assert (
            cli.main(
                ["well", "energy-scan", "--gamma", "0.3:3.3", "--points", "31",
                 "-o", str(path)]
            )
            == 0
        )
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "E_over_E1"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(parsed, well.energy_scan(0.3, 3.3, 31))

    def test_newline_and_encoding(self, tmp_path):
        path = tmp_path / "curve.csv"
        cli.main(["spin", "omega-scan", "--ratio", "1:2", "--points", "3",
                  "-o", str(path)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_defaults_reproduce_reference_scan(self, capsys):
        # bare invocation uses the reference constants
        code, out = run_cli(capsys, "well", "energy-scan", "--points", "3",
                            "--gamma", "0.9:1.1")
        assert code == 0
        row = out.strip().split("\n")[2].split(",")
        assert float(row[0]) == 1.0 and float(row[1]) == 1.0


def _per_value_table(header, rows) -> str:
    """The per-value CSV writer that `cli.write_table` replaced; the byte
    reference for the chunked one."""

    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".16e")

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_SPECIAL_REALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
_INTS = st.integers(-(2**53), 2**53)
_REALS = st.floats() | st.sampled_from(_SPECIAL_REALS)


@st.composite
def _tables(draw, n_rows):
    """(header, rows, blocks, integers): a pool of drawn rows cycled to
    ``n_rows``, with ``integers`` (0 to 2) leading integer columns within
    +-2^53 and up to 3 real ones; ``rows`` as tuples of Python ints and
    floats for the per-value writer, ``blocks`` as float64 blocks cut at
    drawn rows for `cli.write_table`."""
    integers = draw(st.integers(0, 2))
    reals = draw(st.integers(0 if integers else 1, 3))
    pool = draw(st.lists(st.tuples(*[_INTS] * integers, *[_REALS] * reals),
                         min_size=1, max_size=6))
    rows = [pool[i % len(pool)] for i in range(n_rows)]
    table = np.array(rows, dtype=float).reshape(n_rows, integers + reals)
    cuts = sorted(draw(st.lists(st.integers(0, n_rows), max_size=3)))
    header = [f"c{i}" for i in range(integers + reals)]
    return header, rows, np.split(table, cuts), integers


_CHUNK = cli.EMIT_CHUNK_ROWS


class TestWriteTable:
    @pytest.mark.parametrize("n_rows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bytes_match_per_value_writer(self, n_rows, data, capsys, tmp_path):
        header, rows, blocks, integers = data.draw(_tables(n_rows))
        expected = _per_value_table(header, rows).encode("utf-8")
        capsys.readouterr()
        cli.write_table(header, np.concatenate(blocks), None, integers)
        assert capsys.readouterr().out.encode("utf-8") == expected
        path = tmp_path / "table.csv"
        cli.write_table(header, iter(blocks), str(path), integers)
        assert path.read_bytes() == expected

    def test_package_import_loads_no_numpy(self):
        # the CLI sets up the process before numpy loads (see __main__)
        code = "import sys, quenchkit\nprint(quenchkit.__version__, 'numpy' in sys.modules)\n"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.stderr == b""
        assert proc.stdout == b"0.1.0 False\n"

    def test_only_the_quadrature_loads_numpy_polynomial(self):
        # the Gauss-Legendre rules are built on first use: importing
        # numpy.polynomial up front would slow the start of every command
        code = (
            "import os, sys\n"
            "import quenchkit.cli as cli\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "cli.main(['well', 'energy-scan', '--points', '5', '-o', os.devnull])\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "cli.main(['well', 'oracle-check', '--max-level', '2', '-o', os.devnull])\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.stderr == b""
        assert proc.stdout == b"False\nFalse\nTrue\n"

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_cli_limits_openblas_threads_before_numpy_loads(self, preset, seen):
        # `run` sets the default, then hands over to the CLI; a stand-in CLI
        # reports what numpy would see when the real one imports it
        code = (
            "import os, sys, types\n"
            "from quenchkit import __main__ as entry\n"
            "def report():\n"
            "    print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)\n"
            "sys.modules['quenchkit.cli'] = types.SimpleNamespace(main=report)\n"
            "entry.run()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.stderr == b""
        assert proc.stdout == f"{seen} False\n".encode()

    def test_closed_stdout_pipe_ends_quietly(self):
        # `quenchkit ... | head -1`: once the reader is gone the writer stops
        # without a traceback and the command's own exit status stands
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = ["spin", "omega-scan", "--points", "200000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "quenchkit", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"omega_over_omega0,rho1\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["well", "coeffs", "--levels", "5"],
            ["well", "pop-scan", "--levels", "5"],
            ["well", "captured", "--points", "7"],
            ["well", "energy-scan", "--points", "7"],
            ["well", "force-scan", "--points", "7"],
            # both ends are exact integers and omitted: one row, at 1.5
            ["well", "force-scan", "--gamma", "1:2", "--points", "3"],
            ["well", "oracle-check", "--gamma-list", "0.5,2", "--max-level", "3"],
            ["spin", "return-prob", "--points", "7"],
            ["spin", "omega-scan", "--points", "7"],
            ["spin", "omega-scan", "--alpha", "pi/12,pi/4", "--points", "7"],
            ["spin", "threshold"],
            ["spin", "ode-check", "--ratio-list", "1", "--samples", "2"],
            ["spin", "symmetry-check", "--draws", "5"],
        ],
        ids=" ".join,
    )
    def test_stdout_and_file_sinks_agree(self, argv, capsys, tmp_path):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "table.csv"
        assert cli.main([*argv, "-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("utf-8")


def _written(header, rows) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_table(header, rows, None)
    return out.getvalue().encode("utf-8")


def _assert_matches_per_value(values, cols=2):
    """A float64 table of ``values`` (cut to whole rows of ``cols``) is
    written with the per-value writer's bytes."""
    flat = np.asarray(values, dtype=float)
    table = flat[: flat.size // cols * cols].reshape(-1, cols)
    header = [f"c{i}" for i in range(cols)]
    assert _written(header, table) == _per_value_table(header, table).encode("utf-8")


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _curve(points=10_000):
    """The kind of table bulk output is made of: an omega-scan curve."""
    ratios = np.linspace(0.05, 20.0, points)
    return np.column_stack((ratios, kernels.cycle_return_curve(ratios, 0.7)))


def _ties():
    # x = n / 2^j with n odd is exactly n 5^j / 10^j, whose last digit is 5;
    # with 18 significant digits its 17-digit rounding is an exact tie
    ties = []
    for j in range(2, 25):
        lo, hi = -(-(10**17) // 5**j), min(2**53, 10**18 // 5**j)
        ties += [((lo + (hi - lo) * k // 40) | 1) / 2**j for k in range(40)]
    return ties


_POWERS_OF_TEN = [float(f"1e{k}") for k in range(-100, 101)]
_FIXED_VALUES = {
    "i*10^-j": [float(f"{i}e-{j}") for i in range(1, 3000) for j in range(30)],
    "2^53+i scaled": [
        float(f"{2**53 + i}e{k}") for i in range(-500, 500) for k in range(-110, 90, 9)
    ],
    "exponent edges": [
        1e-99, np.nextafter(1e-99, 0.0), np.nextafter(1e-99, 1.0),
        9.999999999999999e99, np.nextafter(1e100, 0.0), 1e100, np.nextafter(1e100, math.inf),
    ],
    # floor(log10(x)) overshoots just below a power of ten
    "near powers of ten": [
        np.nextafter(p, toward) for p in _POWERS_OF_TEN for toward in (0.0, math.inf)
    ] + _POWERS_OF_TEN,
    "exact ties": _ties(),
    "random": np.random.default_rng(20261018)
    .integers(1, 0x7FF0000000000000, 2**16, dtype=np.uint64)
    .view(np.float64),
}


class TestDecimalRows:
    """`cli.write_table` formats float64 arrays as arrays; the bytes must be
    those of ``format(v, ".16e")`` for every value."""

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.lists(
            st.integers(1, 0x7FEFFFFFFFFFFFFF)  # every positive finite double
            | st.integers(_bits(1e-99), _bits(1e100) - 1),  # the array path's range
            min_size=1,
            max_size=300,
        ),
        cols=st.integers(1, 3),
    )
    def test_random_bit_patterns_match_per_value_writer(self, bits, cols):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        _assert_matches_per_value(np.resize(values, max(cols, values.size)), cols)

    @pytest.mark.parametrize("cols", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(_FIXED_VALUES))
    def test_fixed_cases_match_per_value_writer(self, case, cols):
        _assert_matches_per_value(_FIXED_VALUES[case], cols)

    def test_ties_are_exact(self):
        for x in _ties():
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_estimate_off_by_one_is_corrected(self, shift, monkeypatch):
        # floor(log10(x)) is never too low for a correctly rounded log10; a
        # shifted one is one too low (or high) for about half of the values
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
        _assert_matches_per_value(np.concatenate([
            _FIXED_VALUES["near powers of ten"], _FIXED_VALUES["exponent edges"],
            _curve(2000).ravel()]))

    def test_rows_outside_the_range_are_spliced_in_order(self):
        table = _curve(3 * cli.EMIT_CHUNK_ROWS)
        for row, bad in zip(range(5, len(table), 977),
                            itertools.cycle([0.0, -1.5, math.nan, math.inf, 1e-200, 1e200])):
            table[row, row % 2] = bad
        table[:3, 1] = 0.0  # a chunk that starts with such rows
        table[-2:, 0] = -0.0  # and one that ends with them
        header = ["a", "b"]
        assert _written(header, table) == _per_value_table(header, table).encode()

    def test_blocks_of_rows(self):
        # multi-angle omega-scan hands over one block per curve
        blocks = [_curve(cli.EMIT_CHUNK_ROWS + 5), _curve(3), _curve(0)]
        header = ["a", "b"]
        expected = _per_value_table(header, np.concatenate(blocks))
        assert _written(header, iter(blocks)) == expected.encode()

    def test_without_x87_long_double_bytes_are_unchanged(self, monkeypatch):
        # the digits come from float64 arithmetic alone, so a host whose
        # long double is not the x87 format writes the same bytes
        class Refused:
            def __getattr__(self, name):
                raise AssertionError(f"np.longdouble.{name} used")

            def __call__(self, *args, **kwargs):
                raise AssertionError("np.longdouble used")

        monkeypatch.setattr(np, "longdouble", Refused())
        monkeypatch.setattr(
            cli, "_decimal_tables", functools.cache(cli._decimal_tables.__wrapped__))
        _assert_matches_per_value(_curve().ravel())
        _assert_matches_per_value(_FIXED_VALUES["random"])
        _assert_matches_per_value(_ties())

    def test_power_table_is_correctly_rounded(self):
        def nearest(value: Fraction, x: float) -> bool:
            # no double lies closer to ``value`` than ``x``
            neighbours = (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
            return all(abs(value - Fraction(x)) <= abs(value - Fraction(n)) for n in neighbours)

        hi, lo, big, small = cli._decimal_tables()[0].T
        assert len(hi) == len(cli._EXPONENTS)
        assert np.array_equal(big + small, hi)
        for e, h, r in zip(cli._EXPONENTS, hi.tolist(), lo.tolist()):
            power = Fraction(10) ** (16 - e)
            assert nearest(power, h) and nearest(power - Fraction(h), r), e
            assert abs(power - Fraction(h) - Fraction(r)) <= power * Fraction(2) ** -106, e

    def test_scaled_value_is_within_the_tie_window(self):
        # `_decimal_rows` falls back to %.16e within 2^-47 of a half only;
        # that rests on q + frac missing x 10^(16-e) by less than 2^-47
        in_range = [
            x for case in ("exact ties", "near powers of ten", "exponent edges")
            for x in _FIXED_VALUES[case] if 1e-99 <= x < 1e100
        ]
        e, q, frac = cli._scaled(np.array(in_range))
        for x, e, q, frac in zip(in_range, e.tolist(), q.tolist(), frac.tolist()):
            assert 10**16 <= q <= 10**17 and 0.0 <= frac <= 1.0, x
            exact = Fraction(x) * Fraction(10) ** (16 - e)
            assert abs(q + Fraction(frac) - exact) < Fraction(2) ** -47, x
