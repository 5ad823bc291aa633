"""The checker accepts the program's real output and rejects corrupted copies."""

import contextlib
import io

import pytest

import checker
from quenchkit import cli
from workloads import Command

SEED = 7


def emit(cmd: Command) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(cmd.argv) == 0
    return out.getvalue()


ENERGY = Command("well", "energy-scan", {"gamma": "0.6:3.4", "points": 40, "levels": 30})
ORACLE = Command("well", "oracle-check", {"gamma-list": "0.5,2,2.5", "max-level": 4})


@pytest.fixture(scope="module")
def energy_text():
    return emit(ENERGY)


@pytest.fixture(scope="module")
def oracle_text():
    return emit(ORACLE)


def rejects(cmd: Command, text: str, match: str) -> None:
    with pytest.raises(checker.CheckFailure, match=match):
        checker.check(cmd, text.encode(), SEED)


def replace_field(text: str, row: int, col: int, new: str) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = new
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("cmd", [
    ENERGY,
    ORACLE,
    Command("well", "force-scan", {"gamma": "1:3", "points": 21, "levels": 30}),
    Command("well", "coeffs", {"gamma": "3.3", "levels": 25}),
    Command("well", "pop-scan", {"gamma": "0.7", "levels": 25}),
    Command("well", "captured", {"gamma": "0.5:2.5", "points": 30, "levels": 25}),
    Command("spin", "ode-check", {"alpha": "0.5", "ratio-list": "0.4,3"}),
    Command("spin", "symmetry-check", {"seed": 3}),
    Command("spin", "return-prob", {"alpha": "0.6", "ratio": "2.5"}),
    Command("spin", "threshold", {"alpha": "0.7", "epsilon": "0.03"}),
    Command("spin", "omega-scan", {"alpha": "0.9", "points": 500}),
], ids=lambda c: c.key)
def test_accepts_program_output(cmd):
    checker.check(cmd, emit(cmd).encode(), SEED)


def test_force_scan_row_count_omits_resonant_grid_points():
    cmd = Command("well", "force-scan", {"gamma": "1:3", "points": 21, "levels": 30})
    table = checker.parse(emit(cmd), ("gamma", "E_over_E1", "F_over_E1_per_Q0"))
    assert len(table.lines) == 21 - 3  # gamma = 1, 2 and 3 sit on resonances


def test_rejects_flipped_digit(energy_text):
    table = checker.parse(energy_text, ("gamma", "E_over_E1"))
    row = checker._spot_rows(table, SEED, ENERGY.key)[0]
    value = table.lines[row].split(",")[1]
    digit = "5" if value[3] != "5" else "6"
    rejects(ENERGY, replace_field(energy_text, row, 1, value[:3] + digit + value[4:]),
            "50-digit reference")


def test_rejects_flipped_digit_in_grid_column(energy_text):
    value = energy_text.split("\n")[6].split(",")[0]
    flipped = value[:10] + ("1" if value[10] != "1" else "2") + value[11:]
    rejects(ENERGY, replace_field(energy_text, 5, 0, flipped), "gamma row 5")


def test_rejects_dropped_row(energy_text):
    lines = energy_text.split("\n")
    rejects(ENERGY, "\n".join(lines[:10] + lines[11:]), "39 rows, expected 40")


def test_rejects_nan(energy_text):
    rejects(ENERGY, replace_field(energy_text, 3, 1, "nan"), "row 3")


def test_rejects_short_digits(energy_text):
    rejects(ENERGY, replace_field(energy_text, 3, 1, "1.25e+00"), "17 significant digits")


def test_rejects_cross_check_row_above_tolerance_despite_exit_0(oracle_text):
    # A row whose oracle disagrees by 2e-8 (beyond the 1e-8 gate), with a
    # consistent abs_diff, as a vacuous --tol would let through with exit 0.
    table = checker.parse(oracle_text, ("n", "gamma", "b_closed", "b_oracle", "abs_diff"),
                          ints=("n",))
    closed = table.cols["b_closed"][2]
    oracle = closed + 2e-8
    text = replace_field(oracle_text, 2, 3, format(oracle, ".16e"))
    text = replace_field(text, 2, 4, format(abs(closed - oracle), ".16e"))
    rejects(ORACLE, text, "abs_diff row 2")


def test_rejects_abs_diff_inconsistent_with_columns(oracle_text):
    rejects(ORACLE, replace_field(oracle_text, 1, 4, format(0.0, ".16e")), "abs_diff row 1")
