"""Output checker: every CSV the benchmark receives is parsed back and graded.

For every command the checker verifies the header, the row count, that each
real is finite and written with 17 significant digits, and that the input
columns (grids, level numbers, echoed parameters) are exactly the generated
inputs.  A few seed-chosen rows of every computed column are compared with
the 50-digit values of `reference`.  Cross-checks are graded by reading their
reported differences against the tolerance here, never by trusting exit 0.

Tolerances and why:

* ``COEF_RTOL``/``COEF_ATOL``: overlaps and populations.  In binary the
  generic formula loses about eps * k / d relative accuracy at distance d from
  an integer k (the cancellation the ROADMAP's correctness item targets); the
  absolute floor covers the exact zeros that come out as sin(m pi) ~ m * 1e-16
  at integer gamma.  A draw closer than ~2e-5 to an integer fails on purpose.
* ``ENERGY_RTOL``: truncated energy and captured probability, sums of the
  coefficients above.
* force: a stencil of energies each within ``ENERGY_RTOL`` carries at most
  4 * ENERGY_RTOL * |E| / step of rounding (one-sided weights 3, 4, 1 over 2
  steps).
* ``PROB_ATOL``: spin probabilities are squares of cos/sin of phases up to
  ~100 rad in the generated ranges, so rounding stays near 100 * eps = 2e-14.
* ``ORACLE_TOL``, ``ODE_TOL``, ``SYMMETRY_TOL``: the CLI's documented default
  ``--tol`` of oracle-check, ode-check and symmetry-check.
* ``ODE_DRIFT``: the norm drift the package's own RK4 tests allow.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from workloads import Command

COEF_RTOL = 1e-10
COEF_ATOL = 1e-12
ENERGY_RTOL = 1e-10
PROB_ATOL = 1e-12
ORACLE_TOL = 1e-8
ODE_TOL = 1e-6
ODE_DRIFT = 1e-8
SYMMETRY_TOL = 1e-12

# Documented CLI defaults the generated argv leaves in place.
RESONANCE_TOL = 1e-9  # relative window of force-scan's omitted resonant points
FORCE_STEP = 1e-4
SCAN_RATIOS = (0.05, 20.0)  # omega-scan and threshold ratio range
RETURN_POINTS = 1000
THRESHOLD_POINTS = 10000
SYMMETRY_DRAWS = 1000

SPOT_ROWS = 3

_REAL = r"-?(?:[1-9]\.\d{16}|0\.0{16})e[+-]\d{2,3}"
_INT = r"-?\d+"


class CheckFailure(Exception):
    """The output is not what the command must produce."""


@dataclass(frozen=True)
class Table:
    header: tuple[str, ...]
    lines: list[str]  # data rows, raw text
    cols: dict[str, np.ndarray]


def parse(text: str, header: tuple[str, ...], ints: tuple[str, ...] = ()) -> Table:
    """Parse a CSV and check its shape and number format."""
    if not text.endswith("\n"):
        raise CheckFailure("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(header):
        raise CheckFailure(f"header {lines[0]!r}, expected {','.join(header)!r}")
    rows = lines[1:]
    pattern = re.compile(",".join(_INT if c in ints else _REAL for c in header))
    for i, line in enumerate(rows):
        if not pattern.fullmatch(line):
            raise CheckFailure(
                f"row {i}: {line!r} is not {len(header)} finite fields "
                "with 17 significant digits"
            )
    values = np.array(",".join(rows).split(",") if rows else [], dtype=float)
    values = values.reshape(len(rows), len(header))
    cols = {name: values[:, j].astype(int) if name in ints else values[:, j]
            for j, name in enumerate(header)}
    return Table(tuple(header), rows, cols)


def _rows(table: Table, expected: int) -> None:
    if len(table.lines) != expected:
        raise CheckFailure(f"{len(table.lines)} rows, expected {expected}")


def _exact(table: Table, name: str, expected) -> None:
    got = table.cols[name]
    expected = np.asarray(expected)
    bad = np.flatnonzero(got != expected)
    if bad.size:
        i = bad[0]
        raise CheckFailure(f"{name} row {i}: {got[i]!r}, expected {expected[i]!r}")


def _at_most(table: Table, name: str, tol: float) -> None:
    col = table.cols[name]
    bad = np.flatnonzero(~((col >= 0.0) & (col <= tol)))
    if bad.size:
        i = bad[0]
        raise CheckFailure(f"{name} row {i}: {col[i]!r} outside [0, {tol}]")


def _spot_rows(table: Table, seed: int, key: str) -> list[int]:
    n = len(table.lines)
    return sorted(random.Random(f"{seed}:{key}").sample(range(n), min(SPOT_ROWS, n)))


def _near(table: Table, name: str, row: int, ref, rtol: float, atol: float) -> None:
    got = table.cols[name][row]
    text = table.lines[row].split(",")[table.header.index(name)]
    if format(float(got), ".16e") != text:
        raise CheckFailure(f"{name} row {row}: {text!r} is not the shortest 17-digit form")
    ref = float(ref)
    if not abs(got - ref) <= rtol * abs(ref) + atol:
        raise CheckFailure(
            f"{name} row {row}: {got!r} differs from the 50-digit reference {ref!r}"
        )


def _range(text: str) -> tuple[float, float]:
    lo, hi = text.split(":")
    return float(lo), float(hi)


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",")]


def _resonant(g: np.ndarray) -> np.ndarray:
    k = np.floor(g + 0.5)
    identity = np.abs(g - 1.0) <= RESONANCE_TOL
    return identity | ((g >= 1.0) & (np.abs(g - k) <= RESONANCE_TOL * k))


def _energy_scan(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("gamma", "E_over_E1"))
    _rows(t, p["points"])
    _exact(t, "gamma", np.linspace(*_range(p["gamma"]), p["points"]))
    for r in _spot_rows(t, seed, cmd.key):
        g = t.cols["gamma"][r]
        _near(t, "E_over_E1", r, reference.energy(g, p["levels"]), ENERGY_RTOL, 0.0)


def _force_scan(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("gamma", "E_over_E1", "F_over_E1_per_Q0"))
    grid = np.linspace(*_range(p["gamma"]), p["points"])
    grid = grid[~_resonant(grid)]
    _rows(t, grid.size)
    _exact(t, "gamma", grid)
    for r in _spot_rows(t, seed, cmd.key):
        g = t.cols["gamma"][r]
        e = reference.energy(g, p["levels"])
        _near(t, "E_over_E1", r, e, ENERGY_RTOL, 0.0)
        f_atol = 4.0 * ENERGY_RTOL * abs(float(e)) / FORCE_STEP
        _near(t, "F_over_E1_per_Q0", r, reference.force(g, p["levels"], FORCE_STEP), 0.0, f_atol)


def _coeffs(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("n", "b_n", "rho_n"), ints=("n",))
    _rows(t, p["levels"])
    _exact(t, "n", np.arange(1, p["levels"] + 1))
    ref = reference.well_coefficients(float(p["gamma"]), p["levels"])
    for r in _spot_rows(t, seed, cmd.key):
        _near(t, "b_n", r, ref[r], COEF_RTOL, COEF_ATOL)
        _near(t, "rho_n", r, ref[r] ** 2, COEF_RTOL, COEF_ATOL)


def _pop_scan(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("n", "rho_n"), ints=("n",))
    _rows(t, p["levels"])
    _exact(t, "n", np.arange(1, p["levels"] + 1))
    ref = reference.well_coefficients(float(p["gamma"]), p["levels"])
    for r in _spot_rows(t, seed, cmd.key):
        _near(t, "rho_n", r, ref[r] ** 2, COEF_RTOL, COEF_ATOL)


def _captured(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("gamma", "captured"))
    _rows(t, p["points"])
    _exact(t, "gamma", np.linspace(*_range(p["gamma"]), p["points"]))
    for r in _spot_rows(t, seed, cmd.key):
        g = t.cols["gamma"][r]
        _near(t, "captured", r, reference.captured(g, p["levels"]), ENERGY_RTOL, 0.0)


def _oracle_check(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    gammas, levels = _floats(p["gamma-list"]), p["max-level"]
    t = parse(text, ("n", "gamma", "b_closed", "b_oracle", "abs_diff"), ints=("n",))
    _rows(t, len(gammas) * levels)
    _exact(t, "n", np.tile(np.arange(1, levels + 1), len(gammas)))
    _exact(t, "gamma", np.repeat(gammas, levels))
    _exact(t, "abs_diff", np.abs(t.cols["b_closed"] - t.cols["b_oracle"]))
    _at_most(t, "abs_diff", ORACLE_TOL)
    for r in _spot_rows(t, seed, cmd.key):
        n, g = int(t.cols["n"][r]), float(t.cols["gamma"][r])
        b = reference.well_coefficients(g, n)[-1]
        _near(t, "b_closed", r, b, COEF_RTOL, COEF_ATOL)
        _near(t, "b_oracle", r, b, 0.0, ORACLE_TOL)


def _ode_check(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    alphas, ratios = _floats(p["alpha"]), _floats(p["ratio-list"])
    t = parse(text, ("alpha_rad", "omega_over_omega0", "max_abs_diff", "norm_drift"))
    _rows(t, len(alphas) * len(ratios))
    _exact(t, "alpha_rad", np.repeat(alphas, len(ratios)))
    _exact(t, "omega_over_omega0", np.tile(ratios, len(alphas)))
    _at_most(t, "max_abs_diff", ODE_TOL)
    _at_most(t, "norm_drift", ODE_DRIFT)


def _symmetry_check(cmd: Command, text: str, seed: int) -> None:
    t = parse(text, ("draws", "max_branch_gap", "max_cycle_gap"), ints=("draws",))
    _rows(t, 1)
    _exact(t, "draws", [SYMMETRY_DRAWS])
    _at_most(t, "max_branch_gap", SYMMETRY_TOL)
    _at_most(t, "max_cycle_gap", SYMMETRY_TOL)


def _return_prob(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("t_over_period", "rho1"))
    _rows(t, RETURN_POINTS)
    _exact(t, "t_over_period", np.linspace(0.0, 1.0, RETURN_POINTS))
    alpha, ratio = float(p["alpha"]), float(p["ratio"])
    for r in _spot_rows(t, seed, cmd.key):
        f = t.cols["t_over_period"][r]
        _near(t, "rho1", r, reference.return_probability(f, alpha, ratio), 0.0, PROB_ATOL)


def _threshold(cmd: Command, text: str, seed: int) -> None:
    # The whole 10,000-point curve is recomputed at 50 digits and rounded,
    # then the onsets are read off it by the rules `spin threshold` documents.
    p = cmd.params
    alpha, epsilon = float(p["alpha"]), float(p["epsilon"])
    t = parse(text, ("monotone_onset_ratio", "frozen_ratio", "max_rho1"))
    _rows(t, 1)
    ratios = np.linspace(*SCAN_RATIOS, THRESHOLD_POINTS)
    rho = np.array([float(reference.cycle_probability(x, alpha)) for x in ratios])
    decreases = np.flatnonzero(np.diff(rho) < -1e-13)
    monotone = ratios[decreases[-1] + 1] if decreases.size else ratios[0]
    below = np.flatnonzero(rho < 1.0 - epsilon)
    if below.size and below[-1] == rho.size - 1:
        raise CheckFailure(f"the reference never freezes within {epsilon}; bad workload")
    frozen = ratios[below[-1] + 1] if below.size else ratios[0]
    _exact(t, "monotone_onset_ratio", [monotone])
    _exact(t, "frozen_ratio", [frozen])
    _near(t, "max_rho1", 0, rho.max(), 0.0, PROB_ATOL)


def _omega_scan(cmd: Command, text: str, seed: int) -> None:
    p = cmd.params
    t = parse(text, ("omega_over_omega0", "rho1"))
    _rows(t, p["points"])
    _exact(t, "omega_over_omega0", np.linspace(*SCAN_RATIOS, p["points"]))
    alpha = float(p["alpha"])
    for r in _spot_rows(t, seed, cmd.key):
        x = t.cols["omega_over_omega0"][r]
        _near(t, "rho1", r, reference.cycle_probability(x, alpha), 0.0, PROB_ATOL)


_CHECKS = {
    "well energy-scan": _energy_scan,
    "well force-scan": _force_scan,
    "well coeffs": _coeffs,
    "well pop-scan": _pop_scan,
    "well captured": _captured,
    "well oracle-check": _oracle_check,
    "spin ode-check": _ode_check,
    "spin symmetry-check": _symmetry_check,
    "spin return-prob": _return_prob,
    "spin threshold": _threshold,
    "spin omega-scan": _omega_scan,
}


def check(cmd: Command, data: bytes, seed: int) -> None:
    """Raise `CheckFailure` unless ``data`` is the correct output of ``cmd``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckFailure(f"output is not UTF-8: {exc}") from None
    _CHECKS[cmd.key](cmd, text, seed)


def main(jobs_path: str) -> None:
    """Check every job of a jobs file; print one verdict (null or why) per job.

    The benchmark runs this in a child so that its own address space, and so
    the ``ru_maxrss`` its later children inherit, stays small.
    """
    spec = json.loads(Path(jobs_path).read_text())
    verdicts = []
    for job in spec["jobs"]:
        try:
            data = Path(job["path"]).read_bytes()
        except OSError as exc:
            verdicts.append(f"no output: {exc}")
            continue
        try:
            check(Command(**job["command"]), data, spec["seed"])
            verdicts.append(None)
        except CheckFailure as exc:
            verdicts.append(str(exc))
    print(json.dumps(verdicts))


if __name__ == "__main__":
    main(sys.argv[1])
