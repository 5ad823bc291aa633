"""Command-line front end emitting deterministic CSV tables.

Every scan and cross-check is a subcommand under two groups::

    quenchkit well  {coeffs,pop-scan,captured,energy-scan,force-scan,oracle-check}
    quenchkit spin  {return-prob,omega-scan,threshold,ode-check,symmetry-check}

Tables are UTF-8 CSV with one header line, ``\\n`` line endings, and reals in
scientific notation with 17 significant digits, so emitted files round-trip
to the exact in-memory doubles and identical invocations are byte-identical.

Exit codes: 0 success, 1 numerical non-convergence or a failed cross-check,
2 argument errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from quenchkit import spin, well
from quenchkit.numerics import OdeDivergenceError, QuadratureConvergenceError

_CHECK_FAILED = 1


class CheckFailure(Exception):
    """A cross-check exceeded its tolerance."""


def parse_real(text: str) -> float:
    """A finite decimal.  nan and inf are refused at the door: they slip past
    ``> 0`` and interval checks or overflow deep inside a kernel."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_angle(text: str) -> float:
    """Angle in radians from a finite decimal or a 'pi' / 'pi/N' literal."""
    s = text.strip().lower()
    try:
        if s == "pi":
            return math.pi
        value = math.pi / float(s[3:]) if s.startswith("pi/") else float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use a decimal or pi/N"
        ) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def _comma_list(text: str, parse, what: str) -> list[float]:
    values = [parse(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no {what} in {text!r}")
    return values


def parse_angle_list(text: str) -> list[float]:
    return _comma_list(text, parse_angle, "angles")


def parse_real_list(text: str) -> list[float]:
    return _comma_list(text, parse_real, "numbers")


def parse_range(text: str) -> tuple[float, float]:
    """'min:max' range literal with finite bounds."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"cannot parse range {text!r}; use the form min:max"
        )
    lo, hi = parse_real(parts[0]), parse_real(parts[1])
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}; need min < max")
    return lo, hi


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _tolerance(text: str) -> float:
    """A finite, positive tolerance; nan would make every check pass."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text}"
        )
    return value


def _scan_points(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"scans need at least 2 points, got {text}")
    return value


# Rows formatted per `%` call.  Large enough to amortize the call; small
# enough that a chunk's row objects and flat value tuple stay far below the
# table itself (65,536-row chunks raised energy-scan's peak RSS by 1.5 MiB).
EMIT_CHUNK_ROWS = 4096


def write_table(header: list[str], rows, output: str | None) -> None:
    """Stream ``rows`` as CSV under ``header`` to the file ``output``, or to
    stdout when it is None.

    The row format is fixed by the first row: ``%d`` for integer columns and
    ``%.16e`` (17 significant digits) for the rest, so every row must carry
    the first row's column types.  Rows are pulled in chunks of
    `EMIT_CHUNK_ROWS` and each chunk is formatted by one ``%`` call, so an
    iterator of rows is never held whole.
    """
    if output is not None:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            _stream_csv(fh, header, rows)
        return
    try:
        _stream_csv(sys.stdout, header, rows)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Stop emitting and let
        # the command's own outcome set the exit status; fd 1 now points at
        # devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _stream_csv(fh, header: list[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    rows = iter(rows)
    chunk = list(itertools.islice(rows, EMIT_CHUNK_ROWS))
    if chunk:
        row_format = ",".join(
            "%d" if isinstance(v, (int, np.integer)) else "%.16e" for v in chunk[0]
        ) + "\n"
    while chunk:
        flat = tuple(itertools.chain.from_iterable(chunk))
        fh.write((row_format * len(chunk)) % flat)
        chunk = list(itertools.islice(rows, EMIT_CHUNK_ROWS))


def _well_config(args) -> well.WellConfig:
    return well.WellConfig(mass=args.mass, planck=args.planck, width=args.width)


def _rotor_config(args, alpha: float, ratio: float) -> spin.RotorConfig:
    return spin.RotorConfig.at_ratio(
        ratio,
        alpha=alpha,
        field_strength=args.b0,
        charge=args.charge,
        mass=args.mass,
    )


def _add_well_constants(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mass", type=parse_real, default=1e-27, help="particle mass in kg"
    )
    parser.add_argument(
        "--planck", type=parse_real, default=6.626e-34, help="Planck constant in J*s"
    )
    parser.add_argument(
        "--width", type=parse_real, default=1e-9, help="initial well width in m"
    )


def _add_spin_constants(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b0", type=parse_real, default=1.0, help="field strength in T")
    parser.add_argument(
        "--charge", type=parse_real, default=1.6e-19, help="charge magnitude in C"
    )
    parser.add_argument(
        "--mass", type=parse_real, default=9.3e-31, help="particle mass in kg"
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-o", "--output", default=None, help="output CSV path (default: stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchkit",
        description="Sudden-quench quantum dynamics scans and cross-checks.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    well_group = top.add_parser("well", help="square well with a suddenly moved wall")
    wsub = well_group.add_subparsers(dest="command", required=True)

    p = wsub.add_parser(
        "coeffs", help="expansion coefficients; columns n,b_n,rho_n"
    )
    p.add_argument("--gamma", type=parse_real, default=4.9, help="width ratio")
    p.add_argument("--levels", type=_positive_int, default=10)
    _add_output(p)

    p = wsub.add_parser("pop-scan", help="level populations; columns n,rho_n")
    p.add_argument("--gamma", type=parse_real, default=4.9, help="width ratio")
    p.add_argument("--levels", type=_positive_int, default=10)
    _add_output(p)

    p = wsub.add_parser(
        "captured",
        help="total probability captured by the truncation; columns gamma,captured",
    )
    p.add_argument("--gamma", type=parse_range, default=(0.05, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)
    _add_output(p)

    p = wsub.add_parser(
        "energy-scan", help="post-quench energy; columns gamma,E_over_E1"
    )
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)
    _add_well_constants(p)
    _add_output(p)

    p = wsub.add_parser(
        "force-scan",
        help="wall force; columns gamma,E_over_E1,F_over_E1_per_Q0 "
        "(integer-resonant grid points omitted)",
    )
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)
    p.add_argument("--step", type=parse_real, default=well.DEFAULT_FORCE_STEP)
    _add_well_constants(p)
    _add_output(p)

    p = wsub.add_parser(
        "oracle-check",
        help="closed-form coefficients vs quadrature; columns "
        "n,gamma,b_closed,b_oracle,abs_diff; exits 1 beyond --tol",
    )
    p.add_argument(
        "--gamma-list",
        type=parse_real_list,
        default="0.1,0.3,0.5,0.9,1.5,2,2.5,4.9,5,10.1",
        help="comma-separated width ratios",
    )
    p.add_argument("--max-level", type=_positive_int, default=20)
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--quad-tol", type=_tolerance, default=1e-10)
    _add_well_constants(p)
    _add_output(p)

    spin_group = top.add_parser("spin", help="spin-1/2 in a rotating field")
    ssub = spin_group.add_subparsers(dest="command", required=True)

    p = ssub.add_parser(
        "return-prob",
        help="return probability over one drive period; columns t_over_period,rho1",
    )
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--ratio", type=parse_real, default=1.0, help="drive/Larmor ratio")
    p.add_argument("--points", type=_scan_points, default=1000)
    _add_spin_constants(p)
    _add_output(p)

    p = ssub.add_parser(
        "omega-scan",
        help="single-cycle return probability; columns omega_over_omega0,rho1 "
        "(alpha_rad prepended when several angles are given)",
    )
    p.add_argument("--alpha", type=parse_angle_list, default=[math.pi / 4])
    p.add_argument("--ratio", type=parse_range, default=(0.05, 20.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=10000)
    _add_spin_constants(p)
    _add_output(p)

    p = ssub.add_parser(
        "threshold",
        help="anti-adiabatic onsets; columns "
        "monotone_onset_ratio,frozen_ratio,max_rho1",
    )
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--epsilon", type=parse_real, default=0.02)
    p.add_argument("--ratio", type=parse_range, default=(0.05, 20.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=10000)
    _add_spin_constants(p)
    _add_output(p)

    p = ssub.add_parser(
        "ode-check",
        help="closed form vs RK4 over one cycle; columns "
        "alpha_rad,omega_over_omega0,max_abs_diff,norm_drift; exits 1 beyond --tol",
    )
    p.add_argument(
        "--alpha", type=parse_angle_list, default=[math.pi / 12, math.pi / 4, math.pi / 3]
    )
    p.add_argument(
        "--ratio-list", type=parse_real_list, default="0.3,1,1.442,5,15",
        help="comma-separated drive/Larmor ratios",
    )
    p.add_argument("--samples", type=_positive_int, default=16)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    _add_spin_constants(p)
    _add_output(p)

    p = ssub.add_parser(
        "symmetry-check",
        help="branch symmetry and cycle consistency on random draws; columns "
        "draws,max_branch_gap,max_cycle_gap; exits 1 beyond --tol",
    )
    p.add_argument("--draws", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    _add_spin_constants(p)
    _add_output(p)

    return parser


def _run_well(args) -> int:
    cfg = _well_config(args) if hasattr(args, "mass") else well.WellConfig()
    if args.command == "coeffs":
        dec = well.decompose(args.gamma, args.levels)
        rows = zip(range(1, args.levels + 1), dec.coefficients, dec.populations)
        write_table(["n", "b_n", "rho_n"], rows, args.output)
    elif args.command == "pop-scan":
        table = well.population_scan(args.gamma, args.levels)
        rows = zip(table[:, 0].astype(np.int64), table[:, 1])
        write_table(["n", "rho_n"], rows, args.output)
    elif args.command == "captured":
        lo, hi = args.gamma
        grid = np.linspace(lo, hi, args.points)
        rows = [(g, well.decompose(float(g), args.levels).captured) for g in grid]
        write_table(["gamma", "captured"], rows, args.output)
    elif args.command == "energy-scan":
        lo, hi = args.gamma
        table = well.energy_scan(lo, hi, args.points, args.levels, cfg)
        write_table(["gamma", "E_over_E1"], table, args.output)
    elif args.command == "force-scan":
        lo, hi = args.gamma
        profile = well.force_scan(lo, hi, args.points, args.levels, cfg, args.step)
        rows = zip(profile.gamma, profile.energy, profile.force)
        write_table(["gamma", "E_over_E1", "F_over_E1_per_Q0"], rows, args.output)
    elif args.command == "oracle-check":
        qspec = well.QuadratureSpec(tolerance=args.quad_tol)
        rows = []
        worst = 0.0
        levels = np.arange(1, args.max_level + 1)
        for g in args.gamma_list:
            oracles = well.overlap_oracle(levels, g, cfg, qspec).tolist()
            for n, oracle in zip(levels.tolist(), oracles):
                closed = well.expansion_coefficient(n, g)
                diff = abs(closed - oracle)
                worst = max(worst, diff)
                rows.append((n, g, closed, oracle, diff))
        write_table(
            ["n", "gamma", "b_closed", "b_oracle", "abs_diff"], rows, args.output
        )
        if worst > args.tol:
            raise CheckFailure(
                f"coefficient oracle disagreement {worst:.3e} exceeds {args.tol:.3e}"
            )
    return 0


def _run_spin(args) -> int:
    if args.command == "return-prob":
        cfg = _rotor_config(args, args.alpha, args.ratio)
        fractions = np.linspace(0.0, 1.0, args.points)
        rows = [
            (f, spin.return_probability(f * cfg.drive_period, spin.UPPER, cfg))
            for f in fractions
        ]
        write_table(["t_over_period", "rho1"], rows, args.output)
    elif args.command == "omega-scan":
        cfg = _rotor_config(args, args.alpha[0], 1.0)
        lo, hi = args.ratio
        curves = spin.omega_scan(lo, hi, args.points, args.alpha, cfg)
        if len(curves) == 1:
            rows = zip(curves[0].ratios, curves[0].probabilities)
            write_table(["omega_over_omega0", "rho1"], rows, args.output)
        else:
            rows = itertools.chain.from_iterable(
                zip(itertools.repeat(curve.alpha), curve.ratios, curve.probabilities)
                for curve in curves
            )
            write_table(["alpha_rad", "omega_over_omega0", "rho1"], rows, args.output)
    elif args.command == "threshold":
        cfg = _rotor_config(args, args.alpha, 1.0)
        lo, hi = args.ratio
        report = spin.anti_adiabatic_threshold(args.epsilon, cfg, lo, hi, args.points)
        frozen = report.frozen_onset if report.frozen_found else math.nan
        write_table(
            ["monotone_onset_ratio", "frozen_ratio", "max_rho1"],
            [(report.monotone_onset, frozen, report.max_probability)],
            args.output,
        )
        if not report.frozen_found:
            raise CheckFailure(
                f"no scanned ratio keeps rho1 >= 1 - {args.epsilon}; "
                f"best rho1 = {report.max_probability:.6f}"
            )
    elif args.command == "ode-check":
        rows = []
        worst = 0.0
        for alpha in args.alpha:
            for ratio in args.ratio_list:
                cfg = _rotor_config(args, alpha, ratio)
                times, states, drift = spin.ode_trajectory(
                    cfg.drive_period, spin.UPPER, cfg, samples=args.samples
                )
                diff = max(
                    np.max(np.abs(spin.evolve_closed_form(t, spin.UPPER, cfg).vector - s))
                    for t, s in zip(times, states)
                )
                worst = max(worst, diff)
                rows.append((alpha, ratio, diff, drift))
        write_table(
            ["alpha_rad", "omega_over_omega0", "max_abs_diff", "norm_drift"],
            rows,
            args.output,
        )
        if worst > args.tol:
            raise CheckFailure(
                f"closed form vs RK4 disagreement {worst:.3e} exceeds {args.tol:.3e}"
            )
    elif args.command == "symmetry-check":
        rng = np.random.default_rng(args.seed)
        worst_sym = 0.0
        worst_cycle = 0.0
        for _ in range(args.draws):
            alpha = rng.uniform(0.0, math.pi)
            ratio = rng.uniform(0.05, 20.0)
            cfg = _rotor_config(args, alpha, ratio)
            t = rng.uniform(0.0, 1.0) * cfg.drive_period
            _, _, gap = spin.branch_symmetry_check(t, cfg)
            worst_sym = max(worst_sym, gap)
            cycle_gap = abs(
                spin.return_probability(cfg.drive_period, spin.UPPER, cfg)
                - spin.return_probability_cycle(cfg.omega, cfg)
            )
            worst_cycle = max(worst_cycle, cycle_gap)
        write_table(
            ["draws", "max_branch_gap", "max_cycle_gap"],
            [(args.draws, worst_sym, worst_cycle)],
            args.output,
        )
        if max(worst_sym, worst_cycle) > args.tol:
            raise CheckFailure(
                f"symmetry/cycle gap {max(worst_sym, worst_cycle):.3e} "
                f"exceeds {args.tol:.3e}"
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.group == "well":
            return _run_well(args)
        return _run_spin(args)
    except (QuadratureConvergenceError, OdeDivergenceError, CheckFailure) as exc:
        print(f"quenchkit: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except ValueError as exc:
        # domain validation raised past argparse (e.g. --alpha outside [0, pi])
        parser.error(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
