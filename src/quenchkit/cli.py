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
import functools
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


def _gate(what: str, worst: float, tol: float) -> None:
    if worst > tol:
        raise CheckFailure(f"{what} {worst:.3e} exceeds {tol:.3e}")


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


# Largest value of a size flag (--levels, --points, --max-level, --samples,
# --draws) and of the quadrature panels of oracle-check, up to L (L + 1) / 2
# per gamma at --max-level L.  The largest array a command holds is a few
# times one of these sizes (scans go in blocks), so 10^7 keeps each under a
# few hundred MiB; the benchmark's largest size is 10^6 points.
MAX_ELEMENTS = 10_000_000


def _size(value: int, text: str) -> int:
    if value > MAX_ELEMENTS:
        raise argparse.ArgumentTypeError(
            f"{text} exceeds the size budget of {MAX_ELEMENTS} elements"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return _size(value, text)


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
    return _size(value, text)


# Rows formatted per chunk.  Large enough to amortize the per-chunk calls;
# small enough that a chunk's row objects, flat value tuple and long-double
# temporaries stay far below the table itself (65,536-row chunks raised
# energy-scan's peak RSS by 1.5 MiB).
EMIT_CHUNK_ROWS = 4096


def write_table(header: list[str], rows, output: str | None) -> None:
    """Stream ``rows`` as CSV under ``header`` to the file ``output``, or to
    stdout when it is None.

    ``rows`` is a 2-D array, an iterable of 2-D arrays (blocks of rows, such
    as one per curve), or an iterable of rows.  The row format is fixed by
    the first row: ``%d`` for integer columns and ``%.16e`` (17 significant
    digits) for the rest, so every row must carry the first row's column
    types.  The table is formatted in chunks of `EMIT_CHUNK_ROWS` rows, so an
    iterator of rows is never held whole.  Chunks of float64 arrays go
    through `_decimal_rows`, which gives the same bytes as ``%``.
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
    row_format = None
    for chunk in _chunks(rows):
        if row_format is None:
            row_format = ",".join(
                "%d" if isinstance(v, (int, np.integer)) else "%.16e" for v in chunk[0]
            ) + "\n"
        if (isinstance(chunk, np.ndarray) and chunk.dtype == np.float64
                and _decimal_tables() is not None):
            fh.write(_decimal_rows(chunk, row_format))
        else:
            flat = tuple(itertools.chain.from_iterable(chunk))
            fh.write((row_format * len(chunk)) % flat)


def _chunks(rows):
    """The table in pieces of at most `EMIT_CHUNK_ROWS` rows: slices of 2-D
    arrays, or lists of rows."""
    if isinstance(rows, np.ndarray):
        rows = (rows,)
    rows = iter(rows)
    first = next(rows, None)
    if isinstance(first, np.ndarray) and first.ndim == 2:
        for block in itertools.chain((first,), rows):
            for start in range(0, len(block), EMIT_CHUNK_ROWS):
                yield block[start:start + EMIT_CHUNK_ROWS]
    elif first is not None:
        rows = itertools.chain((first,), rows)
        while chunk := list(itertools.islice(rows, EMIT_CHUNK_ROWS)):
            yield chunk


# Decimal exponents the fast path meets: the floor(log10) estimate of a value
# in [1e-99, 1e100) and its correction by one either way.
_EXPONENTS = range(-101, 102)
# One formatted value: d.dddddddddddddddde+dd and its ',' or '\n'.
_SLOT = 23


@functools.cache
def _decimal_tables():
    """Powers of ten 10^(16-e) for e in `_EXPONENTS`, correctly rounded to
    long double, and the four bytes ``e+dd`` for each exponent -99..99; None
    where long double is not the x87 format with its 64-bit mantissa, whose
    rounding bound `_decimal_rows` relies on.  Built on first use, so that
    importing the CLI costs nothing."""
    if np.finfo(np.longdouble).nmant != 63:
        return None
    powers = np.array([np.longdouble(f"1e{16 - e}") for e in _EXPONENTS])
    exponents = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), "<u4")
    return powers, exponents


def _field(buf, offset: int, dtype: str):
    # The bytes from ``offset`` on in each slot of ``buf`` as one integer per
    # slot; unaligned, as a slot is 23 bytes.
    count = buf.size // _SLOT
    return np.ndarray((count,), dtype, buffer=buf, offset=offset, strides=(_SLOT,))


def _ascii_8(n):
    # Eight decimal digits of each n < 10^8 (a uint64 array, overwritten) as
    # one little-endian word of ASCII bytes, most significant digit first:
    # split into 4-digit halves in 32-bit lanes, each lane into 2-digit
    # 16-bit lanes, each of those into 8-bit digits.  x // 100 =
    # (x * 5243) >> 19 for x < 10^4 and x // 10 = (x * 103) >> 10 for
    # x < 100, and no product carries out of its lane.
    q = n // 10000
    n -= q * 10000
    n <<= 32
    n |= q
    q = n * 5243
    q >>= 19
    q &= 0x0000007F0000007F
    n -= q * 100
    n <<= 16
    n |= q
    q = n * 103
    q >>= 10
    q &= 0x000F000F000F000F
    n -= q * 10
    n <<= 8
    n |= q
    n += 0x3030303030303030
    return n


def _decimal_rows(block, row_format: str) -> str:
    """``(row_format * len(block)) % values`` for a 2-D float64 ``block``,
    formatted as arrays.

    A value x in [1e-99, 1e100) is scaled to r = x 10^(16-e) in [1e16, 1e17)
    in long double; its 17 digits are those of r rounded to an integer.  The
    power and the product are each rounded to 64 bits, so r is within
    2 2^-64 r < 0.011 of the exact scaled value, and the rounding is certain
    unless r lies within 0.02 of a half.  Those values (about 4% of a smooth
    curve) are formatted by ``%.16e`` into their 22-byte slot, as Grisu3
    defers to an exact method (Loitsch 2010).  Rows holding a value outside
    that range (zero, negative, nan, inf, or a 3-digit exponent) are
    formatted by ``row_format`` whole.

    Temporaries are updated in place or dropped once used, so that a chunk
    costs little more memory than its text.
    """
    powers, exponents = _decimal_tables()
    rows, cols = block.shape
    x = block.ravel()
    fast = (x >= 1e-99) & (x < 1e100)
    xs = np.where(fast, x, 1.0)
    e = np.log10(xs)
    e = np.floor(e, out=e).astype(np.intp)
    r = xs.astype(np.longdouble)
    r *= powers[e - _EXPONENTS.start]
    q = r.astype(np.uint64)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))
    if off.size:
        e[off] += np.where(q[off] < 10**16, -1, 1)
        r[off] = xs[off].astype(np.longdouble) * powers[e[off] - _EXPONENTS.start]
        q[off] = r[off].astype(np.uint64)
    del xs
    r -= q
    frac = r.astype(np.float64)
    del r
    unsure = np.abs(frac - 0.5) < 0.02
    q += frac > 0.5
    del frac
    carry = np.flatnonzero(q == 10**17)
    q[carry] = 10**16
    e[carry] += 1

    buf = np.empty((rows, cols, _SLOT), np.uint8)
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    lead = q // 10**16
    q -= lead * 10**16
    lead += ord("0") + (ord(".") << 8)
    _field(buf, 0, "<u2")[...] = lead
    del lead
    hi = q // 10**8
    q -= hi * 10**8
    _field(buf, 2, "<u8")[...] = _ascii_8(hi)
    _field(buf, 10, "<u8")[...] = _ascii_8(q)
    _field(buf, 18, "<u4")[...] = exponents[e + 99]

    whole = ~fast.reshape(rows, cols).all(axis=1)
    exact = np.flatnonzero(unsure & np.repeat(~whole, cols))
    if exact.size:
        text = ("%.16e" * exact.size) % tuple(x[exact].tolist())
        buf.reshape(x.size, _SLOT)[exact, :-1] = np.frombuffer(
            text.encode("ascii"), np.uint8
        ).reshape(exact.size, _SLOT - 1)
    lines = buf.reshape(rows, cols * _SLOT)
    if not whole.any():
        return str(lines, "ascii")
    # Runs of rows alternate between the two paths; splice them in order.
    edges = [0, *(np.flatnonzero(np.diff(whole)) + 1).tolist(), rows]
    parts = []
    for start, stop in zip(edges, edges[1:]):
        if whole[start]:
            values = tuple(block[start:stop].ravel().tolist())
            parts.append((row_format * (stop - start)) % values)
        else:
            parts.append(str(lines[start:stop], "ascii"))
    return "".join(parts)


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

    p = wsub.add_parser("pop-scan", help="level populations; columns n,rho_n")
    p.add_argument("--gamma", type=parse_real, default=4.9, help="width ratio")
    p.add_argument("--levels", type=_positive_int, default=10)

    p = wsub.add_parser(
        "captured",
        help="total probability captured by the truncation; columns gamma,captured",
    )
    p.add_argument("--gamma", type=parse_range, default=(0.05, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)

    p = wsub.add_parser(
        "energy-scan", help="post-quench energy; columns gamma,E_over_E1"
    )
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)

    p = wsub.add_parser(
        "force-scan",
        help="wall force; columns gamma,E_over_E1,F_over_E1_per_Q0 "
        "(grid points at exact integers gamma >= 1 omitted)",
    )
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=10)
    p.add_argument("--step", type=parse_real, default=well.DEFAULT_FORCE_STEP)

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

    spin_group = top.add_parser("spin", help="spin-1/2 in a rotating field")
    ssub = spin_group.add_subparsers(dest="command", required=True)

    p = ssub.add_parser(
        "return-prob",
        help="return probability over one drive period; columns t_over_period,rho1",
    )
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--ratio", type=parse_real, default=1.0, help="drive/Larmor ratio")
    p.add_argument("--points", type=_scan_points, default=1000)

    p = ssub.add_parser(
        "omega-scan",
        help="single-cycle return probability; columns omega_over_omega0,rho1 "
        "(alpha_rad prepended when several angles are given)",
    )
    p.add_argument("--alpha", type=parse_angle_list, default=[math.pi / 4])
    p.add_argument("--ratio", type=parse_range, default=(0.05, 20.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=10000)

    p = ssub.add_parser(
        "threshold",
        help="anti-adiabatic onsets; columns "
        "monotone_onset_ratio,frozen_ratio,max_rho1",
    )
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--epsilon", type=parse_real, default=0.02)
    p.add_argument("--ratio", type=parse_range, default=(0.05, 20.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=10000)

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

    p = ssub.add_parser(
        "symmetry-check",
        help="branch symmetry and cycle consistency on random draws; columns "
        "draws,max_branch_gap,max_cycle_gap; exits 1 beyond --tol",
    )
    p.add_argument("--draws", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--tol", type=_tolerance, default=1e-12)

    for p in (*wsub.choices.values(), *ssub.choices.values()):
        p.add_argument("-o", "--output", default=None, help="output CSV path (default: stdout)")
    return parser


def _run_well(args) -> int:
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
        table = well.captured_scan(lo, hi, args.points, args.levels)
        write_table(["gamma", "captured"], table, args.output)
    elif args.command == "energy-scan":
        lo, hi = args.gamma
        table = well.energy_scan(lo, hi, args.points, args.levels)
        write_table(["gamma", "E_over_E1"], table, args.output)
    elif args.command == "force-scan":
        lo, hi = args.gamma
        profile = well.force_scan(lo, hi, args.points, args.levels, args.step)
        table = np.column_stack((profile.gamma, profile.energy, profile.force))
        write_table(["gamma", "E_over_E1", "F_over_E1_per_Q0"], table, args.output)
    elif args.command == "oracle-check":
        top = args.max_level
        panels = len(args.gamma_list) * top * (top + 1) // 2
        if panels > MAX_ELEMENTS:
            raise ValueError(
                f"--gamma-list and --max-level {top} make up to {panels} "
                f"quadrature panels, above the size budget of {MAX_ELEMENTS}"
            )
        qspec = well.QuadratureSpec(tolerance=args.quad_tol)
        rows = []
        levels = np.arange(1, args.max_level + 1)
        for g in args.gamma_list:
            oracles = well.overlap_oracle(levels, g, spec=qspec).tolist()
            closed = well.decompose(g, args.max_level).coefficients.tolist()
            rows += [(n, g, c, o, abs(c - o)) for n, c, o in zip(levels.tolist(), closed, oracles)]
        write_table(
            ["n", "gamma", "b_closed", "b_oracle", "abs_diff"], rows, args.output
        )
        _gate("coefficient oracle disagreement", max(row[4] for row in rows), args.tol)
    return 0


def _run_spin(args) -> int:
    if args.command == "return-prob":
        cfg = spin.RotorConfig.at_ratio(args.ratio, alpha=args.alpha)
        fractions = np.linspace(0.0, 1.0, args.points)
        # one block of rows per chunk keeps the temporaries small
        blocks = (
            np.column_stack((f, spin.return_probability(f * cfg.drive_period, spin.UPPER, cfg)))
            for f in np.split(fractions, range(EMIT_CHUNK_ROWS, args.points, EMIT_CHUNK_ROWS))
        )
        write_table(["t_over_period", "rho1"], blocks, args.output)
    elif args.command == "omega-scan":
        lo, hi = args.ratio
        curves = spin.omega_scan(lo, hi, args.points, args.alpha)
        if len(curves) == 1:
            table = np.column_stack((curves[0].ratios, curves[0].probabilities))
            write_table(["omega_over_omega0", "rho1"], table, args.output)
        else:
            blocks = (
                np.column_stack((np.full(len(c.ratios), c.alpha), c.ratios, c.probabilities))
                for c in curves
            )
            write_table(["alpha_rad", "omega_over_omega0", "rho1"], blocks, args.output)
    elif args.command == "threshold":
        lo, hi = args.ratio
        report = spin.anti_adiabatic_threshold(args.epsilon, args.alpha, lo, hi, args.points)
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
        for alpha in args.alpha:
            for ratio in args.ratio_list:
                cfg = spin.RotorConfig.at_ratio(ratio, alpha=alpha)
                times, states, drift = spin.ode_trajectory(
                    cfg.drive_period, spin.UPPER, cfg, samples=args.samples
                )
                closed = spin.evolve_closed_form(times, spin.UPPER, cfg)
                rows.append((alpha, ratio, np.max(np.abs(closed - states)), drift))
        write_table(
            ["alpha_rad", "omega_over_omega0", "max_abs_diff", "norm_drift"],
            rows,
            args.output,
        )
        _gate("closed form vs RK4 disagreement", max(row[2] for row in rows), args.tol)
    elif args.command == "symmetry-check":
        rng = np.random.default_rng(args.seed)
        worst_sym = worst_cycle = 0.0
        for _ in range(args.draws):
            alpha = rng.uniform(0.0, math.pi)
            ratio = rng.uniform(0.05, 20.0)
            cfg = spin.RotorConfig.at_ratio(ratio, alpha=alpha)
            t = rng.uniform(0.0, 1.0) * cfg.drive_period
            # t and the period in one call; the branch gap is the one at t
            p_upper, _, gap = spin.branch_symmetry_check(
                np.array([t, cfg.drive_period]), cfg
            )
            worst_sym = max(worst_sym, gap[0])
            worst_cycle = max(worst_cycle, abs(p_upper[1] - spin.return_probability_cycle(cfg)))
        write_table(
            ["draws", "max_branch_gap", "max_cycle_gap"],
            [(args.draws, worst_sym, worst_cycle)],
            args.output,
        )
        _gate("symmetry/cycle gap", max(worst_sym, worst_cycle), args.tol)
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
