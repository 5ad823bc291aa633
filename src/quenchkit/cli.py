"""Command-line front end emitting deterministic CSV tables.

Every scan and cross-check is a subcommand under two groups::

    quenchkit well  {coeffs,pop-scan,captured,energy-scan,force-scan,oracle-check}
    quenchkit spin  {return-prob,omega-scan,threshold,ode-check,symmetry-check}

Tables are UTF-8 CSV with one header line, ``\\n`` line endings, and reals in
scientific notation with 17 significant digits, so emitted files round-trip
to the exact in-memory doubles and identical invocations are byte-identical.

Exit codes: 0 success, 1 a failed check (after the whole table) or an oracle
that met a value that is not finite, 2 argument errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys

import numpy as np

from quenchkit import spin, well
from quenchkit.numerics import OdeDivergenceError, QuadratureConvergenceError

_CHECK_FAILED = 1


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
    """Angle in radians from a finite decimal or a 'pi' / 'pi/N' literal.

    N is held to the rule of `parse_real`: pi/inf would be the angle 0."""
    s = text.strip().lower()
    if s == "pi":
        return math.pi
    divided = s.startswith("pi/")
    try:
        number = float(s[3:] if divided else s)
        value = math.pi / number if divided else number
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use a decimal or pi/N"
        ) from None
    if not (math.isfinite(number) and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"angle must be a finite decimal or pi/N with N finite, got {text!r}"
        )
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
# --draws) and of oracle-check's quadrature panels, L (L + 1) / 2 per gamma
# at --max-level L.  Most commands hold a few arrays of that size at most
# (the spin scans go in blocks).  Two peak far higher at 10^6: force-scan at
# 147.2 MiB (121 bytes a point, 1.1 GiB at 10^7) and one ode-check trajectory
# at 238.7 MiB (208 bytes a sample, 2 GiB at 10^7).  The benchmark stops at 10^6.
MAX_ELEMENTS = 10_000_000


def _size(value: int, text: str) -> int:
    if value > MAX_ELEMENTS:
        raise argparse.ArgumentTypeError(
            f"{text} exceeds the size budget of {MAX_ELEMENTS} elements"
        )
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return _size(value, text)


def _seed(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
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
    value = _integer(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"scans need at least 2 points, got {text}")
    return _size(value, text)


# Rows formatted per chunk.  Large enough to amortize the per-chunk calls;
# small enough that a chunk's text and temporaries stay far below the table
# itself (65,536-row chunks raised energy-scan's peak RSS by 1.5 MiB).
EMIT_CHUNK_ROWS = 4096


def write_table(header: list[str], blocks, output: str | None, integers: int = 0) -> None:
    """Stream ``blocks`` as CSV under ``header`` to the file ``output``, or to
    stdout when it is None.

    ``blocks`` is a 2-D float64 array or an iterable of them (blocks of rows,
    such as one per curve).  The first ``integers`` columns hold integers
    within +-2^53, the bound of their slots, and are written ``%d`` (any
    other value, nan and inf included, raises ``ValueError``); the rest
    ``%.16e`` (17 significant digits).  The table is formatted in
    chunks of `EMIT_CHUNK_ROWS` rows, so an iterator of blocks is never held
    whole.  Each chunk goes through `_decimal_rows`, which gives the same
    bytes as ``%``.
    """
    if output is not None:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            _stream_csv(fh, header, blocks, integers)
        return
    try:
        _stream_csv(sys.stdout, header, blocks, integers)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Stop emitting and let
        # the command's own outcome set the exit status; fd 1 now points at
        # devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _stream_csv(fh, header: list[str], blocks, integers: int) -> None:
    fh.write(",".join(header) + "\n")
    for block in (blocks,) if isinstance(blocks, np.ndarray) else blocks:
        for start in range(0, len(block), EMIT_CHUNK_ROWS):
            fh.write(_decimal_rows(block[start:start + EMIT_CHUNK_ROWS], integers))


# Decimal exponents the fast path meets: the floor(log10) estimate of a value
# in [1e-99, 1e100) and its correction by one either way.
_EXPONENTS = range(-101, 102)
# One formatted value, right-aligned against its ',' or '\n' in the last
# byte: the 24 bytes of ``%24.16e``, the widest ``%.16e``
# (-d.dddddddddddddddde-ddd), hold every real, and every integer within
# +-2^53 (a sign and up to 16 digits).
_SLOT = 25
# Veltkamp's splitter for float64, 2^27 + 1: with c = x (2^27 + 1),
# c - (c - x) is x rounded to its upper 26 bits, exactly.
_SPLITTER = 134217729.0


@functools.cache
def _decimal_tables():
    """The powers of ten 10^(16-e) for e in `_EXPONENTS` as float64 pairs,
    one row ``hi, lo, big, small`` each: ``hi`` is the correctly rounded
    power, ``lo`` the correctly rounded remainder and ``big + small`` the
    Veltkamp halves of ``hi``; the powers 10^1..10^15 that count an
    integer's digits; and the text tables `_put` gathers from, as
    little-endian words: ``leads`` holds ``d.`` for each digit d, ``digits``
    ``%04d`` for 0..9999 and ``exponents`` ``e+dd`` for -99..99.  Built on
    first use, so that importing the CLI costs nothing."""
    hi, lo = [], []
    for k in (16 - e for e in _EXPONENTS):
        h = float(f"1e{k}")
        num, den = h.as_integer_ratio()
        ten_num, ten_den = 10 ** max(k, 0), 10 ** max(-k, 0)
        hi.append(h)
        # 10^k - h as one exact fraction of integers, rounded once
        lo.append((ten_num * den - num * ten_den) / (ten_den * den))
    hi = np.array(hi)
    big = hi * _SPLITTER
    big -= big - hi
    # one row per exponent, so that a value's four are gathered at once
    powers = np.column_stack((hi, lo, big, hi - big))
    tens = 10 ** np.arange(1, 16, dtype=np.uint64)
    leads = np.frombuffer(b"".join(b"%d." % d for d in range(10)), "<u2")
    # entry abcd holds the bytes a, b, c, d; the grid is views, only the stack allocates
    grid = np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij", copy=False)
    digits = np.stack(grid, -1).view("<u4").ravel()
    exponents = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), "<u4")
    return powers, tens, leads, digits, exponents


def _product(x, e):
    # (q, frac) with q + frac = x 10^(16-e) to within 2^-47 where that
    # product lies in [10^16, 10^17]; see `_scaled`.
    hi, lo, big, small = _decimal_tables()[0].take(e - _EXPONENTS.start, axis=0).T
    p = x * hi
    c = x * _SPLITTER
    x_big = c - (c - x)
    x_small = x - x_big
    del c
    # Dekker's exact product error x hi - p, then x lo
    t = x_big * big - p
    t += x_big * small
    t += x_small * big
    t += x_small * small
    t += x * lo
    units = np.floor(t)
    t -= units
    q = p.astype(np.uint64)
    q += units.astype(np.int64).view(np.uint64)  # wraps where units < 0
    return q, t


def _scaled(x):
    """(e, q, frac) for float64 values ``x`` in [1e-99, 1e100): the decimal
    exponent e and x 10^(16-e) = q + frac, with the integer q in
    [10^16, 10^17] and frac in [0, 1] within 2^-47 of exact.

    The power 10^(16-e) is hi + lo (`_decimal_tables`).  p = fl(x hi) is an
    integer, since x hi >= 10^16 > 2^53, and its error x hi - p is exact by
    Dekker's two-product over Veltkamp halves (Dekker 1971).  frac is
    t - floor(t) for t = fl(that error + fl(x lo)), and q = p + floor(t).
    With u = 2^-53: |lo| <= u hi and x hi < 2^57, so |x lo| < 16 and
    |x hi - p| <= 8, and t misses x 10^(16-e) - p by at most
      u |x lo| < 2^-49   (the rounding of x lo),
      u |x lo| < 2^-49   (lo's own rounding: |10^(16-e) - hi - lo| <= u |lo|),
      2^-49              (the rounding of the sum, which is below 24 < 32),
    and frac adds at most 2^-54 (the rounding of t - floor(t)): below 2^-47
    in all.  e starts at floor(log10 x), which can be one off either way;
    where q falls outside [10^16, 10^17) e is moved by one and the product
    taken again."""
    e = np.log10(x)
    e = np.floor(e, out=e).astype(np.intp)
    q, frac = _product(x, e)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))
    if off.size:
        e[off] += np.where(q[off] < 10**16, -1, 1)
        q[off], frac[off] = _product(x[off], e[off])
    return e, q, frac


def _put(buf, offset: int, table, index) -> None:
    # Write ``table[index]``, one entry per slot in row order, from byte
    # ``offset`` on in consecutive `_SLOT`-byte slots, the same number in each
    # row of the 3-D ``buf`` (rows, slots, `_SLOT`), unaligned.  A uint64 or
    # intp ``index`` is read through its int64 view, which is not copied.
    if not index.size:
        return  # no slots: the offset may lie past the end of ``buf``
    rows = len(buf)
    count = index.size // rows
    field = np.ndarray((rows, count), table.dtype, buffer=buf, offset=offset,
                       strides=(buf.strides[0], _SLOT))
    field[...] = table[index.view(np.int64)].reshape(rows, count)


def _digits_16(buf, offset: int, n) -> None:
    # the 16 digits of each n < 10^16 (a uint64 array, overwritten) with
    # leading zeros from ``offset`` on in `_put`'s slots: four ``digits``
    # entries, the 4-digit groups peeled off from the most significant
    digits = _decimal_tables()[3]
    for group, power in enumerate((10**12, 10**8, 10**4)):
        top = n // power
        n -= top * power
        _put(buf, offset + 4 * group, digits, top)
    _put(buf, offset + 12, digits, n)


def _decimal_rows(block, integers: int) -> str:
    """The CSV rows of a 2-D float64 ``block`` whose first ``integers``
    columns are written ``%d`` and the rest ``%.16e``, formatted as arrays.

    Each value takes one `_SLOT`-byte slot, its text right-aligned against
    its ',' or '\\n', and the rows keep each slot from that value's first
    byte on.  `_put` gathers every digit, '.' and exponent of the fast path
    from the text tables of `_decimal_tables`.  A real x with |x| in
    [1e-99, 1e100) is scaled to q + frac = |x| 10^(16-e) by `_scaled`; its
    17 digits are those of q, plus one where frac > 1/2, and it starts at
    byte 2, or at byte 1 with its '-'.  frac is within 2^-47 of exact, so
    the rounding is certain unless frac lies within 2^-47 of a half.  Those
    values, in practice the exact decimal ties, and every other real (zero,
    nan, inf, subnormals and 3-digit exponents) are formatted by one
    ``%24.16e`` call, as Grisu3 defers to an exact method (Loitsch 2010);
    each field fills its slot as is and starts after its leading spaces.
    An integer n, truncated as ``%d`` truncates, is written as digits that
    end at the separator, with a '-' before them where negative.

    Temporaries are updated in place or dropped once used, so that a chunk
    costs little more memory than its text.
    """
    _, tens, leads, _, exponents = _decimal_tables()
    rows, cols = block.shape
    reals = cols - integers
    start = _SLOT * integers
    buf = np.empty((rows, cols, _SLOT), np.uint8)
    first = np.empty((rows, cols), np.uint8)

    x = block[:, integers:].ravel()
    size = np.abs(x)
    fast = (size >= 1e-99) & (size < 1e100)
    size[~fast] = 1.0
    e, q, frac = _scaled(size)
    del size
    unsure = np.abs(frac - 0.5) < 2.0**-47
    q += frac > 0.5
    del frac
    carry = np.flatnonzero(q == 10**17)
    q[carry] = 10**16
    e[carry] += 1
    lead = q // 10**16
    q -= lead * 10**16
    _put(buf, start + 2, leads, lead)
    del lead
    _digits_16(buf, start + 4, q)
    _put(buf, start + 20, exponents, e + 99)
    buf[:, integers:, 1] = ord("-")  # kept only where x < 0
    first[:, integers:] = (2 - (x < 0).view(np.uint8)).reshape(rows, reals)
    exact = np.flatnonzero(unsure | ~fast)
    if exact.size:
        text = ("%24.16e" * exact.size) % tuple(x[exact].tolist())
        field = np.frombuffer(text.encode("ascii"), np.uint8).reshape(exact.size, _SLOT - 1)
        row, col = np.divmod(exact, reals)
        col += integers
        buf[row, col, :-1] = field
        first[row, col] = (field == ord(" ")).sum(axis=1)

    if integers:
        n = block[:, :integers]
        outside = np.argwhere(~(np.abs(n) <= 2.0**53))  # nan included
        if outside.size:
            row, col = outside[0]
            raise ValueError(f"integer column {col} holds {float(n[row, col])!r}, "
                             "outside the +-2^53 of its slots")
        n = n.astype(np.int64)
        negative = n < 0
        n = np.abs(n, out=n).view(np.uint64)
        # n has 1 + (its count of powers 10^1..10^15 at most n) digits
        first[:, :integers] = _SLOT - 2 - np.searchsorted(tens, n, "right") - negative
        _digits_16(buf, _SLOT - 17, n.ravel())
        row, col = np.nonzero(negative)
        buf[row, col, first[row, col]] = ord("-")
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    if (first == 2).all():
        # copied as one 23-byte item per slot, not byte by byte
        return str(buf[:, :, 2:].view(f"V{_SLOT - 2}").tobytes(), "ascii")
    return str(buf[np.arange(_SLOT, dtype=np.uint8) >= first[:, :, None]], "ascii")


# Each subcommand is a function ``run(args) -> (rows, failure)``: its table
# as a float64 2-D array or an iterable of them (see `write_table`), and the
# message of a failed check or None.


def _gate(what: str, worst: float, tol: float) -> str | None:
    return f"{what} {worst:.3e} exceeds {tol:.3e}" if worst > tol else None


def _coeffs(args):
    b = well.decompose(args.gamma, args.levels)
    levels = np.arange(1.0, args.levels + 1.0)
    return np.column_stack((levels, b, b * b)), None


def _pop_scan(args):
    return well.population_scan(args.gamma, args.levels), None


def _captured(args):
    return well.captured_scan(*args.gamma, args.points, args.levels), None


def _energy_scan(args):
    return well.energy_scan(*args.gamma, args.points, args.levels), None


def _force_scan(args):
    return well.force_scan(*args.gamma, args.points, args.levels, args.step), None


def _oracle_check(args):
    top = args.max_level
    panels = len(args.gamma_list) * top * (top + 1) // 2
    if panels > MAX_ELEMENTS:
        raise ValueError(
            f"--gamma-list and --max-level {top} make up to {panels} "
            f"quadrature panels, above the size budget of {MAX_ELEMENTS}"
        )
    blocks, failure = [], None
    levels = np.arange(1, top + 1)
    for g in args.gamma_list:
        oracles, errors = well.overlap_oracle(levels, g)
        closed = well.decompose(g, top)
        diffs = np.abs(closed - oracles)
        blocks.append(np.column_stack((levels, np.full(top, g), closed, oracles, diffs)))
        failure = failure or _gate(
            f"quadrature error estimate at gamma = {g}:", errors.max(), args.quad_tol
        ) or _gate(
            # relative to the largest coefficient: |b_n| <= 1, and at extreme
            # gammas every b_n is so small that an absolute bound passes anything
            f"coefficient oracle disagreement at gamma = {g}:",
            diffs.max(), args.tol * np.abs(closed).max(),
        )
    return blocks, failure


def _return_prob(args):
    cfg = spin.RotorConfig(alpha=args.alpha, ratio=args.ratio)
    # one block of rows per chunk keeps the temporaries small
    blocks = (
        np.column_stack((f, spin.return_probability(f * cfg.drive_period, spin.UPPER, cfg)))
        for f in spin.linspace_blocks(0.0, 1.0, args.points, EMIT_CHUNK_ROWS)
    )
    return blocks, None


def _omega_scan(args):
    if len(args.alpha) > 1:
        args.columns = ["alpha_rad", *args.columns]  # the one header set by the input
    return spin.omega_scan(*args.ratio, args.points, args.alpha), None


def _threshold(args):
    row = spin.anti_adiabatic_threshold(args.epsilon, args.alpha, *args.ratio, args.points)
    failure = (
        f"no frozen onset in [{args.ratio[0]}, {args.ratio[1]}]: "
        f"rho1 < 1 - {args.epsilon} at the top of the range"
    ) if math.isnan(row[1]) else None
    return np.array([row]), failure


def _ode_check(args):
    rows = []
    for alpha in args.alpha:
        for ratio in args.ratio_list:
            cfg = spin.RotorConfig(alpha=alpha, ratio=ratio)
            times, states, drift = spin.ode_trajectory(
                cfg.drive_period, spin.UPPER, cfg, samples=args.samples
            )
            closed = spin.evolve_closed_form(times, spin.UPPER, cfg)
            rows.append((alpha, ratio, np.max(np.abs(closed - states)), drift))
    rows = np.array(rows)
    return rows, _gate("closed form vs RK4 disagreement", rows[:, 2].max(), args.tol)


def _symmetry_check(args):
    rng = random.Random(args.seed)
    low, high = spin.DEFAULT_RATIO_RANGE
    worst_sym = worst_cycle = 0.0
    for start in range(0, args.draws, EMIT_CHUNK_ROWS):
        # (alpha, ratio, t / period) per draw, scaled as Random.uniform
        # scales: the doubles of one uniform call per value, in that order
        n = min(EMIT_CHUNK_ROWS, args.draws - start)
        u = np.array([rng.random() for _ in range(3 * n)]).reshape(n, 3)
        cfg = spin.RotorConfig(alpha=math.pi * u[:, 0], ratio=low + (high - low) * u[:, 1])
        t = u[:, 2] * cfg.drive_period
        p_upper = spin.return_probability(np.stack((t, cfg.drive_period)), spin.UPPER, cfg)
        gap = np.abs(p_upper[0] - spin.return_probability(t, spin.LOWER, cfg))
        worst_sym = max(worst_sym, gap.max())
        cycle_gap = np.abs(p_upper[1] - spin.return_probability_cycle(cfg))
        worst_cycle = max(worst_cycle, cycle_gap.max())
    failure = _gate("symmetry/cycle gap", max(worst_sym, worst_cycle), args.tol)
    return np.array([[args.draws, worst_sym, worst_cycle]]), failure


def _command(sub, name: str, run, what: str, columns: str,
             integers: int = 0) -> argparse.ArgumentParser:
    """Subcommand ``name`` whose ``run(args)`` gives the rows under the
    comma-separated ``columns``, of which the first ``integers`` hold
    integers; its help names them and it takes ``-o``.  Errors found after
    parsing are reported by its parser (``args.error``), as argparse reports
    a flag that does not parse."""
    text = f"{what}; columns {columns}"
    p = sub.add_parser(name, help=text, description=text)
    p.add_argument("-o", "--output", default=None, help="output CSV path (default: stdout)")
    p.set_defaults(run=run, columns=columns.split(","), integers=integers, error=p.error)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchkit",
        description="Sudden-quench quantum dynamics scans and cross-checks.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    well_group = top.add_parser("well", help="square well with a suddenly moved wall")
    wsub = well_group.add_subparsers(dest="command", required=True)

    p = _command(wsub, "coeffs", _coeffs, "expansion coefficients", "n,b_n,rho_n", 1)
    p.add_argument("--gamma", type=parse_real, default=4.9, help="width ratio")
    p.add_argument("--levels", type=_positive_int, default=well.DEFAULT_LEVELS)

    p = _command(wsub, "pop-scan", _pop_scan, "level populations", "n,rho_n", 1)
    p.add_argument("--gamma", type=parse_real, default=4.9, help="width ratio")
    p.add_argument("--levels", type=_positive_int, default=well.DEFAULT_LEVELS)

    p = _command(wsub, "captured", _captured,
                 "total probability captured by the truncation", "gamma,captured")
    p.add_argument("--gamma", type=parse_range, default=(0.05, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=well.DEFAULT_LEVELS)

    p = _command(wsub, "energy-scan", _energy_scan, "post-quench energy", "gamma,E_over_E1")
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=well.DEFAULT_LEVELS)

    p = _command(wsub, "force-scan", _force_scan,
                 "wall force (grid points at exact integers gamma >= 1 omitted)",
                 "gamma,E_over_E1,F_over_E1_per_Q0")
    p.add_argument("--gamma", type=parse_range, default=(0.1, 5.0), metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=500)
    p.add_argument("--levels", type=_positive_int, default=well.DEFAULT_LEVELS)
    p.add_argument("--step", type=parse_real, default=well.DEFAULT_FORCE_STEP)

    p = _command(wsub, "oracle-check", _oracle_check,
                 "closed-form coefficients vs quadrature; exits 1 where a gamma's "
                 "largest level quadrature error exceeds --quad-tol, or its largest "
                 "abs_diff exceeds --tol times its largest |b_closed|",
                 "n,gamma,b_closed,b_oracle,abs_diff", 1)
    p.add_argument(
        "--gamma-list",
        type=parse_real_list,
        default="0.1,0.3,0.5,0.9,1.5,2,2.5,4.9,5,10.1",
        help="comma-separated width ratios",
    )
    p.add_argument("--max-level", type=_positive_int, default=20)
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--quad-tol", type=_tolerance, default=1e-10,
                   help="bound on a level's quadrature error estimate, the summed "
                   "16/24-point gaps of its panels")

    spin_group = top.add_parser("spin", help="spin-1/2 in a rotating field")
    ssub = spin_group.add_subparsers(dest="command", required=True)

    p = _command(ssub, "return-prob", _return_prob,
                 "return probability over one drive period", "t_over_period,rho1")
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--ratio", type=parse_real, default=1.0, help="drive/Larmor ratio")
    p.add_argument("--points", type=_scan_points, default=1000)

    p = _command(ssub, "omega-scan", _omega_scan,
                 "single-cycle return probability (alpha_rad prepended when several "
                 "angles are given)", "omega_over_omega0,rho1")
    p.add_argument("--alpha", type=parse_angle_list, default=[math.pi / 4])
    p.add_argument("--ratio", type=parse_range, default=spin.DEFAULT_RATIO_RANGE,
                   metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=spin.DEFAULT_SCAN_POINTS)

    p = _command(ssub, "threshold", _threshold,
                 "anti-adiabatic onsets", "monotone_onset_ratio,frozen_ratio,max_rho1")
    p.add_argument("--alpha", type=parse_angle, default=math.pi / 4)
    p.add_argument("--epsilon", type=parse_real, default=0.02)
    p.add_argument("--ratio", type=parse_range, default=spin.DEFAULT_RATIO_RANGE,
                   metavar="MIN:MAX")
    p.add_argument("--points", type=_scan_points, default=spin.DEFAULT_SCAN_POINTS)

    p = _command(ssub, "ode-check", _ode_check,
                 "closed form vs RK4 over one cycle; exits 1 beyond --tol",
                 "alpha_rad,omega_over_omega0,max_abs_diff,norm_drift")
    p.add_argument(
        "--alpha", type=parse_angle_list, default=[math.pi / 12, math.pi / 4, math.pi / 3]
    )
    p.add_argument(
        "--ratio-list", type=parse_real_list, default="0.3,1,1.442,5,15",
        help="comma-separated drive/Larmor ratios",
    )
    p.add_argument("--samples", type=_positive_int, default=16)
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = _command(ssub, "symmetry-check", _symmetry_check,
                 "branch symmetry and cycle consistency on random draws; exits 1 beyond --tol",
                 "draws,max_branch_gap,max_cycle_gap", 1)
    p.add_argument("--draws", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_seed, default=20260810)
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, failure = args.run(args)
        write_table(args.columns, rows, args.output, args.integers)
    except (QuadratureConvergenceError, OdeDivergenceError) as exc:
        failure = str(exc)
    except ValueError as exc:
        # domain validation raised past argparse (e.g. --alpha outside [0, pi])
        args.error(str(exc))
    except OSError as exc:
        # an -o path that cannot be opened; any other I/O error is not the
        # caller's to fix
        if args.output is None or exc.filename != args.output:
            raise
        args.error(f"cannot write {exc.filename!r}: {exc.strerror}")
    if failure is None:
        return 0
    print(f"quenchkit: {failure}", file=sys.stderr)
    return _CHECK_FAILED
