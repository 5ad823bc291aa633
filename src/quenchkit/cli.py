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
import math
import os
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
    within +-2^53 and are written ``%d``; the rest ``%.16e`` (17 significant
    digits).  The table is formatted in chunks of `EMIT_CHUNK_ROWS` rows, so
    an iterator of blocks is never held whole.  Each chunk goes through
    `_decimal_rows`, which gives the same bytes as ``%``.
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
    row_format = ",".join(["%d"] * integers + ["%.16e"] * (len(header) - integers)) + "\n"
    for block in (blocks,) if isinstance(blocks, np.ndarray) else blocks:
        for start in range(0, len(block), EMIT_CHUNK_ROWS):
            fh.write(_decimal_rows(block[start:start + EMIT_CHUNK_ROWS], integers, row_format))


# Decimal exponents the fast path meets: the floor(log10) estimate of a value
# in [1e-99, 1e100) and its correction by one either way.
_EXPONENTS = range(-101, 102)
# One formatted real: d.dddddddddddddddde+dd and its ',' or '\n'.
_SLOT = 23
# One formatted integer below 10^16 in magnitude, right-aligned: padding, a
# sign where negative, up to 16 digits, and its ',' or '\n'.
_INT_SLOT = 18
# Veltkamp's splitter for float64, 2^27 + 1: with c = x (2^27 + 1),
# c - (c - x) is x rounded to its upper 26 bits, exactly.
_SPLITTER = 134217729.0


@functools.cache
def _decimal_tables():
    """The powers of ten 10^(16-e) for e in `_EXPONENTS` as float64 pairs,
    one row ``hi, lo, big, small`` each: ``hi`` is the correctly rounded
    power, ``lo`` the correctly rounded remainder and ``big + small`` the
    Veltkamp halves of ``hi``; the powers 10^1..10^15 that count an
    integer's digits; and the four bytes ``e+dd`` for each exponent
    -99..99.  Built on first use, so that importing the CLI costs
    nothing."""
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
    exponents = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), "<u4")
    return powers, tens, exponents


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


def _put(buf, offset: int, dtype: str, slot: int, values) -> None:
    # Write ``values``, one integer per slot in row order, as the bytes from
    # ``offset`` on in consecutive slots of ``slot`` bytes, the same number
    # in each row of the 2-D ``buf``; unaligned, as slots are 18 and 23 bytes.
    if not values.size:
        return  # no slots: the offset may lie past the end of ``buf``
    rows, width = buf.shape
    count = values.size // rows
    field = np.ndarray((rows, count), dtype, buffer=buf, offset=offset, strides=(width, slot))
    field[...] = values.reshape(rows, count)


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


def _digits_16(buf, offset: int, slot: int, n) -> None:
    # the 16 digits of each n < 10^16 (a uint64 array, overwritten), with
    # leading zeros, from ``offset`` on in the slots of `_put`
    hi = n // 10**8
    n -= hi * 10**8
    _put(buf, offset, "<u8", slot, _ascii_8(hi))
    _put(buf, offset + 8, "<u8", slot, _ascii_8(n))


def _decimal_rows(block, integers: int, row_format: str) -> str:
    """``(row_format * len(block)) % values`` for a 2-D float64 ``block``
    whose first ``integers`` columns are written ``%d``, formatted as arrays.

    A real x in [1e-99, 1e100) is scaled to q + frac = x 10^(16-e) by
    `_scaled`; its 17 digits are those of q, plus one where frac > 1/2.
    frac is within 2^-47 of exact, so the rounding is certain unless frac
    lies within 2^-47 of a half.  Those values, in practice the exact
    decimal ties, are formatted by ``%.16e`` into their 22-byte slot, as
    Grisu3 defers to an exact method (Loitsch 2010).  An integer column's
    value n, truncated as ``%d`` truncates, is written right-aligned in an
    18-byte slot whose padding is then dropped.  Rows holding a real
    outside that range (zero, negative, nan, inf, or a 3-digit exponent) or
    an integer of 10^16 or more in magnitude are formatted by
    ``row_format`` whole.

    Temporaries are updated in place or dropped once used, so that a chunk
    costs little more memory than its text.
    """
    _, tens, exponents = _decimal_tables()
    rows, cols = block.shape
    reals = cols - integers
    start = _INT_SLOT * integers
    buf = np.empty((rows, start + _SLOT * reals), np.uint8)

    x = block[:, integers:].ravel()
    fast = (x >= 1e-99) & (x < 1e100)
    e, q, frac = _scaled(np.where(fast, x, 1.0))
    unsure = np.abs(frac - 0.5) < 2.0**-47
    q += frac > 0.5
    del frac
    carry = np.flatnonzero(q == 10**17)
    q[carry] = 10**16
    e[carry] += 1
    lead = q // 10**16
    q -= lead * 10**16
    lead += ord("0") + (ord(".") << 8)
    _put(buf, start, "<u2", _SLOT, lead)
    del lead
    _digits_16(buf, start + 2, _SLOT, q)
    _put(buf, start + 18, "<u4", _SLOT, exponents[e + 99])
    slots = buf[:, start:].reshape(rows, reals, _SLOT)
    slots[:, :, -1] = ord(",")
    whole = ~fast.reshape(rows, reals).all(axis=1)

    width = np.full(rows, buf.shape[1])
    if integers:
        ints = block[:, :integers]
        small_enough = np.abs(ints) < 1e16
        whole |= ~small_enough.all(axis=1)
        n = np.where(small_enough, ints, 0.0).astype(np.int64)
        negative = n < 0
        n = np.abs(n, out=n).view(np.uint64)
        # padding: the 16 - d leading zeros of d digits, one fewer for '-'
        pad = 16 - np.searchsorted(tens, n, "right") - negative
        _digits_16(buf, 1, _INT_SLOT, n.ravel())
        int_slots = buf[:, :start].reshape(rows, integers, _INT_SLOT)
        int_slots[:, :, -1] = ord(",")
        row, col = np.nonzero(negative)
        int_slots[row, col, pad[row, col]] = ord("-")
        width -= pad.sum(axis=1)
    buf[:, -1] = ord("\n")

    exact = np.flatnonzero(unsure & np.repeat(~whole, reals))
    if exact.size:
        text = ("%.16e" * exact.size) % tuple(x[exact].tolist())
        slots[exact // reals, exact % reals, :-1] = np.frombuffer(
            text.encode("ascii"), np.uint8
        ).reshape(exact.size, _SLOT - 1)
    if integers:
        kept = np.arange(_INT_SLOT) >= pad[:, :, None]
        buf = buf[np.concatenate((kept.reshape(rows, start),
                                  np.ones((rows, buf.shape[1] - start), bool)), axis=1)]
    if not whole.any():
        return str(buf, "ascii")
    # Runs of rows alternate between the two paths; splice them in order.
    ends = np.concatenate(([0], np.cumsum(width))).tolist()
    text = buf.ravel()
    edges = [0, *(np.flatnonzero(np.diff(whole)) + 1).tolist(), rows]
    parts = []
    for begin, stop in zip(edges, edges[1:]):
        if whole[begin]:
            values = tuple(block[begin:stop].ravel().tolist())
            parts.append((row_format * (stop - begin)) % values)
        else:
            parts.append(str(text[ends[begin]:ends[stop]], "ascii"))
    return "".join(parts)


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
        oracles = well.overlap_oracle(levels, g, tolerance=args.quad_tol)
        closed = well.decompose(g, top)
        diffs = np.abs(closed - oracles)
        blocks.append(np.column_stack((levels, np.full(top, g), closed, oracles, diffs)))
        # relative to the largest coefficient: |b_n| <= 1, and at extreme
        # gammas every b_n is so small that an absolute bound passes anything
        failure = failure or _gate(
            f"coefficient oracle disagreement at gamma = {g}:",
            diffs.max(), args.tol * np.abs(closed).max(),
        )
    return blocks, failure


def _return_prob(args):
    cfg = spin.RotorConfig.at_ratio(args.ratio, alpha=args.alpha)
    fractions = np.linspace(0.0, 1.0, args.points)
    # one block of rows per chunk keeps the temporaries small
    blocks = (
        np.column_stack((f, spin.return_probability(f * cfg.drive_period, spin.UPPER, cfg)))
        for f in np.split(fractions, range(EMIT_CHUNK_ROWS, args.points, EMIT_CHUNK_ROWS))
    )
    return blocks, None


def _omega_scan(args):
    ratios, rho = spin.omega_scan(*args.ratio, args.points, args.alpha)
    several = len(rho) > 1
    if several:
        args.columns = ["alpha_rad", *args.columns]  # the one header set by the input

    def blocks():
        # one block of rows per chunk, so no curve is copied whole
        for alpha, curve in zip(args.alpha, rho):
            for start in range(0, len(ratios), EMIT_CHUNK_ROWS):
                rows = slice(start, start + EMIT_CHUNK_ROWS)
                lead = [np.full(len(ratios[rows]), alpha)] if several else []
                yield np.column_stack((*lead, ratios[rows], curve[rows]))

    return blocks(), None


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
            cfg = spin.RotorConfig.at_ratio(ratio, alpha=alpha)
            times, states, drift = spin.ode_trajectory(
                cfg.drive_period, spin.UPPER, cfg, samples=args.samples
            )
            closed = spin.evolve_closed_form(times, spin.UPPER, cfg)
            rows.append((alpha, ratio, np.max(np.abs(closed - states)), drift))
    rows = np.array(rows)
    return rows, _gate("closed form vs RK4 disagreement", rows[:, 2].max(), args.tol)


def _symmetry_check(args):
    rng = np.random.default_rng(args.seed)
    low, high = spin.DEFAULT_RATIO_RANGE
    worst_sym = worst_cycle = 0.0
    for start in range(0, args.draws, EMIT_CHUNK_ROWS):
        # (alpha, ratio, t / period) per draw, scaled as Generator.uniform
        # scales: the doubles of one uniform call per value, in that order
        u = rng.random((min(EMIT_CHUNK_ROWS, args.draws - start), 3))
        cfg = spin.RotorConfig.at_ratio(low + (high - low) * u[:, 1], alpha=math.pi * u[:, 0])
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
                 "largest abs_diff exceeds --tol times its largest |b_closed|",
                 "n,gamma,b_closed,b_oracle,abs_diff", 1)
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
