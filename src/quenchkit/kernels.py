"""Hot numeric kernels, all plain NumPy.

Three inner loops dominate the runtime of the scans: the expansion
coefficients of the frozen well state (up to 10^4 levels for each of 10^4
grid points), the fixed-step RK4 propagator for the driven two-level system,
and the single-cycle return-probability curve (10^6 grid points).  Each has
one implementation here, written on arrays; the scalar entry points in
`quenchkit.well` and `quenchkit.spin` are thin wrappers over them.  An
expansion row of N coefficients takes its sines from tables of 2 (N / L + L)
sines and cosines (`LEVEL_STRIDE` = L), not from N calls of the sine.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# Largest width ratio gamma and drive/Larmor ratio accepted anywhere: below
# sqrt(DBL_MAX) = 1.34e154, so their squares in the kernels stay finite.
MAX_RATIO = 1e150


def expansion_coefficients(gamma, n_max, out=None):
    """Overlaps b_n, n = 1..n_max, of the frozen ground state with the
    post-quench levels: shape ``(n_max,)`` for a scalar ``gamma`` and
    ``(len(gamma), n_max)`` for a 1-D array.

    Each row is computed by its own regime's formula only: the identity
    gamma == 1 (b_1 = 1), shrink (gamma < 1), or expansion (gamma > 1).
    The one entry per row whose sine and denominator both vanish as gamma
    nears an integer, level k = rint(gamma) of an expansion and level 1 of a
    shrink, is computed from the exact difference to that integer, so it
    keeps full precision next to the integer and an exact integer gamma = k
    gives b_k = 1/sqrt(k): resonance needs no test and no tolerance window.
    Every other entry is the plain formula, except that an expansion row's
    sines sin(n pi / gamma) come from sums of products of two small tables
    (`LEVEL_STRIDE`), whose bits depend on n and gamma only: the first m
    levels are the same doubles whatever ``n_max`` is.  For a 1-D ``gamma``
    the rows may go into ``out``, a C-contiguous float array of the
    result's shape, which is then returned; either way every double is the
    same.
    """
    g = np.asarray(gamma, dtype=float)
    rows = np.atleast_1d(g)
    n = np.arange(1.0, n_max + 1.0)
    nn = n * n
    b = np.empty((rows.size, n_max)) if out is None else out
    shrink = rows < 1.0
    expand = rows > 1.0
    if shrink.all():
        _shrink_rows(rows, n, nn, b)
    elif expand.all():
        _expand_rows(rows, nn, b)
    else:  # a mixed block: each regime's rows through a block of their own
        identity = rows == 1.0
        b[identity] = 0.0
        b[identity, 0] = 1.0
        if shrink.any():
            b[shrink] = _shrink_rows(rows[shrink], n, nn, None)
        if expand.any():
            b[expand] = _expand_rows(rows[expand], nn, None)
    return b[0] if g.ndim == 0 else b


def _shrink_rows(gamma, n, nn, out):
    # (-1)^n 2 sqrt(g) sin(pi g) n / (pi (g^2 - n^2)) for each g < 1, into
    # out, with sin(pi g) = sin(pi (1 - g)) from the exact 1 - g for
    # g >= 1/2 and level 1's g^2 - 1 as (g - 1)(g + 1), so that level 1 is
    # 2 sqrt(g) sinc(1 - g) / (1 + g) without cancellation as g -> 1
    g = gamma[:, None]
    den = g * g - nn
    den[:, 0] = (gamma - 1.0) * (gamma + 1.0)
    den *= np.pi
    sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
    sine = np.sin(np.pi * np.minimum(g, 1.0 - g))
    out = np.multiply(sign, 2.0 * np.sqrt(g) * sine, out=out)
    out *= n
    out /= den
    return out


def _expand_rows(gamma, nn, out):
    # 2 g^(3/2) sin(n pi / g) / (pi (g^2 - n^2)) for each g > 1, into out,
    # its sines from `_level_sines` with 2 g^(3/2) / pi folded in; level
    # k = rint(g) is sinc(d / g) / sqrt(g) * 2 g / (g + k) from the exact
    # d = k - g, which is 1/sqrt(g) at d = 0
    g = gamma[:, None]
    if out is None:
        out = np.empty((gamma.size, nn.size))
    den = np.empty_like(out)
    _level_sines(g, out, den)
    den[...] = nn  # then subtracting from it in place takes no ufunc buffers
    np.subtract(g * g, den, out=den)
    k = np.rint(gamma)
    rows = np.flatnonzero(k <= len(nn))
    level = k[rows].astype(np.intp) - 1
    den[rows, level] = 1.0  # no 0/0 at an exact integer; overwritten below
    out /= den
    g, k = gamma[rows], k[rows]
    out[rows, level] = np.sinc((k - g) / g) / np.sqrt(g) * (2.0 * g / (g + k))
    return out


# Levels n = a L + b, b = 1..L, that `_level_sines` takes from one row's
# tables at a and at b.  Kernel time on a 32 x 1000 block, best of 9 (2 CPUs):
#     L   1000 levels   999    1001
#    32     213 us     217 us  217 us
#    40     201 us     224 us  217 us
#    50     208 us     224 us  218 us
# 1000 = 25 * 40 needs no partial stride; elsewhere 32-50 run alike.
LEVEL_STRIDE = 40


def _level_sines(g, out, scratch):
    # c sin(n pi / g), c = 2 g sqrt(g) / pi, for n = 1..width of out and each
    # g of the column g, into out, as c sin(x_a) cos(x_b) + c cos(x_a) sin(x_b)
    # with x_a = (a L pi) / g and x_b = (b pi) / g: 2 (N / L + L) sines and
    # cosines a row for N levels.  Each entry is one sum of two products of
    # table entries, so its bits depend on n and g alone, not on the width.
    # scratch is a buffer of out's shape.  einsum's outer products take no
    # ufunc buffers (a broadcast np.multiply takes three 64 KiB ones) and
    # give np.multiply's products, but for the sign of a zero.
    stride = LEVEL_STRIDE
    whole, rest = divmod(out.shape[1], stride)
    x = np.arange(0.0, whole + (rest > 0)) * stride * np.pi / g
    cos_a = np.cos(x)
    sin_a = np.sin(x, out=x)
    c = 2.0 * g * np.sqrt(g) / np.pi
    sin_a *= c
    cos_a *= c
    x = np.arange(1.0, min(stride, out.shape[1]) + 1.0) * np.pi / g
    cos_b = np.cos(x)
    sin_b = np.sin(x, out=x)
    # the whole strides as (rows, whole, L) views, then the rest as (rows, 1, rest)
    for first, count, width in ((0, whole, stride), (whole, 1, rest)):
        if count and width:
            a = slice(first, first + count)
            cols = slice(first * stride, first * stride + count * width)
            shape = (len(g), count, width)
            np.einsum("ia,ib->iab", sin_a[:, a], cos_b[:, :width], out=out[:, cols].reshape(shape))
            np.einsum("ia,ib->iab", cos_a[:, a], sin_b[:, :width],
                      out=scratch[:, cols].reshape(shape))
    out += scratch


# Steps whose RK4 increments are built at once, which bounds `spin_rk4`'s temporaries.
# `ode-check` on crosscheck's argv, medians of 20 alternating runs (2 CPUs):
#    2048  30.78 MiB  10.6k faults  0.349 s
#    1024  30.37 MiB   4.7k faults  0.335 s
#     512  30.30 MiB   4.7k faults  0.352 s
RK4_BLOCK = 1024


def _spin_generator(t, alpha, omega, omega0):
    # A(t) in y' = A(t) y, i.e. i y' = (omega0/2) n(t).sigma y with
    # n(t) = (sin a cos wt, sin a sin wt, cos a); entries (a00, a01, a10, a11)
    ph = omega * t
    off = math.sin(alpha) * (np.cos(ph) - 1j * np.sin(ph))
    diag = -0.5j * omega0 * math.cos(alpha)
    return diag, -0.5j * omega0 * off, -0.5j * omega0 * np.conj(off), -diag


def _matmul(p, q):
    # Product of 2x2 matrices stored as (m00, m01, m10, m11) entry arrays.
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def _rk4_increments(t, h, alpha, omega, omega0):
    # D with y(t + h) = y(t) + D y(t) for one classical RK4 step from each t.
    # The stages K1..K4 are linear in y: K_i = M_i y, with M_i built from
    # the generator at t, t + h/2 and t + h.
    a1 = _spin_generator(t, alpha, omega, omega0)
    a2 = _spin_generator(t + 0.5 * h, alpha, omega, omega0)
    a3 = _spin_generator(t + h, alpha, omega, omega0)
    m2 = [x + 0.5 * h * y for x, y in zip(a2, _matmul(a2, a1))]
    m3 = [x + 0.5 * h * y for x, y in zip(a2, _matmul(a2, m2))]
    m4 = [x + h * y for x, y in zip(a3, _matmul(a3, m3))]
    return [
        (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for k1, k2, k3, k4 in zip(a1, m2, m3, m4)
    ]


def spin_rk4(alpha, omega, omega0, t_end, n_steps, up0, dn0, stride):
    """Fixed-step RK4 for the rotating-field spinor over [0, t_end].

    Returns the state at t = 0 and after every ``stride`` steps, and the
    largest deviation of the norm from one over every step.  Each step's
    increment D (y <- y + D y) is built as arrays, a block of steps at a
    time; only the sequential updates run as a scalar loop.
    """
    h = t_end / n_steps
    n_rec = n_steps // stride
    states = np.empty((n_rec + 1, 2), np.complex128)
    states[0] = up0, dn0
    y0, y1 = complex(up0), complex(dn0)
    drift = 0.0
    for start in range(0, n_steps, RK4_BLOCK):
        out0, out1 = [], []  # the last block's lists go before this block's are built
        steps = np.arange(start, min(start + RK4_BLOCK, n_steps))
        increments = (m.tolist() for m in _rk4_increments(steps * h, h, alpha, omega, omega0))
        for a, b, c, d in zip(*increments):  # the four lists go with the loop's iterator
            y0, y1 = y0 + (a * y0 + b * y1), y1 + (c * y0 + d * y1)
            out0.append(y0)
            out1.append(y1)
        s0, s1 = np.array(out0), np.array(out1)
        norm = np.sqrt(np.abs(s0) ** 2 + np.abs(s1) ** 2)
        drift = max(drift, float(np.max(np.abs(norm - 1.0))))
        at = np.flatnonzero((steps + 1) % stride == 0)
        rec = (steps[at] + 1) // stride
        states[rec, 0] = s0[at]
        states[rec, 1] = s1[at]
    return states, drift


def rabi_rate(ratio, alpha):
    """Generalized precession rate sqrt(x^2 + 1 - 2 x cos(alpha)) at drive
    ratio x, in units of the Larmor frequency, as sqrt((x - 1)^2 + 4 x
    sin^2(alpha/2)): no cancellation, and >= |x - 1| down to rounding.
    ``ratio`` and ``alpha`` may be arrays that broadcast."""
    s = np.sin(0.5 * alpha)
    d = ratio - 1.0
    return np.sqrt(d * d + 4.0 * ratio * s * s)


def cycle_return_curve(ratios, alpha):
    """Return probability after one full drive cycle against x = omega/omega0,
    a 1-D array, at the cone angle ``alpha``, a float or an array of x's
    shape.

    1 - rho = (sin(alpha) sin(pi u) / u)^2 = pi^2 sin^2(alpha) sinc^2(u),
    u = mu / x, mu = `rabi_rate` (x, alpha) (Rabi, Phys. Rev. 51, 652, 1937):
    rho = 1 - (t sin(pi u))^2 with t = sin(alpha) / u <= 1 (x sin(alpha) <=
    mu; ``np.minimum`` undoes rounding), so rho lies in [0, 1] in floating
    point too.  u = 0 only at x = 1 and alpha below about 1.5e-162, where
    u = 1 gives rho = 1.  In place, three arrays of x's size are alive at once;
    each value depends on its own ratio alone, so `quenchkit.spin.omega_scan`
    calls it on blocks of `quenchkit.spin.OMEGA_BLOCK` ratios (256 KiB each).
    """
    x = np.asarray(ratios, dtype=float)
    u = rabi_rate(x, alpha)
    u /= x
    u[u == 0.0] = 1.0
    phase = np.multiply(np.pi, u)
    t = np.divide(np.sin(alpha), u, out=u)
    np.minimum(t, 1.0, out=t)
    t *= np.sin(phase, out=phase)
    t *= t
    return np.subtract(1.0, t, out=t)
