"""Hot numeric kernels, all plain NumPy.

Three inner loops dominate the runtime of the scans: the expansion
coefficients of the frozen well state (up to 10^4 levels for each of 10^4
grid points), the fixed-step RK4 propagator for the driven two-level system,
and the single-cycle return-probability curve (10^6 grid points).  Each has
one implementation here, written on arrays; the scalar entry points in
`quenchkit.well` and `quenchkit.spin` are thin wrappers over them.
`resonances` is the one integer-resonance test of the well.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# Largest width ratio gamma and drive/Larmor ratio accepted anywhere: below
# sqrt(DBL_MAX) = 1.34e154, so their squares in the kernels stay finite.
MAX_RATIO = 1e150


def resonances(gamma, resonance_tol):
    """The integer-resonance test, for a scalar or an array of ``gamma``.

    Returns ``(nearest, identity, resonant)``: the nearest integer
    floor(gamma + 1/2); the identity quench |gamma - 1| <= tol; and an
    expansion that sits on level k = nearest, |gamma - k| <= tol * k
    (gamma >= 1 and not the identity).
    """
    nearest = np.floor(gamma + 0.5)
    identity = np.abs(gamma - 1.0) <= resonance_tol
    resonant = (
        ~identity & (gamma >= 1.0) & (np.abs(gamma - nearest) <= resonance_tol * nearest)
    )
    return nearest, identity, resonant


def expansion_coefficients(gamma, n_max, resonance_tol):
    """Overlaps b_n, n = 1..n_max, of the frozen ground state with the
    post-quench levels: shape ``(n_max,)`` for a scalar ``gamma`` and
    ``(len(gamma), n_max)`` for a 1-D array.

    Each row is computed by its own regime's formula only: the identity
    (b_1 = 1), shrink (gamma < 1), or expansion (gamma > 1), where the level
    on an integer resonance gets 1/sqrt(gamma).
    """
    g = np.asarray(gamma, dtype=float)
    rows = np.atleast_1d(g)
    n = np.arange(1.0, n_max + 1.0)
    b = np.zeros((rows.size, n_max))
    nearest, identity, resonant = resonances(rows, resonance_tol)
    b[identity, 0] = 1.0
    shrink = np.flatnonzero(~identity & (rows < 1.0))
    if shrink.size:
        gs = rows[shrink, None]
        sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
        pref = 2.0 * np.sqrt(gs) * np.sin(np.pi * gs)
        b[shrink] = sign * pref * n / (np.pi * (gs * gs - n * n))
    expand = np.flatnonzero(~identity & (rows >= 1.0))
    if expand.size:
        ge = rows[expand, None]
        den = np.pi * (ge * ge - n * n)
        res = np.flatnonzero(resonant[expand] & (nearest[expand] <= n_max))
        level = nearest[expand][res].astype(np.intp) - 1
        den[res, level] = 1.0  # dummy, overwritten below
        be = 2.0 * ge * np.sqrt(ge) * np.sin(n * np.pi / ge) / den
        be[res, level] = 1.0 / np.sqrt(ge[res, 0])
        b[expand] = be
    return b[0] if g.ndim == 0 else b


# Steps whose RK4 increments are built at once; bounds the temporaries of
# `spin_rk4` at a few MiB however long the window.
RK4_BLOCK = 2048


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
        steps = np.arange(start, min(start + RK4_BLOCK, n_steps))
        d00, d01, d10, d11 = (
            d.tolist() for d in _rk4_increments(steps * h, h, alpha, omega, omega0)
        )
        out0, out1 = [], []
        for a, b, c, d in zip(d00, d01, d10, d11):
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


def cycle_return_curve(ratios, alpha):
    """Return probability after one full drive cycle against x = omega/omega0.

    mu^2 = x^2 + 1 - 2 x cos(alpha) in the cancellation-free form; the
    degenerate x = 1, alpha = 0 (mu = 0) pins the state at probability 1.
    """
    x = np.asarray(ratios, dtype=float)
    ca = math.cos(alpha)
    sh = math.sin(0.5 * alpha)
    mu2 = (x - 1.0) * (x - 1.0) + 4.0 * x * sh * sh
    safe = np.where(mu2 > 0.0, mu2, 1.0)
    mu = np.sqrt(safe)
    phase = np.pi * mu / x
    coef = (1.0 - x * ca) / mu
    c = np.cos(phase)
    s = np.sin(phase)
    rho = c * c + coef * coef * s * s
    return np.where(mu2 > 0.0, rho, 1.0)
