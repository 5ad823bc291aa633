"""Hot numeric kernels, numba-compiled when available.

Three inner loops dominate the runtime of the scans: the expansion
coefficients of the frozen well state (evaluated up to 10^4 levels per grid
point), the fixed-step RK4 propagator for the driven two-level system, and
the single-cycle return-probability curve (10^4+ grid points).  The
coefficient and cycle kernels each have a plain NumPy implementation and a
scalar-loop twin compiled with ``numba.njit``.  RK4 has one implementation
on every machine: its per-step increments are built as NumPy arrays and
applied in a scalar loop.

Backend selection happens at import time: numba is used when importable
unless the environment variable ``QUENCHKIT_NO_NUMBA`` is set to a truthy
value (1/true/yes/on).  ``BACKEND`` records the choice.  The uncompiled
implementations stay importable either way.
"""

from __future__ import annotations

import math
import os

import numpy as np

_FLAG = os.environ.get("QUENCHKIT_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _FLAG in {"1", "true", "yes", "on"}

try:
    import numba
except ImportError:  # pragma: no cover - exercised via QUENCHKIT_NO_NUMBA instead
    numba = None

NUMBA_AVAILABLE = numba is not None


def _expansion_coefficients_loop(gamma, n_max, resonance_tol):
    # Overlap of the old ground state with post-quench level n, n = 1..n_max.
    b = np.zeros(n_max)
    if abs(gamma - 1.0) <= resonance_tol:
        b[0] = 1.0
        return b
    if gamma < 1.0:
        pref = 2.0 * math.sqrt(gamma) * math.sin(math.pi * gamma)
        for i in range(n_max):
            n = float(i + 1)
            sign = -1.0 if i % 2 == 0 else 1.0  # (-1)^n, n odd -> -1
            b[i] = sign * pref * n / (math.pi * (gamma * gamma - n * n))
        return b
    nearest = int(math.floor(gamma + 0.5))
    resonant = 1 <= nearest <= n_max and abs(gamma - nearest) <= resonance_tol * nearest
    pref = 2.0 * gamma * math.sqrt(gamma)
    for i in range(n_max):
        n = float(i + 1)
        if resonant and i + 1 == nearest:
            b[i] = 1.0 / math.sqrt(gamma)
        else:
            b[i] = pref * math.sin(n * math.pi / gamma) / (math.pi * (gamma * gamma - n * n))
    return b


def _expansion_coefficients_numpy(gamma, n_max, resonance_tol):
    if abs(gamma - 1.0) <= resonance_tol:
        b = np.zeros(n_max)
        b[0] = 1.0
        return b
    n = np.arange(1.0, n_max + 1.0)
    if gamma < 1.0:
        sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
        pref = 2.0 * math.sqrt(gamma) * math.sin(math.pi * gamma)
        return sign * pref * n / (np.pi * (gamma * gamma - n * n))
    nearest = int(math.floor(gamma + 0.5))
    resonant = 1 <= nearest <= n_max and abs(gamma - nearest) <= resonance_tol * nearest
    den = np.pi * (gamma * gamma - n * n)
    if resonant:
        den[nearest - 1] = 1.0  # dummy, row is overwritten below
    b = 2.0 * gamma * math.sqrt(gamma) * np.sin(n * np.pi / gamma) / den
    if resonant:
        b[nearest - 1] = 1.0 / math.sqrt(gamma)
    return b


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


def _cycle_curve_loop(ratios, alpha):
    # rho after one full drive cycle as a function of x = omega/omega0.
    # mu^2 = x^2 + 1 - 2 x cos(a) in the cancellation-free form.
    out = np.empty(ratios.shape[0])
    ca = math.cos(alpha)
    sh = math.sin(0.5 * alpha)
    for i in range(ratios.shape[0]):
        x = ratios[i]
        mu2 = (x - 1.0) * (x - 1.0) + 4.0 * x * sh * sh
        if mu2 <= 0.0:
            out[i] = 1.0  # degenerate x = 1, alpha = 0: state pinned
            continue
        mu = math.sqrt(mu2)
        phase = math.pi * mu / x
        coef = (1.0 - x * ca) / mu
        c = math.cos(phase)
        s = math.sin(phase)
        out[i] = c * c + coef * coef * s * s
    return out


def _cycle_curve_numpy(ratios, alpha):
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


NUMPY_IMPLS = {
    "expansion_coefficients": _expansion_coefficients_numpy,
    "spin_rk4": spin_rk4,
    "cycle_return_curve": _cycle_curve_numpy,
}

_numba_cache: dict | None = None


def numba_impls() -> dict | None:
    """Compile (once) and return the numba twins of the coefficient and cycle
    kernels, or None without numba.  RK4 has the one implementation above."""
    global _numba_cache
    if numba is None:
        return None
    if _numba_cache is None:
        jit = numba.njit(cache=True)
        _numba_cache = {
            "expansion_coefficients": jit(_expansion_coefficients_loop),
            "cycle_return_curve": jit(_cycle_curve_loop),
        }
    return _numba_cache


if NUMBA_AVAILABLE and not NUMBA_DISABLED:
    BACKEND = "numba"
    _active = numba_impls()
else:
    BACKEND = "numpy"
    _active = NUMPY_IMPLS

expansion_coefficients = _active["expansion_coefficients"]
cycle_return_curve = _active["cycle_return_curve"]
