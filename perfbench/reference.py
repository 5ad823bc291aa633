"""50-digit reference values computed from the paper's formulas with mpmath.

Nothing here imports quenchkit: the checker must not grade the program by
its own code.  Inputs are the exact doubles the program saw.

Well: the frozen ground state sqrt(2) sin(pi q) of the unit box, expanded in
the levels sqrt(2/g) sin(n pi q / g) of a box of width g, has overlaps

    b_n = (-1)^n 2 n sqrt(g) sin(pi g) / (pi (g^2 - n^2))   for g < 1,
    b_n = 2 g sqrt(g) sin(n pi / g) / (pi (g^2 - n^2))      for g > 1,

with the limits b_g = 1/sqrt(g) at integer g and b_n = [n = 1] at g = 1.
The truncated energy in units of the initial ground energy is
sum(b_n^2 n^2) / (g^2 sum(b_n^2)).

Spin (hbar = 1, Larmor frequency 1, drive ratio x, cone angle a): in the
frame rotating with the field the generator K = (1/2)(sin a sx +
(cos a - x) sz) is constant, so exp(-i K t) = cos(mu t/2) - i sin(mu t/2)
(m . sigma) with mu = sqrt(1 - 2 x cos a + x^2), and the lab frame adds
diag(e^{-i x t/2}, e^{i x t/2}).  The upper eigenstate at t = 0 is
(cos a/2, sin a/2).
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

mp.dps = 50


def well_coefficients(gamma: float, levels: int) -> list:
    """b_1..b_levels at width ratio ``gamma``."""
    g = mpf(gamma)
    if g == 1:
        return [mpf(1)] + [mpf(0)] * (levels - 1)
    root = mpmath.sqrt(g)
    out = []
    if g < 1:
        pref = 2 * root * mpmath.sin(mp.pi * g) / mp.pi
        for n in range(1, levels + 1):
            sign = -1 if n % 2 else 1
            out.append(sign * pref * n / (g * g - n * n))
        return out
    pref = 2 * g * root / mp.pi
    for n in range(1, levels + 1):
        if g == n:
            out.append(1 / root)
        else:
            out.append(pref * mpmath.sin(n * mp.pi / g) / (g * g - n * n))
    return out


def captured(gamma: float, levels: int):
    return mpmath.fsum(b * b for b in well_coefficients(gamma, levels))


def energy(gamma, levels: int):
    """Renormalized truncated energy; ``gamma`` may be an mpf stencil point."""
    g = mpf(gamma)
    rho = [b * b for b in well_coefficients(g, levels)]
    raw = mpmath.fsum(r * n * n for n, r in enumerate(rho, 1))
    return raw / (g * g * mpmath.fsum(rho))


def force(gamma: float, levels: int, step: float):
    """-dE/dgamma by the documented stencil: central, or second-order one-sided
    away from the nearest integer when within two steps of it."""
    g, h = mpf(gamma), mpf(step)
    k = int(mpmath.floor(g + mpf(0.5)))
    e = lambda x: energy(x, levels)  # noqa: E731
    if k >= 1 and abs(g - k) < 2 * h:
        if g >= k:
            slope = (-3 * e(g) + 4 * e(g + h) - e(g + 2 * h)) / (2 * h)
        else:
            slope = (3 * e(g) - 4 * e(g - h) + e(g - 2 * h)) / (2 * h)
    else:
        slope = (e(g + h) - e(g - h)) / (2 * h)
    return -slope


def _mu(x, a):
    return mpmath.sqrt(1 - 2 * x * mpmath.cos(a) + x * x)


def return_probability(fraction: float, alpha: float, ratio: float):
    """Upper-branch return probability at t = fraction * drive period."""
    x, a = mpf(ratio), mpf(alpha)
    t = 2 * mp.pi * mpf(fraction) / x
    mu = _mu(x, a)
    c, s = mpmath.cos(mu * t / 2), mpmath.sin(mu * t / 2)
    mx, mz = mpmath.sin(a) / mu, (mpmath.cos(a) - x) / mu
    u, d = mpmath.cos(a / 2), mpmath.sin(a / 2)
    # exp(-iKt) applied to (u, d), then the lab-frame phases
    up = (c - 1j * s * mz) * u - 1j * s * mx * d
    down = -1j * s * mx * u + (c + 1j * s * mz) * d
    phase = mpmath.expj(-x * t / 2)
    amp = u * phase * up + d * mpmath.conj(phase) * down
    return abs(amp) ** 2


def cycle_probability(ratio: float, alpha: float):
    """Return probability after exactly one drive period (the lab-frame
    phases are -1 there): cos^2(pi mu/x) + <m.sigma>^2 sin^2(pi mu/x)."""
    x, a = mpf(ratio), mpf(alpha)
    mu = _mu(x, a)
    if mu == 0:
        return mpf(1)
    phase = mp.pi * mu / x
    proj = (1 - x * mpmath.cos(a)) / mu
    return mpmath.cos(phase) ** 2 + proj**2 * mpmath.sin(phase) ** 2
