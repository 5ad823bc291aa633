"""Quadrature, fixed-step ODE integration, and finite differences.

These routines are independent oracles: the quadrature and ODE integrators
check the closed forms implemented elsewhere in the package, and the central
difference checks the force stencils of `quenchkit.well`.  They are
deliberately simple and reproducible -- fixed Gauss-Legendre rules and
classical fixed-step RK4, no adaptive subdivision or step controllers -- so
that a reimplementation in any language produces the same numbers.

`integrate` runs on arrays: it applies a 16- and a 24-point Gauss-Legendre
rule, held as literal doubles, to many intervals at once, `BLOCK` intervals
at a time, and returns the gap between the two sums beside each value as
its error estimate, for the caller to judge.  `ode_evolve` is the generic
scalar RK4 loop; the two-level kernel in `kernels.spin_rk4` is checked
against it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np


def refuse(ok, values, message: str) -> None:
    """ValueError(message.format(v)) for the first ``v`` of ``values`` where ``ok`` fails."""
    if not np.all(ok):
        raise ValueError(message.format(float(np.asarray(values).flat[np.argmin(ok)])))


class QuadratureConvergenceError(ArithmeticError):
    """The quadrature met an integrand value or a rule sum that is not finite."""


class OdeDivergenceError(ArithmeticError):
    """The ODE integration produced non-finite intermediate values."""


class Nodes(NamedTuple):
    """Quadrature points handed to the integrand by `integrate`.

    ``x`` holds a block's points, one row of 40 per interval; ``root`` is a
    column, one row per interval, of the intervals' flat indices into the
    bounds passed to `integrate`, so a per-interval parameter looked up as
    ``p[root]`` broadcasts against ``x``.
    """

    x: np.ndarray
    root: np.ndarray


# Intervals evaluated together; no result depends on it.  `oracle-check` with
# `well.ORACLE_CHUNK` = 2048, medians of alternating runs (2 CPUs) on
# crosscheck's argv, 12 runs | at --max-level 1413, 5 runs:
#     512  30.52 MiB  5.7k faults | 32.84 MiB  1730k faults  11.09 s
#     256  30.55 MiB  5.6k        | 32.68 MiB  1183k         11.09 s
#     128  30.53 MiB  4.7k        | 32.60 MiB   7.0k         10.04 s
#      64  30.53 MiB  4.7k        | 32.72 MiB   6.8k         11.75 s
# From 256 up, glibc returns the top of the heap after each block and
# faults it back in for the next.
BLOCK = 128


@functools.cache
def _rules():
    # (nodes, weights) on [-1, 1]: numpy's 16- and 24-point doubles, written out so that no
    # command loads LAPACK for them, as positive halves mirrored (both rules are symmetric).
    half = np.array([
        0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
        0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
        0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
        0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
        0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
        0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
        0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
        0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
        0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
        0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
    ])
    return [(np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w)))
            for x, w in (half[:16].reshape(2, 8), half[16:].reshape(2, 12))]


def integrate(f: Callable, a, b):
    """Integrate ``f`` over ``[a, b]`` with fixed Gauss-Legendre rules.

    The value is the 24-point sum; its error estimate is the gap to the
    16-point sum.  Nothing is subdivided, so the work is a fixed 40
    evaluations per interval: the caller picks intervals short against the
    integrand's oscillations, on which the rules converge geometrically,
    and judges the returned gaps.

    Parameters
    ----------
    f : callable
        Called once per block of intervals with a `Nodes` pair, whatever the
        shape of the bounds: ``x`` of shape (intervals, 40) and ``root`` of
        shape (intervals, 1).  Returns ``f(nodes.x)`` as a float array of
        ``x``'s shape.
    a, b : float or array_like
        Integration bounds, ``a <= b``; arrays of equal shape integrate one
        interval per element.

    Returns
    -------
    (values, errors)
        The 24-point sums and their absolute gaps to the 16-point sums:
        floats for scalar bounds, arrays of the bounds' shape otherwise.

    Raises
    ------
    QuadratureConvergenceError
        At once on the first block whose integrand values or sums are not
        finite; the message names its first such interval.
    """
    if np.shape(a) != np.shape(b):
        raise ValueError(f"bounds must have equal shapes, got {np.shape(a)} and {np.shape(b)}")
    shape = np.shape(a)
    lo = np.asarray(a, dtype=float).ravel()
    hi = np.asarray(b, dtype=float).ravel()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("bounds must be finite")
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise ValueError(f"bounds must satisfy a <= b, got a={lo[i]}, b={hi[i]}")
    (x_low, w_low), (x_high, w_high) = _rules()
    x = np.concatenate([x_low, x_high])
    values = np.zeros(lo.size)
    gap = np.zeros(lo.size)
    work = np.flatnonzero(lo < hi)  # a == b integrates to exactly zero
    # a sum that is not finite raises below; numpy's warnings on the way to it
    # would only repeat the error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, work.size, BLOCK):
            roots = work[start:start + BLOCK]
            half = 0.5 * (hi[roots] - lo[roots])
            nodes = (lo[roots] + half)[:, None] + half[:, None] * x
            fx = f(Nodes(nodes, roots[:, None]))
            # an elementwise product summed per row, not a matrix product:
            # BLAS would round a row differently with the block's size
            low = half * (fx[:, :x_low.size] * w_low).sum(axis=1)
            high = half * (fx[:, x_low.size:] * w_high).sum(axis=1)
            finite = np.isfinite(low) & np.isfinite(high)
            if not finite.all():
                i = roots[np.argmin(finite)]
                raise QuadratureConvergenceError(
                    f"quadrature on [{lo[i]}, {hi[i]}] met an integrand value or a "
                    "rule sum that is not finite"
                )
            values[roots] = high
            gap[roots] = np.abs(high - low)
            del nodes, fx  # before the next block's are built
    if shape == ():
        return float(values[0]), float(gap[0])
    return values.reshape(shape), gap.reshape(shape)


def ode_evolve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    steps: int = 10_000,
) -> tuple[np.ndarray, float]:
    """Propagate ``y' = rhs(t, y)`` over ``[0, t_end]`` with ``steps``
    classical RK4 steps.

    ``steps`` must be at least 100: callers treat ``[0, t_end]`` as one drive
    period and scale the count for several periods or for internal
    frequencies above the drive, so the fastest relevant frequency keeps at
    least ~20 points per period.  ``y0`` must be a complex 2-vector
    normalized to 1 within 1e-12.

    Returns ``(state, norm_drift)``: the state at ``t_end`` and the largest
    deviation of the state norm from one seen during the integration, which
    for a Hermitian generator measures pure integrator error.

    Raises
    ------
    OdeDivergenceError
        If the state stops being finite.
    """
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    y = np.asarray(y0, dtype=complex).copy()
    if y.shape != (2,):
        raise ValueError(f"y0 must be a complex 2-vector, got shape {y.shape}")
    norm0 = float(np.linalg.norm(y))
    if abs(norm0 - 1.0) > 1e-12:
        raise ValueError(f"y0 must be normalized to 1 within 1e-12, |y0| = {norm0}")
    if t_end == 0.0:
        return y, 0.0
    h = t_end / steps
    drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            t = step * h
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(t + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = float(np.linalg.norm(y))
            if not np.isfinite(norm):
                raise OdeDivergenceError(
                    f"state became non-finite at t = {t + h} (step {step + 1}/{steps})"
                )
            drift = max(drift, abs(norm - 1.0))
    return y, drift


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference estimate of ``f'(x)`` with step ``h``."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)
