"""Quadrature, fixed-step ODE integration, and finite differences.

These routines are independent oracles: the quadrature and ODE integrators
check the closed forms implemented elsewhere in the package, and the central
difference checks the force stencils of `quenchkit.well`, which evaluate all
their points in one array call.  They are deliberately simple and
reproducible -- fixed Gauss-Legendre rules and classical fixed-step RK4, no
adaptive subdivision or step controllers -- so that a reimplementation in any
language produces the same numbers.

`integrate` runs on arrays: it applies a 16- and a 24-point Gauss-Legendre
rule to many intervals at once, a block of intervals at a time, and takes the
gap between the two sums as its error estimate.  `ode_evolve` is the generic
scalar RK4 loop; the two-level kernel in `kernels.spin_rk4` is checked
against it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np


class QuadratureConvergenceError(ArithmeticError):
    """The quadrature's error estimate stayed above the tolerance.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class OdeDivergenceError(ArithmeticError):
    """The ODE integration produced non-finite intermediate values."""


class Nodes(NamedTuple):
    """Quadrature points handed to an array integrand by `integrate`.

    ``x`` holds the points; ``root[i]`` is the flat index, into the bounds
    passed to `integrate`, of the interval that ``x[i]`` belongs to, so an
    integrand can look up per-interval parameters.
    """

    x: np.ndarray
    root: np.ndarray


# Intervals evaluated together: a block's nodes and values are (BLOCK, 40)
# arrays, a few MiB however many intervals a call brings.  No result depends
# on it.
BLOCK = 4096


@functools.cache
def _rules():
    # The 16- and 24-point rules on [-1, 1].  numpy.polynomial loads here, on
    # first use, so that it does not slow the start of every command.
    from numpy.polynomial.legendre import leggauss

    return leggauss(16), leggauss(24)


def integrate(f: Callable, a, b, *, tolerance=1e-10):
    """Integrate ``f`` over ``[a, b]`` with fixed Gauss-Legendre rules.

    The value is the 24-point sum; its error estimate is the gap to the
    16-point sum.  Nothing is subdivided, so the work is a fixed 40
    evaluations per interval: the caller picks intervals short against the
    integrand's oscillations, on which the rules converge geometrically.

    Parameters
    ----------
    f : callable
        With scalar bounds: a real-valued integrand of one real variable,
        called with floats.  With array bounds: called with a `Nodes` pair
        and returning ``f(nodes.x)`` as a float array of the same shape.
    a, b : float or array_like
        Integration bounds, ``a <= b``; arrays of equal shape integrate one
        interval per element.
    tolerance : float or array_like
        Per-interval absolute tolerance, broadcast against the bounds.

    Returns
    -------
    float or np.ndarray
        The 24-point sums: a float for scalar bounds, an array of the bounds'
        shape otherwise.

    Raises
    ------
    QuadratureConvergenceError
        If the two rules differ by more than the tolerance on some interval.
        The message names the first such interval; ``best_estimate`` holds
        the value (a float for scalar bounds, an array of every interval's
        value otherwise).  Also at once on the first block whose integrand
        values or sums are not finite; ``best_estimate`` is then nan.
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
    tol = np.broadcast_to(np.asarray(tolerance, dtype=float), shape).ravel()
    if not np.all(tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol[np.argmin(tol > 0.0)]}")
    if shape == ():
        scalar_f = f

        def f(nodes: Nodes) -> np.ndarray:
            return np.array([scalar_f(x) for x in nodes.x.tolist()], dtype=float)

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
            fx = f(Nodes(nodes.ravel(), np.repeat(roots, x.size))).reshape(nodes.shape)
            # an elementwise product summed per row, not a matrix product:
            # BLAS would round a row differently with the block's size
            low = half * (fx[:, :x_low.size] * w_low).sum(axis=1)
            high = half * (fx[:, x_low.size:] * w_high).sum(axis=1)
            finite = np.isfinite(low) & np.isfinite(high)
            if not finite.all():
                i = roots[np.argmin(finite)]
                raise QuadratureConvergenceError(
                    f"quadrature on [{lo[i]}, {hi[i]}] met an integrand value or a "
                    f"rule sum that is not finite",
                    best_estimate=np.nan,
                )
            values[roots] = high
            gap[roots] = np.abs(high - low)
    result = float(values[0]) if shape == () else values.reshape(shape)
    failed = ~(gap <= tol)
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureConvergenceError(
            f"quadrature on [{lo[i]}, {hi[i]}] did not reach tolerance {tol[i]}: "
            f"its 16- and 24-point Gauss-Legendre sums differ by {gap[i]:.3e}",
            best_estimate=result,
        )
    return result


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
