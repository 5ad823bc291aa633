"""Quadrature, fixed-step ODE integration, and finite differences.

These routines serve double duty: the finite-difference helper is production
code (it realizes the force as the negative slope of the energy curve), while
the quadrature and ODE integrators act as independent oracles for the closed
forms implemented elsewhere in the package.  They are deliberately simple and
reproducible -- adaptive Simpson bisection and classical fixed-step RK4, no
adaptive step controllers -- so that a reimplementation in any language
produces the same numbers.

`integrate` runs on arrays: it refines the panels of many intervals one
bisection level at a time, and still returns, bit for bit, the doubles of
the plain depth-first recursion with the same acceptance rule.  `ode_evolve`
is the generic scalar RK4 loop; the two-level kernel in `kernels.spin_rk4`
is checked against it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class QuadratureConvergenceError(ArithmeticError):
    """Subdivision budget exhausted before the tolerance was met.

    Carries the best available estimate in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class OdeDivergenceError(ArithmeticError):
    """The ODE integration produced non-finite intermediate values."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance and bisection-depth budget for `integrate`."""

    tolerance: float = 1e-10
    max_subdivisions: int = 48

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class OdeSpec:
    """Resolution for `ode_evolve`, as RK4 steps per drive period.

    The integration window passed to `ode_evolve` is treated as one drive
    period; callers integrating over several periods, or systems whose
    internal frequencies exceed the drive, scale the count accordingly.  The
    floor of 100 keeps even the fastest relevant frequency sampled by at
    least ~20 points per period in the intended usage.
    """

    steps_per_period: int = 10_000

    def __post_init__(self):
        if self.steps_per_period < 100:
            raise ValueError(
                f"steps_per_period must be >= 100, got {self.steps_per_period}"
            )


class OdeResult(NamedTuple):
    state: np.ndarray
    norm_drift: float


class Nodes(NamedTuple):
    """Quadrature points handed to an array integrand by `integrate`.

    ``x`` holds the points; ``root[i]`` is the flat index, into the bounds
    passed to `integrate`, of the interval that ``x[i]`` belongs to, so an
    integrand can look up per-interval parameters.
    """

    x: np.ndarray
    root: np.ndarray


# Root intervals bisected together.  Wider batches amortize the per-level
# array overhead; narrower ones keep the panel arrays in cache.  Of 64, 128,
# 256 and 1024, 128 was the fastest on the oracle-check workload.
ROOT_BATCH = 128
# Panels one bisection level may hold; a wider level is refined in slices of
# this size, one after another.  This keeps memory bounded when a tolerance
# cannot be met before the depth budget (2^depth panels), and was as fast as
# wider caps on the oracle-check workload.
PANEL_CAP = 4096


def integrate(
    f: Callable,
    a,
    b,
    spec: QuadratureSpec | None = None,
    *,
    tolerance=None,
):
    """Integrate ``f`` over ``[a, b]`` by adaptive Simpson bisection.

    A panel is accepted once its two halves change the Simpson estimate by at
    most ``15 * tol``; its value is then the Richardson-corrected sum of the
    halves.  Otherwise both halves are bisected with half the tolerance, at
    most ``spec.max_subdivisions`` times.  Panels are refined breadth first,
    one array of panels per bisection level, and accepted values are summed
    bottom-up in left/right pairs, so the result is the same double the
    depth-first recursion gives.

    Parameters
    ----------
    f : callable
        With scalar bounds: a real-valued integrand of one real variable,
        called with floats.  With array bounds: called with a `Nodes` pair
        and returning ``f(nodes.x)`` as a float array of the same shape.
    a, b : float or array_like
        Integration bounds, ``a <= b``; arrays of equal shape integrate one
        interval per element.
    spec : QuadratureSpec, optional
        Absolute tolerance and subdivision budget.
    tolerance : float or array_like, optional
        Per-interval absolute tolerance, broadcast against the bounds; it
        replaces ``spec.tolerance``.

    Returns
    -------
    float or np.ndarray
        Approximation with estimated absolute error below the tolerance: a
        float for scalar bounds, an array of the bounds' shape otherwise.

    Raises
    ------
    QuadratureConvergenceError
        If some subinterval hits the subdivision budget before meeting its
        share of the tolerance.  The message names the first such interval;
        ``best_estimate`` holds the estimate (a float for scalar bounds, an
        array of every interval's estimate otherwise).  Also on the first
        level whose integrand values or Simpson sums are not finite, which no
        bisection can resolve; ``best_estimate`` is then nan.
    """
    if spec is None:
        spec = QuadratureSpec()
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
    tol = np.asarray(spec.tolerance if tolerance is None else tolerance, dtype=float)
    if not np.all(tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    tol = np.broadcast_to(tol, shape).ravel()
    if shape == ():
        scalar_f = f

        def f(nodes: Nodes) -> np.ndarray:
            return np.array([scalar_f(x) for x in nodes.x.tolist()], dtype=float)

    values = np.zeros(lo.size)
    failed = np.zeros(lo.size, dtype=bool)
    work = np.flatnonzero(lo < hi)  # a == b integrates to exactly zero
    # a value that is not finite raises in _simpson_levels; numpy's warnings
    # on the way to it would only repeat the error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, work.size, ROOT_BATCH):
            roots = work[start:start + ROOT_BATCH]
            a, b = lo[roots], hi[roots]
            m = 0.5 * (a + b)
            fa, fm, fb = f(Nodes(np.concatenate([a, m, b]), np.tile(roots, 3))).reshape(3, -1)
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            values[roots], failed[roots] = _simpson_levels(
                f, roots, a, b, fa, fm, fb, whole, tol[roots], spec.max_subdivisions
            )
    result = float(values[0]) if shape == () else values.reshape(shape)
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureConvergenceError(
            f"quadrature on [{lo[i]}, {hi[i]}] did not reach tolerance "
            f"{tol[i]} within {spec.max_subdivisions} subdivisions",
            best_estimate=result,
        )
    return result


def _simpson_levels(f, root, a, b, fa, fm, fb, whole, tol, depth):
    # Breadth-first adaptive Simpson over panels [a, b] with ``depth``
    # bisections left.  Every panel of a level is evaluated at once; the
    # halves of a split panel go to the next level as adjacent (left, right)
    # entries.  A level wider than PANEL_CAP is handed on in slices, so memory
    # stays bounded however deep the refinement.  Returns each panel's value
    # and whether the depth budget ran out somewhere below it.
    levels = []  # (value, split mask) of each bisection level
    owner = np.arange(root.size)
    failed = np.zeros(root.size, dtype=bool)
    below = None
    while True:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(Nodes(np.concatenate([lm, rm]), np.tile(root, 2))).reshape(2, -1)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        finite = np.isfinite(delta)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureConvergenceError(
                f"quadrature on [{a[i]}, {b[i]}] met an integrand value or a "
                f"Simpson sum that is not finite",
                best_estimate=np.nan,
            )
        # 15 = 2^4 - 1: Richardson factor for Simpson's O(h^4) error
        value = left + right + delta / 15.0
        split = ~(np.abs(delta) <= 15.0 * tol)
        if depth <= 0:
            failed[owner[split]] = True
            split[:] = False
        levels.append((value, split))
        if not split.any():
            break
        a, b = _halves(split, a, m), _halves(split, m, b)
        fa, fm, fb = _halves(split, fa, fm), _halves(split, flm, frm), _halves(split, fm, fb)
        whole = _halves(split, left, right)
        tol = np.repeat(0.5 * tol[split], 2)
        root = np.repeat(root[split], 2)
        owner = np.repeat(owner[split], 2)
        depth -= 1
        if a.size > PANEL_CAP:
            below = np.empty(a.size)
            for start in range(0, a.size, PANEL_CAP):
                s = slice(start, start + PANEL_CAP)
                below[s], deeper = _simpson_levels(
                    f, root[s], a[s], b[s], fa[s], fm[s], fb[s], whole[s], tol[s], depth
                )
                failed[owner[s][deeper]] = True
            break
    # bottom-up: a split panel's value is its left half plus its right half
    for value, split in reversed(levels):
        if below is not None:
            value[split] = below[0::2] + below[1::2]
        below = value
    return below, failed


def _halves(split, left, right):
    # [left[i0], right[i0], left[i1], right[i1], ...] over the split panels
    return np.stack([left[split], right[split]], axis=1).ravel()


def ode_evolve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    spec: OdeSpec | None = None,
) -> OdeResult:
    """Propagate ``y' = rhs(t, y)`` over ``[0, t_end]`` with classical RK4.

    ``y0`` must be a complex 2-vector normalized to 1 within 1e-12.  The
    returned ``norm_drift`` is the largest deviation of the state norm from
    one seen during the integration; for a Hermitian generator it measures
    pure integrator error.

    Raises
    ------
    OdeDivergenceError
        If the state stops being finite.
    """
    if spec is None:
        spec = OdeSpec()
    y = np.asarray(y0, dtype=complex).copy()
    if y.shape != (2,):
        raise ValueError(f"y0 must be a complex 2-vector, got shape {y.shape}")
    norm0 = float(np.linalg.norm(y))
    if abs(norm0 - 1.0) > 1e-12:
        raise ValueError(f"y0 must be normalized to 1 within 1e-12, |y0| = {norm0}")
    if t_end == 0.0:
        return OdeResult(y, 0.0)
    n = spec.steps_per_period
    h = t_end / n
    drift = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            t = step * h
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(t + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = float(np.linalg.norm(y))
            if not np.isfinite(norm):
                raise OdeDivergenceError(
                    f"state became non-finite at t = {t + h} (step {step + 1}/{n})"
                )
            drift = max(drift, abs(norm - 1.0))
    return OdeResult(y, drift)


def central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference estimate of ``f'(x)`` with step ``h``."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)
