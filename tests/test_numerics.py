import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchkit import numerics
from quenchkit.numerics import (
    OdeDivergenceError,
    OdeSpec,
    QuadratureConvergenceError,
    QuadratureSpec,
    central_difference,
    integrate,
    ode_evolve,
)


class TestIntegrate:
    def test_sine_over_half_period(self):
        spec = QuadratureSpec(tolerance=1e-12)
        assert integrate(math.sin, 0.0, math.pi, spec) == pytest.approx(2.0, abs=1e-12)

    def test_zero_integrand(self):
        assert integrate(lambda x: 0.0, -3.0, 7.0) == 0.0

    def test_degenerate_interval(self):
        assert integrate(math.exp, 1.5, 1.5) == 0.0

    def test_ground_state_density_normalized(self):
        # |ground state|^2 of a box of width w integrates to one
        w = 1e-9
        f = lambda q: (2.0 / w) * math.sin(math.pi * q / w) ** 2
        spec = QuadratureSpec(tolerance=1e-10)
        assert integrate(f, 0.0, w, spec) == pytest.approx(1.0, abs=1e-10)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs_f=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        coeffs_g=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
    )
    def test_linearity_on_polynomials(self, coeffs_f, coeffs_g, a, b):
        f = lambda x: coeffs_f[0] + coeffs_f[1] * x + coeffs_f[2] * x * x
        g = lambda x: coeffs_g[0] + coeffs_g[1] * x + coeffs_g[2] * x * x
        combo = lambda x: a * f(x) + b * g(x)
        spec = QuadratureSpec(tolerance=1e-11)
        lhs = integrate(combo, -1.0, 2.0, spec)
        rhs = a * integrate(f, -1.0, 2.0, spec) + b * integrate(g, -1.0, 2.0, spec)
        assert abs(lhs - rhs) <= 3.0 * spec.tolerance * max(1.0, abs(a) + abs(b))

    def test_budget_exhaustion_carries_best_estimate(self):
        f = lambda x: math.sin(50.0 * x)
        exact = (1.0 - math.cos(500.0)) / 50.0
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate(f, 0.0, 10.0, QuadratureSpec(tolerance=1e-14, max_subdivisions=2))
        assert math.isfinite(err.value.best_estimate)
        # the same integrand converges once the budget allows it
        assert integrate(f, 0.0, 10.0, QuadratureSpec(tolerance=1e-11)) == pytest.approx(
            exact, abs=1e-10
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


def recursive_simpson(f, a, b, tol, depth):
    """Depth-first adaptive Simpson, kept as the reference for `integrate`.

    Returns (value, converged); the value is the best estimate either way.
    """
    if a == b:
        return 0.0, True
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return _panel(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, depth)


def _panel(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, True
    if depth <= 0:
        return left + right + delta / 15.0, False
    lval, lok = _panel(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rval, rok = _panel(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lval + rval, lok and rok


def smooth(c, x):
    # A quintic plus a Lorentzian peak, in + - * / only, so a Python float
    # and a NumPy array give the same doubles.
    p = c[0] + x * (c[1] + x * x * x * x * c[2])
    return p + c[3] / (1.0 + c[4] * (x - c[5]) * (x - c[5]))


coefficients = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 1), st.floats(-2, 2),
    st.floats(0, 2000), st.floats(-2, 2),
)
intervals = st.tuples(st.floats(-2, 2), st.floats(0, 3)).map(lambda p: (p[0], p[0] + p[1]))


class TestIntegrateMatchesRecursion:
    """The breadth-first `integrate` returns the recursion's doubles."""

    @settings(max_examples=150, deadline=None)
    @given(
        c=coefficients,
        bounds=intervals,
        tol=st.floats(1e-13, 1e-4),
        depth=st.integers(1, 14),
    )
    def test_scalar_bounds(self, c, bounds, tol, depth):
        f = lambda x: smooth(c, x)
        expected, converged = recursive_simpson(f, *bounds, tol, depth)
        spec = QuadratureSpec(tolerance=tol, max_subdivisions=depth)
        if converged:
            got = integrate(f, *bounds, spec)
        else:
            with pytest.raises(QuadratureConvergenceError) as err:
                integrate(f, *bounds, spec)
            got = err.value.best_estimate
        assert type(got) is float
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        c=coefficients,
        panels=st.lists(st.tuples(intervals, st.floats(1e-13, 1e-4)), min_size=1, max_size=20),
        depth=st.integers(1, 14),
        batch=st.sampled_from([1, 3, 128]),
        cap=st.sampled_from([1, 5, 4096]),
    )
    def test_array_bounds(self, c, panels, depth, batch, cap):
        f = lambda x: smooth(c, x)
        reference = [recursive_simpson(f, a, b, tol, depth) for (a, b), tol in panels]
        lo, hi = np.array([p[0] for p in panels]).T
        tols = np.array([p[1] for p in panels])
        spec = QuadratureSpec(max_subdivisions=depth)
        args = (lambda nodes: smooth(c, nodes.x), lo, hi, spec)
        with mock.patch.multiple(numerics, ROOT_BATCH=batch, PANEL_CAP=cap):
            if all(ok for _, ok in reference):
                got = integrate(*args, tolerance=tols)
            else:
                with pytest.raises(QuadratureConvergenceError) as err:
                    integrate(*args, tolerance=tols)
                got = err.value.best_estimate
        np.testing.assert_array_equal(got, [v for v, _ in reference])

    def test_array_integrand_sees_each_point_with_its_interval(self):
        # integrate x * k over [k, k + 1]: the integrand reads k off the root
        k = np.arange(5.0)
        got = integrate(lambda nodes: nodes.x * k[nodes.root], k, k + 1.0)
        np.testing.assert_allclose(got, k * (k + 0.5), rtol=1e-15)

    def test_array_bounds_keep_their_shape(self):
        lo = np.zeros((2, 3))
        got = integrate(lambda nodes: np.ones_like(nodes.x), lo, lo + 2.0)
        assert got.shape == (2, 3)
        assert np.all(got == 2.0)

    def test_first_failing_interval_named(self):
        f = lambda nodes: np.sin(50.0 * nodes.x)
        spec = QuadratureSpec(tolerance=1e-14, max_subdivisions=2)
        with pytest.raises(QuadratureConvergenceError, match=r"\[1\.0, 10\.0\]"):
            integrate(f, np.array([0.0, 1.0]), np.array([1e-9, 10.0]), spec)

    @pytest.mark.parametrize(
        "a, b", [(np.zeros(2), np.ones(3)), (math.nan, 1.0), (0.0, math.inf)]
    )
    def test_bad_bounds_rejected(self, a, b):
        with pytest.raises(ValueError):
            integrate(lambda nodes: nodes.x, a, b)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, tolerance=tol)


class TestOdeEvolve:
    def test_no_dynamics(self):
        result = ode_evolve(lambda t, y: np.zeros(2, dtype=complex), np.array([1.0, 0.0]), 5.0)
        np.testing.assert_array_equal(result.state, np.array([1.0 + 0j, 0.0 + 0j]))
        assert result.norm_drift == 0.0

    def test_constant_diagonal_generator_phase(self):
        # i y' = (w0/2) sigma_z y  =>  y_up(t) = exp(-i w0 t / 2)
        w0 = 1.0
        rhs = lambda t, y: -0.5j * w0 * np.array([y[0], -y[1]])
        t = 10.0
        result = ode_evolve(rhs, np.array([1.0, 0.0]), t)
        expected = np.array([np.exp(-0.5j * w0 * t), 0.0])
        np.testing.assert_allclose(result.state, expected, atol=1e-10)
        assert abs(np.linalg.norm(result.state) - 1.0) < 1e-10

    def test_rotating_field_matches_closed_form(self):
        from quenchkit import spin

        cfg = spin.RotorConfig.at_ratio(1.0, alpha=math.pi / 4)
        w, w0, a = cfg.omega, cfg.omega0, cfg.alpha

        def rhs(t, y):
            off = math.sin(a) * np.exp(-1j * w * t)
            return -0.5j * w0 * np.array(
                [math.cos(a) * y[0] + off * y[1],
                 np.conj(off) * y[0] - math.cos(a) * y[1]]
            )

        y0 = np.array([math.cos(a / 2), math.sin(a / 2)], dtype=complex)
        t = cfg.drive_period
        result = ode_evolve(rhs, y0, t)
        expected = spin.evolve_closed_form(t, spin.UPPER, cfg).vector
        np.testing.assert_allclose(result.state, expected, atol=1e-8)
        assert result.norm_drift <= 1e-8

    def test_divergence_detected(self):
        rhs = lambda t, y: 1e200 * y
        with pytest.raises(OdeDivergenceError):
            ode_evolve(rhs, np.array([1.0, 0.0]), 1.0, OdeSpec(100))

    def test_unnormalized_initial_state_rejected(self):
        with pytest.raises(ValueError):
            ode_evolve(lambda t, y: y, np.array([1.0, 1.0]), 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ode_evolve(lambda t, y: y, np.array([1.0, 0.0, 0.0]), 1.0)

    def test_spec_floor(self):
        with pytest.raises(ValueError):
            OdeSpec(steps_per_period=99)


class TestCentralDifference:
    def test_square(self):
        assert central_difference(lambda x: x * x, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-7)

    def test_constant_is_exact(self):
        assert central_difference(lambda x: 4.25, 0.3, 1e-5) == 0.0

    @pytest.mark.parametrize("x", [-1.0, 0.2, 2.0])
    def test_cubic_error_bound(self, x):
        # central differences leave only the f'''(x) h^2 / 6 term on a cubic
        f = lambda u: 2.0 * u**3 - u
        h = 1e-3
        exact = 6.0 * x * x - 1.0
        third = 12.0
        bound = third * h * h / 6.0 + 1e-9
        assert abs(central_difference(f, x, h) - exact) <= bound

    def test_energy_slope_matches_scan_secant(self):
        from quenchkit import well

        f = lambda g: well.quench_energy(g).renormalized
        slope = central_difference(f, 0.5, 1e-4)
        table = well.energy_scan(0.4, 0.6, 21)
        i = 10  # row at gamma = 0.5
        secant = (table[i + 1, 1] - table[i - 1, 1]) / (table[i + 1, 0] - table[i - 1, 0])
        assert slope == pytest.approx(secant, rel=0.01)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            central_difference(lambda x: x, 0.0, 0.0)
