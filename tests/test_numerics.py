import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from quenchkit import numerics
from quenchkit.numerics import (
    OdeDivergenceError,
    QuadratureConvergenceError,
    central_difference,
    integrate,
    ode_evolve,
)


class TestRules:
    """The 16- and 24-point Gauss-Legendre rules are literal doubles."""

    RULES = pytest.mark.parametrize("index, n", [(0, 16), (1, 24)], ids=["16", "24"])

    @RULES
    def test_rules_are_numpys_bit_for_bit(self, index, n):
        # what numpy.polynomial computes with LAPACK on this host
        x, w = numerics._rules()[index]
        ref_x, ref_w = leggauss(n)
        assert (x.dtype, w.dtype) == (np.float64, np.float64)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()

    @RULES
    def test_nodes_are_the_correctly_rounded_legendre_roots(self, index, n):
        x, _ = numerics._rules()[index]
        with mpmath.workdps(50):
            for xi in x:
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(xi))
                assert abs(root - xi) < 1e-15  # the root next to the node
                assert float(root) == xi

    @RULES
    def test_weights_are_within_2e_13_of_the_exact_weights(self, index, n):
        # w = 2 (1 - x^2) / (n P_{n-1}(x))^2 at a root x of P_n.  numpy's
        # weights miss the correctly rounded ones by up to 1.2e-13 (the
        # outermost 24-point weight); the literals keep numpy's doubles
        x, w = numerics._rules()[index]
        with mpmath.workdps(50):
            for xi, wi in zip(x, w):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(xi))
                exact = 2 * (1 - root**2) / (n * mpmath.legendre(n - 1, root)) ** 2
                assert abs(wi - exact) <= 2e-13 * exact


class TestIntegrate:
    def test_sine_over_half_period(self):
        value, error = integrate(lambda nodes: np.sin(nodes.x), 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert error <= 1e-12

    def test_zero_integrand(self):
        assert integrate(lambda nodes: np.zeros_like(nodes.x), -3.0, 7.0) == (0.0, 0.0)

    def test_degenerate_interval(self):
        assert integrate(lambda nodes: np.exp(nodes.x), 1.5, 1.5) == (0.0, 0.0)

    def test_ground_state_density_normalized(self):
        # |ground state|^2 of a box of width w integrates to one
        w = 1e-9
        f = lambda nodes: (2.0 / w) * np.sin(math.pi * nodes.x / w) ** 2
        value, error = integrate(f, 0.0, w)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert error <= 1e-10

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda nodes: np.sin(nodes.x), 1.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs_f=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        coeffs_g=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
    )
    def test_linearity_on_polynomials(self, coeffs_f, coeffs_g, a, b):
        f = lambda nodes: coeffs_f[0] + coeffs_f[1] * nodes.x + coeffs_f[2] * nodes.x * nodes.x
        g = lambda nodes: coeffs_g[0] + coeffs_g[1] * nodes.x + coeffs_g[2] * nodes.x * nodes.x
        combo = lambda nodes: a * f(nodes) + b * g(nodes)
        tol = 1e-11
        (lhs, e_combo), (int_f, e_f), (int_g, e_g) = (
            integrate(h, -1.0, 2.0) for h in (combo, f, g)
        )
        assert max(e_combo, e_f, e_g) <= tol
        assert abs(lhs - (a * int_f + b * int_g)) <= 3.0 * tol * max(1.0, abs(a) + abs(b))

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1, 1), min_size=32, max_size=32),
        panels=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(sorted), min_size=1,
                        max_size=8),
    )
    @example(coeffs=[0.0] * 30 + [1.0, 1.0], panels=[(-1.0, 1.0)])
    def test_exact_on_polynomials_up_to_degree_31(self, coeffs, panels):
        # the 16-point rule is exact to degree 31 and the 24-point rule
        # beyond, so both sums are the exact integral up to rounding, and
        # their gap is within that rounding; one point fewer misses x^30
        # over [-1, 1] by 2.9e-9
        lo, hi = np.array(panels).T
        reach = np.maximum(np.abs(lo), np.abs(hi))
        scale = sum(abs(c) * reach**k for k, c in enumerate(coeffs))
        # relative rounding, plus an absolute floor for what underflows
        rounding = 64 * len(coeffs) * np.finfo(float).eps * (hi - lo) * scale
        rounding += np.finfo(float).tiny
        got, errors = integrate(
            lambda nodes: np.polynomial.polynomial.polyval(nodes.x, coeffs), lo, hi
        )
        assert np.all(errors <= rounding)
        for value, a, b, bound in zip(got, lo.tolist(), hi.tolist(), rounding):
            exact = sum(
                Fraction(c) * (Fraction(b) ** (k + 1) - Fraction(a) ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs)
            )
            assert abs(Fraction(value) - exact) <= Fraction(bound)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        # a nan integrand once split every panel down to the depth budget
        calls = []

        def f(nodes):
            calls.append(nodes.x.size)
            return np.where(nodes.x > 0.5, bad, nodes.x)

        with pytest.raises(QuadratureConvergenceError, match=r"on \[0.0, 1.0\] .* not finite"):
            integrate(f, np.array([0.25, 0.0]), np.array([0.5, 1.0]))
        # one call: both rules' nodes on every interval of the block
        assert calls == [80]
        with pytest.raises(QuadratureConvergenceError, match=r"on \[0.0, 1.0\] .* not finite"):
            integrate(lambda nodes: np.where(nodes.x > 0.9, bad, nodes.x), 0.0, 1.0)

    def test_scalar_bounds_hand_the_integrand_nodes(self):
        # one call with the interval's 40 nodes, each rooted in interval 0
        calls = []

        def f(nodes):
            calls.append(nodes)
            return np.ones_like(nodes.x)

        got, error = integrate(f, 0.5, 2.5)
        assert type(got) is float and got == pytest.approx(2.0, abs=1e-14)
        assert type(error) is float and error <= 1e-14
        [nodes] = calls
        assert isinstance(nodes, numerics.Nodes)
        rules = np.concatenate([leggauss(16)[0], leggauss(24)[0]])
        np.testing.assert_array_equal(nodes.x, 1.5 + 1.0 * rules)
        np.testing.assert_array_equal(nodes.root, np.zeros(40, dtype=int))

    @pytest.mark.parametrize("scale", [1e308 * 10.0, 1e308])
    def test_warnings_give_way_to_the_error(self, scale):
        # an inf integrand, and a finite one near 1e308 whose rule sums
        # (weights summing to 2) overflow
        def f(nodes):
            return np.float64(scale) * np.cos(nodes.x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureConvergenceError, match="not finite"):
                integrate(f, np.zeros(1), np.full(1, 0.1))


def smooth(c, x):
    # A quintic plus a Lorentzian peak, in + - * / only, so its doubles do
    # not depend on how many nodes one call holds.
    p = c[0] + x * (c[1] + x * x * x * x * c[2])
    return p + c[3] / (1.0 + c[4] * (x - c[5]) * (x - c[5]))


coefficients = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 1), st.floats(-2, 2),
    st.floats(0, 2000), st.floats(-2, 2),
)
intervals = st.tuples(st.floats(-2, 2), st.floats(0, 3)).map(lambda p: (p[0], p[0] + p[1]))


class TestIntegrateMatchesRecursion:
    """Array bounds: blocks of intervals, one rule evaluation per block."""

    @settings(max_examples=60, deadline=None)
    @given(
        c=coefficients,
        panels=st.lists(intervals, min_size=1, max_size=20),
        block=st.sampled_from([1, 3, 4096]),
    )
    def test_blocks_give_the_doubles_of_single_interval_calls(self, c, panels, block):
        # a row's weighted sums must not depend on how many rows share it
        lo, hi = np.array(panels).T
        with mock.patch.object(numerics, "BLOCK", block):
            got = integrate(lambda nodes: smooth(c, nodes.x), lo, hi)
        alone = [integrate(lambda nodes: smooth(c, nodes.x), a, b) for a, b in panels]
        assert all(type(v) is float for pair in alone for v in pair)
        np.testing.assert_array_equal(np.transpose(got), alone)

    def test_array_integrand_sees_each_point_with_its_interval(self):
        # integrate x * k over [k, k + 1]: the integrand reads k off the root
        k = np.arange(5.0)
        got, _ = integrate(lambda nodes: nodes.x * k[nodes.root], k, k + 1.0)
        np.testing.assert_allclose(got, k * (k + 0.5), rtol=1e-15)

    def test_memory_does_not_grow_with_intervals(self):
        # a block's nodes and integrand values go before the next block's
        # are built; numpy reports its buffers to tracemalloc, so what grows
        # with the intervals is the per-interval arrays: values, gaps and the
        # work index, and a mask or two
        def peak(n):
            lo = np.arange(float(n))
            hi = lo + 0.5
            tracemalloc.start()
            try:
                integrate(lambda nodes: np.sin(nodes.x), lo, hi)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        numerics._rules()  # cached on first use
        block = numerics.BLOCK
        one, four = peak(block), peak(4 * block)
        assert four - one < 5 * 8 * (3 * block)  # five doubles per added interval

    def test_array_bounds_keep_their_shape(self):
        lo = np.zeros((2, 3))
        got, errors = integrate(lambda nodes: np.ones_like(nodes.x), lo, lo + 2.0)
        assert got.shape == errors.shape == (2, 3)
        assert np.all(got == 2.0)
        assert np.all(errors <= 1e-15)

    def test_first_failing_interval_named(self):
        # [0, 1e-9] is resolved; [1, 10] and [10, 20], some 70 periods of
        # sin(50 x) each, are far more than the 40 nodes resolve, and the
        # returned gaps say so
        f = lambda nodes: np.sin(50.0 * nodes.x)
        values, errors = integrate(f, np.array([0.0, 1.0, 10.0]), np.array([1e-9, 10.0, 20.0]))
        assert np.all(np.isfinite(values))
        assert errors[0] <= 1e-30
        assert np.all(errors[1:] > 1e-3)
        # the same integral over [0, 10] split into arch-sized panels is resolved
        edges = np.linspace(0.0, 10.0, 161)
        panels, gaps = integrate(f, edges[:-1], edges[1:])
        assert math.fsum(panels) == pytest.approx((1.0 - math.cos(500.0)) / 50.0, abs=1e-13)
        assert gaps.sum() <= 1e-13

    @pytest.mark.parametrize(
        "a, b", [(np.zeros(2), np.ones(3)), (math.nan, 1.0), (0.0, math.inf)]
    )
    def test_bad_bounds_rejected(self, a, b):
        with pytest.raises(ValueError):
            integrate(lambda nodes: nodes.x, a, b)


class TestOdeEvolve:
    def test_no_dynamics(self):
        state, drift = ode_evolve(
            lambda t, y: np.zeros(2, dtype=complex), np.array([1.0, 0.0]), 5.0
        )
        np.testing.assert_array_equal(state, np.array([1.0 + 0j, 0.0 + 0j]))
        assert drift == 0.0

    def test_constant_diagonal_generator_phase(self):
        # i y' = (w0/2) sigma_z y  =>  y_up(t) = exp(-i w0 t / 2)
        w0 = 1.0
        rhs = lambda t, y: -0.5j * w0 * np.array([y[0], -y[1]])
        t = 10.0
        state, _ = ode_evolve(rhs, np.array([1.0, 0.0]), t)
        expected = np.array([np.exp(-0.5j * w0 * t), 0.0])
        np.testing.assert_allclose(state, expected, atol=1e-10)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_rotating_field_matches_closed_form(self):
        from quenchkit import spin

        cfg = spin.RotorConfig(alpha=math.pi / 4, ratio=1.0)
        w, a = cfg.ratio, cfg.alpha

        def rhs(t, y):
            off = math.sin(a) * np.exp(-1j * w * t)
            return -0.5j * np.array(
                [math.cos(a) * y[0] + off * y[1],
                 np.conj(off) * y[0] - math.cos(a) * y[1]]
            )

        y0 = np.array([math.cos(a / 2), math.sin(a / 2)], dtype=complex)
        t = cfg.drive_period
        state, drift = ode_evolve(rhs, y0, t)
        expected = spin.evolve_closed_form(t, spin.UPPER, cfg)
        np.testing.assert_allclose(state, expected, atol=1e-8)
        assert drift <= 1e-8

    def test_divergence_detected(self):
        rhs = lambda t, y: 1e200 * y
        with pytest.raises(OdeDivergenceError):
            ode_evolve(rhs, np.array([1.0, 0.0]), 1.0, 100)

    def test_unnormalized_initial_state_rejected(self):
        with pytest.raises(ValueError):
            ode_evolve(lambda t, y: y, np.array([1.0, 1.0]), 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            ode_evolve(lambda t, y: y, np.array([1.0, 0.0, 0.0]), 1.0)

    def test_spec_floor(self):
        with pytest.raises(ValueError, match="steps must be >= 100, got 99"):
            ode_evolve(lambda t, y: y, np.array([1.0, 0.0]), 1.0, 99)


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

        f = lambda g: well.quench_energy(g)[0]
        slope = central_difference(f, 0.5, 1e-4)
        table = well.energy_scan(0.4, 0.6, 21)
        i = 10  # row at gamma = 0.5
        secant = (table[i + 1, 1] - table[i - 1, 1]) / (table[i + 1, 0] - table[i - 1, 0])
        assert slope == pytest.approx(secant, rel=0.01)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            central_difference(lambda x: x, 0.0, 0.0)
