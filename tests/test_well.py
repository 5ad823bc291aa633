import math
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenchkit import numerics, well
from quenchkit.numerics import central_difference, integrate
from quenchkit.well import (
    WellConfig,
    decompose,
    eigen_energy,
    eigen_wavefunction,
    energy_scan,
    expansion_coefficient,
    force_scan,
    matter_wave_force,
    overlap_oracle,
    population_scan,
    quench_energy,
)

# frozen quadrature value for the gamma = 0.5, n = 1 overlap
B_HALF_1 = 0.6002108774380708

ALT_CONFIG = WellConfig(mass=3.3e-26, planck=6.626e-34, width=2.5e-9)


def captured_by(gamma, n_levels):
    """The probability the first ``n_levels`` levels capture, from `decompose`."""
    b = decompose(gamma, n_levels)
    return float(np.sum(b * b))


def per_point_energy(gamma, n_levels):
    """The one-gamma renormalized energy that the blocked scans replaced."""
    b = decompose(gamma, n_levels)
    rho = b * b
    nn = np.arange(1.0, n_levels + 1.0) ** 2
    return float(np.sum(rho * nn) / (gamma * gamma)) / float(np.sum(rho))


def per_point_force(g, n_levels, step):
    """The one-gamma force stencil that the array stencils replaced."""

    def energy(x):
        return per_point_energy(x, n_levels)

    k = math.floor(g + 0.5)
    if k >= 1 and abs(g - k) < 2.0 * step:
        if g >= k:
            slope = -3.0 * energy(g) + 4.0 * energy(g + step) - energy(g + 2.0 * step)
        else:
            slope = 3.0 * energy(g) - 4.0 * energy(g - step) + energy(g - 2.0 * step)
    else:
        slope = energy(g + step) - energy(g - step)
    return -slope / (2.0 * step)


# Each scalar entry point at one gamma; each checks gamma before any work.
GAMMA_ENTRY_POINTS = [
    lambda g: expansion_coefficient(1, g),
    lambda g: overlap_oracle(1, g)[0],
    lambda g: decompose(g),
    lambda g: quench_energy(g),
    lambda g: matter_wave_force(g),
    lambda g: population_scan(g),
]


class TestConfigAndRatio:
    def test_ground_energy_reference_constants(self):
        # m = 1e-27 kg, h = 6.626e-34 J s, width = 1 nm
        cfg = WellConfig()
        assert cfg.ground_energy == pytest.approx(5.49e-23, rel=5e-3)

    def test_config_validation(self):
        for kwargs in ({"mass": 0.0}, {"planck": -1.0}, {"width": 0.0}):
            with pytest.raises(ValueError):
                WellConfig(**kwargs)

    def test_ratio_validation(self):
        for check in GAMMA_ENTRY_POINTS:
            with pytest.raises(ValueError, match="gamma must be finite and positive, got 0.0"):
                check(0.0)

    @pytest.mark.parametrize("name", ["mass", "planck", "width"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_config_rejects_non_finite(self, name, value):
        message = f"{name} must be finite and positive, got {value}"
        with pytest.raises(ValueError, match=message):
            WellConfig(**{name: value})

    @pytest.mark.parametrize("gamma", [1.0000000000000002e150, 1e300])
    def test_ratio_rejects_huge(self, gamma):
        # gamma^2 must stay finite in the kernel
        message = f"gamma must be at most 1e+150, got {gamma}"
        for check in GAMMA_ENTRY_POINTS:
            with pytest.raises(ValueError, match=re.escape(message)):
                check(gamma)
        decompose(1e150)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_ratio_rejects_non_finite(self, gamma):
        # inf used to reach int(floor(inf)) in the kernel: OverflowError
        message = f"gamma must be finite and positive, got {gamma}"
        for check in GAMMA_ENTRY_POINTS:
            with pytest.raises(ValueError, match=message):
                check(gamma)


class TestEigenstates:
    def test_energy_reference_value(self):
        assert eigen_energy(1, 1e-9) == pytest.approx(5.49e-23, rel=5e-3)

    def test_energy_level_scaling_exact(self):
        assert eigen_energy(2, 1e-9) == 4.0 * eigen_energy(1, 1e-9)

    def test_energy_width_scaling_exact(self):
        assert eigen_energy(1, 2e-9) == eigen_energy(1, 1e-9) / 4.0

    def test_ground_level_is_the_ground_energy_bitwise(self):
        for cfg in (WellConfig(), ALT_CONFIG):
            assert eigen_energy(1, cfg.width, cfg) == cfg.ground_energy

    def test_energy_domain_errors(self):
        with pytest.raises(ValueError):
            eigen_energy(0, 1e-9)
        with pytest.raises(ValueError):
            eigen_energy(1, -1e-9)

    def test_wavefunction_maximum(self):
        w = 1e-9
        assert eigen_wavefunction(1, w, w / 2) == pytest.approx(math.sqrt(2.0 / w))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_wavefunction_boundaries(self, n):
        assert eigen_wavefunction(n, 1e-9, 0.0) == 0.0

    def test_wavefunction_vanishes_outside(self):
        assert eigen_wavefunction(1, 1e-9, 1.5e-9) == 0.0
        assert eigen_wavefunction(1, 1e-9, -1e-12) == 0.0

    def test_wavefunction_on_arrays_matches_scalar_calls(self):
        w = 1e-9
        q = np.linspace(-0.1 * w, 1.1 * w, 61)
        n = np.arange(1, 62)
        got = eigen_wavefunction(n, w, q)
        expected = [eigen_wavefunction(k, w, x) for k, x in zip(n.tolist(), q.tolist())]
        assert got.tolist() == expected

    @pytest.mark.parametrize("n", [1, 3])
    def test_wavefunction_normalized(self, n):
        w = 1e-9
        density = lambda nodes: eigen_wavefunction(n, w, nodes.x) ** 2
        value, error = integrate(density, 0.0, w)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert error <= 1e-10


class TestExpansionCoefficient:
    def test_identity(self):
        assert expansion_coefficient(1, 1.0) == 1.0
        for n in (2, 3, 10):
            assert expansion_coefficient(n, 1.0) == 0.0

    def test_integer_resonance(self):
        assert expansion_coefficient(2, 2.0) == 1.0 / math.sqrt(2.0)
        assert expansion_coefficient(2, 2.0) == pytest.approx(0.70711, abs=1e-5)

    def test_shrink_value_frozen_from_quadrature(self):
        assert expansion_coefficient(1, 0.5) == pytest.approx(B_HALF_1, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_resonant_continuity(self, n):
        # approaching an integer ratio from either side (for n = 1 the left
        # side runs through the shrink formula) tends to 1/sqrt(n)
        target = 1.0 / math.sqrt(n)
        for g in (n - 1e-6, n + 1e-6):
            assert abs(expansion_coefficient(n, g) - target) <= 1e-4

    def test_population_is_exact_square(self):
        for n in (1, 2, 5, 9):
            for g in (0.3, 0.5, 1.5, 2.0, 4.9):
                b = expansion_coefficient(n, g)
                assert population_scan(g, n)[n - 1, 1] == b * b
                assert 0.0 <= b * b <= 1.0

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            expansion_coefficient(0, 2.0)


class TestOverlapOracle:
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.5, 2.0, 4.9])
    def test_matches_closed_form(self, gamma):
        for n in range(1, 9):
            closed = expansion_coefficient(n, gamma)
            oracle, error = overlap_oracle(n, gamma)
            assert abs(closed - oracle) <= 1e-9
            assert error <= 1e-10

    def test_identity_case(self):
        assert overlap_oracle(1, 1.0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_resonant_case(self):
        assert overlap_oracle(3, 3.0)[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    @pytest.mark.parametrize("gamma", [0.280011, 1.0, 2.0, 4.9, 10.1])
    def test_levels_in_one_call_match_scalar_calls_bitwise(self, gamma):
        levels = np.arange(1, 13)
        batched, errors = overlap_oracle(levels, gamma)
        assert batched.shape == errors.shape == levels.shape
        scalar = [overlap_oracle(n, gamma) for n in levels.tolist()]
        assert list(zip(batched.tolist(), errors.tolist())) == scalar
        assert errors.max() <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.floats(1e-3, 200.0)
        | st.integers(1, 200).flatmap(lambda k: st.floats(k - 1e-9, k + 1e-9))
    )
    def test_confirms_the_closed_form_to_1e_13(self, gamma):
        # within the default --quad-tol, next to the integer resonances too
        levels = np.arange(1, 41)
        closed = decompose(gamma, 40)
        oracle, errors = overlap_oracle(levels, gamma)
        assert np.max(np.abs(oracle - closed)) <= 1e-13
        assert errors.max() <= 1e-10

    def test_panels_add_left_to_right(self, monkeypatch):
        # one rounding per addition, on every Python: a compensated sum, as
        # the builtin sum is from 3.12 on, gives 1.0 here
        monkeypatch.setattr(
            well, "integrate", lambda *a: (np.array([1e16, 1.0, -1e16]), np.zeros(3))
        )
        assert overlap_oracle(3, 0.5)[0] == 0.0  # three panels: arches at 1/3 and 2/3

    def test_error_sums_each_levels_panel_gaps(self, monkeypatch):
        # at gamma = 0.5 level k has k panels; gaps 1, 2, ... make each
        # level's sum exact: 1, 2 + 3, 4 + 5 + 6
        real = well.integrate

        def known_gaps(f, a, b):
            values, _ = real(f, a, b)
            return values, np.arange(1.0, values.size + 1.0)

        monkeypatch.setattr(well, "integrate", known_gaps)
        b, errors = overlap_oracle(np.array([1, 2, 3]), 0.5)
        assert errors.tolist() == [1.0, 5.0, 15.0]
        assert b.tolist() == overlap_oracle(np.array([1, 2, 3]), 0.5)[0].tolist()
        assert overlap_oracle(3, 0.5)[1] == 6.0

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_no_levels_give_empty_arrays(self, shape):
        b, errors = overlap_oracle(np.arange(1, 1).reshape(shape), 0.5)
        assert b.shape == errors.shape == shape
        assert b.dtype == errors.dtype == np.float64

    @pytest.mark.parametrize("gamma", [0.280011, 1.0, 3.0, 4.9])
    def test_chunks_give_the_doubles_of_one_call(self, gamma, monkeypatch):
        # at a chunk of 5 panels most levels have more and go alone, and the
        # rest share chunks; every b and error must be the unchunked double
        levels = np.arange(1, 61)
        monkeypatch.setattr(well, "ORACLE_CHUNK", 10**9)
        whole = overlap_oracle(levels, gamma)
        calls = []
        real = well.integrate

        def counted(f, a, b):
            calls.append(a.size)
            return real(f, a, b)

        monkeypatch.setattr(well, "ORACLE_CHUNK", 5)
        monkeypatch.setattr(well, "integrate", counted)
        chunked = overlap_oracle(levels, gamma)
        assert max(calls) > 5 and min(calls) < 5 and sum(calls) > 60
        for got, want in zip(chunked, whole):
            assert got.tolist() == want.tolist()

    def test_memory_does_not_grow_with_levels(self):
        # panels are built, integrated and summed a chunk of levels at a time;
        # numpy reports its buffers to tracemalloc, so all L (L + 1) / 2 panels
        # of levels 1..L at gamma = 0.5 would show
        def peak(top):
            tracemalloc.start()
            try:
                overlap_oracle(np.arange(1, top + 1), 0.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        overlap_oracle(np.arange(1, 3), 0.5)  # the rules are cached on first use
        small, large = peak(200), peak(800)
        # a chunk holds at most ORACLE_CHUNK + 800 panels at about 200 bytes
        # each (bounds, level, value, gap, the value as a float), and the
        # integrand about a dozen arrays of a block's nodes
        chunk = 200 * (well.ORACLE_CHUNK + 800) + 12 * 40 * 8 * numerics.BLOCK
        assert large < chunk
        # what grows is the results: a few objects per level, no panels
        assert large - small < 200 * 600

    def test_independent_of_the_closed_form(self):
        # an oracle that reached the kernels could end up checking itself
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the closed form")

        with mock.patch("quenchkit.kernels.expansion_coefficients", refuse):
            got, errors = overlap_oracle(np.arange(1, 41), 2.5)
        assert got.shape == errors.shape == (40,)


class TestDecompose:
    def test_identity_decomposition(self):
        b = decompose(1.0, 10)
        assert b[0] == 1.0
        assert np.all(b[1:] == 0.0)
        assert captured_by(1.0, 10) == 1.0

    def test_captured_matches_quadrature_sum(self):
        captured = captured_by(5.0, 10)
        via_oracle = sum(overlap_oracle(n, 5.0)[0] ** 2 for n in range(1, 11))
        assert captured == pytest.approx(via_oracle, abs=1e-8)
        assert captured == pytest.approx(0.989, abs=1e-3)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 5.0])
    def test_captured_monotone_and_complete(self, gamma):
        caps = [captured_by(gamma, n) for n in (10, 50, 200, 10_000)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        assert caps[-1] <= 1.0 + 1e-12
        assert abs(caps[-1] - 1.0) <= 1e-3

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    def test_shrink_projection_norm(self, gamma):
        # the analytic projection norm, itself checked by quadrature of the
        # ground-state density over the shrunken box
        analytic = gamma - math.sin(2.0 * math.pi * gamma) / (2.0 * math.pi)
        cfg = WellConfig()
        density = lambda nodes: eigen_wavefunction(1, cfg.width, nodes.x) ** 2
        by_quadrature, error = integrate(density, 0.0, gamma * cfg.width)
        assert error <= 1e-10
        assert analytic == pytest.approx(by_quadrature, abs=1e-9)
        assert captured_by(gamma, 10_000) == pytest.approx(analytic, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(1.0, 12.0),
        n_levels=st.integers(1, 200),
    )
    def test_expand_captured_bounded_by_completeness(self, gamma, n_levels):
        assert np.all(np.isfinite(decompose(gamma, n_levels)))
        assert 0.0 <= captured_by(gamma, n_levels) <= 1.0 + 1e-12

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            decompose(2.0, 0)


class TestQuenchEnergy:
    def test_identity_energy_is_one(self):
        energy, raw, _ = quench_energy(1.0, 10)
        assert energy == 1.0
        assert raw == 1.0

    def test_doubling_quench_matches_oracle_sum(self):
        # independent route: accumulate squared quadrature overlaps
        raw = 0.0
        captured = 0.0
        for n in range(1, 11):
            p = overlap_oracle(n, 2.0)[0] ** 2
            captured += p
            raw += p * n * n / 4.0
        energy = quench_energy(2.0, 10)[0]
        assert energy == pytest.approx(raw / captured, abs=1e-8)
        assert energy == pytest.approx(0.959, abs=1e-3)

    def test_renormalization_invariant(self):
        for g in (0.4, 1.7, 3.3):
            energy, raw, captured = quench_energy(g, 10)
            assert energy == raw / captured
            assert energy > 0.0

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_mean_energy_conservation_expand(self, gamma):
        assert quench_energy(gamma, 10_000)[1] == pytest.approx(1.0, abs=1e-3)

    def test_shrink_energy_grows_with_truncation(self):
        # gamma < 1: the frozen state has a kink at the new wall, so the
        # untruncated energy diverges; the truncated sum must keep growing
        assert quench_energy(0.5, 1000)[1] > quench_energy(0.5, 10)[1]

    @pytest.mark.parametrize("gamma", [1e-120, 1e120])
    def test_vanishing_captured_probability_is_a_value_error(self, gamma):
        # rho_1 ~ 4 gamma^3 (shrink) or 4 / gamma^3 (expansion) underflows
        message = f"underflows to zero at gamma = {gamma} with 10 levels"
        with pytest.raises(ValueError, match=re.escape(message)):
            quench_energy(gamma, 10)


def untruncated_captured(gamma):
    """C_inf, the probability all levels capture: by Parseval's identity the
    norm of the frozen state's part inside the new box, gamma -
    sin(2 pi gamma) / (2 pi) below gamma = 1 (to 30 digits, as the
    subtraction cancels at small gamma) and 1 from there on."""
    if gamma >= 1.0:
        return 1.0
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma)
        return float(g - mpmath.sin(2 * mpmath.pi * g) / (2 * mpmath.pi))


def envelope_tail(gamma, n_levels):
    """Criterion 05's n^-4 envelope summed over the levels above N: the sum
    over n > N of 4 gamma^3 / (pi^2 (n^2 - gamma^2)^2), by partial fractions
    gamma / pi^2 (psi'(a) + psi'(b) - (psi(b) - psi(a)) / gamma) with
    a = N + 1 - gamma and b = N + 1 + gamma, at 50 digits as the terms of
    order 1/N cancel to order gamma^3 / N^3."""
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        a, b = n_levels + 1 - g, n_levels + 1 + g
        psi = mpmath.psi(1, a) + mpmath.psi(1, b) - (mpmath.digamma(b) - mpmath.digamma(a)) / g
        return float(g / mpmath.pi**2 * psi)


class TestSumRules:
    """What the truncated sums converge to, at sizes quadrature cannot reach.

    Write C_N for the probability captured by N levels and E_raw for the raw
    energy.  C_N rises to C_inf; for gamma > 1 the frozen state is continuous
    at the old wall, so a sudden expansion keeps its energy and E_raw rises
    to 1.  The gaps fall as 1/N: N (C_inf - C_N) -> 4 gamma sin^2(pi gamma)
    / pi^2 below gamma = 1 and N (1 - E_raw) -> 2 gamma / pi^2 above it.
    """

    @settings(max_examples=80, deadline=None)
    @given(gamma=st.floats(1e-3, 1e3), n_levels=st.integers(1, 10**6))
    @example(gamma=0.8, n_levels=1000)
    @example(gamma=1.0, n_levels=10**6)
    @example(gamma=1.5, n_levels=1000)
    @example(gamma=(1 + math.sqrt(5)) / 2, n_levels=3000)
    @example(gamma=4.9, n_levels=10**5)
    @example(gamma=10.1, n_levels=10**5)
    def test_truncated_sums_approach_their_limits(self, gamma, n_levels):
        _, raw, captured = quench_energy(gamma, n_levels)
        limit = untruncated_captured(gamma)
        # N rounded terms summed pairwise, and C_inf rounded once
        rounding = 64 * np.finfo(float).eps * limit
        assert captured <= limit + rounding
        if gamma > 1.0:
            assert raw <= 1.0 + rounding
        # The correction to the leading constant is at most L / N relative,
        # for N >= 2 L.  Above gamma = 1, sin^2(n pi / gamma) averages to 1/2
        # over about max(gamma, 1 / (gamma - 1)) levels: the measured worst
        # is 0.64 L / N, near the golden ratio, where the two are equal.
        # Below gamma = 1 it is about 0.5 / N.
        if gamma < 1.0:
            gap = limit - captured
            lead = 4.0 * gamma * math.sin(math.pi * min(gamma, 1.0 - gamma)) ** 2 / math.pi**2
            scale = 1.0
        elif gamma > 1.0:
            gap = 1.0 - raw
            lead = 2.0 * gamma / math.pi**2
            scale = max(gamma, 1.0 / (gamma - 1.0))
        else:
            # the identity: every sum is exact from one level on
            assert captured == raw == 1.0
            return
        if n_levels >= 2.0 * scale:
            n = n_levels
            assert abs(n * gap - lead) <= lead * scale / n + n * rounding

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(1.0, 1e3, exclude_min=True), share=st.floats(0.0, 1.0))
    @example(gamma=4.9, share=0.0)
    @example(gamma=1.0 + 1e-9, share=0.5)
    @example(gamma=3.0 - 1e-12, share=0.01)
    @example(gamma=1e3, share=1.0)
    def test_captured_gap_within_the_envelope_tail(self, gamma, share):
        # Above gamma = 1, b_n^2 = 4 gamma^3 sin^2(n pi / gamma) / (pi^2
        # (n^2 - gamma^2)^2), so the gap 1 - C_N is at most the envelope's
        # tail.  That tail exceeds 4 gamma^3 / (3 pi^2 (N + 1)^3), so N is
        # drawn from 2 gamma up to where this still exceeds the rounding, and
        # the bound is never met by the rounding alone.
        rounding = 64 * np.finfo(float).eps
        top = gamma * (4.0 / (3.0 * math.pi**2 * rounding)) ** (1 / 3) - 1.0
        low = math.ceil(2.0 * gamma)
        n_levels = low + int(share * (min(10**6, math.floor(top)) - low))
        tail = envelope_tail(gamma, n_levels)
        assert tail > rounding
        assert 1.0 - quench_energy(gamma, n_levels)[2] <= tail + rounding


class TestForce:
    def test_shrink_force_repulsive_and_large(self):
        f = matter_wave_force(0.5)
        assert f > 10.0

    @pytest.mark.parametrize("gamma", [0.5, 2.2])
    def test_sign_anticorrelates_with_energy_slope(self, gamma):
        f = matter_wave_force(gamma)
        h = 0.01
        secant = (
            quench_energy(gamma + h)[0] - quench_energy(gamma - h)[0]
        ) / (2.0 * h)
        assert math.copysign(1.0, f) == -math.copysign(1.0, secant)

    def test_triple_width_force_negligible(self):
        assert abs(matter_wave_force(3.0, 10)) < 0.05

    def test_one_sided_rule_is_continuous_across_resonance(self):
        values = [matter_wave_force(g) for g in (1.9999, 2.0, 2.0001)]
        assert all(math.isfinite(v) for v in values)
        assert max(values) - min(values) < 1e-3

    def test_step_must_fit_domain(self):
        with pytest.raises(ValueError):
            matter_wave_force(1e-5, step=1e-4)


class TestScans:
    def test_population_scan_shrink_peaks_at_ground(self):
        table = population_scan(0.5, 10)
        assert table.shape == (10, 2)
        assert int(table[np.argmax(table[:, 1]), 0]) == 1

    def test_population_scan_identity_single_row(self):
        table = population_scan(1.0, 10)
        assert np.count_nonzero(table[:, 1]) == 1

    def test_population_scan_matches_oracle_at_large_ratio(self):
        # quadrature confirms the exact peak structure near n ~ 0.84 gamma
        table = population_scan(4.9, 10)
        for n in (3, 4, 5, 6):
            assert table[n - 1, 1] == pytest.approx(
                overlap_oracle(n, 4.9)[0] ** 2, abs=1e-8
            )

    @pytest.mark.parametrize("gamma", [1.5, 4.9, 10.1])
    def test_population_scan_peak_agrees_with_oracle(self, gamma):
        # the peak level of the closed form is the peak level of the integrals
        table = population_scan(gamma, 20)
        closed_peak = int(table[np.argmax(table[:, 1]), 0])
        oracle_peak = max(
            range(1, 21), key=lambda n: overlap_oracle(n, gamma)[0] ** 2
        )
        assert closed_peak == oracle_peak

    def test_energy_scan_contains_exact_identity_row(self):
        table = energy_scan(0.5, 1.5, 3)
        assert table[1, 0] == 1.0
        assert table[1, 1] == 1.0

    def test_energy_increases_as_width_shrinks(self):
        e = {g: quench_energy(g)[0] for g in (0.25, 0.5, 1.0)}
        assert e[0.25] > e[0.5] > e[1.0]

    def test_energy_scan_non_monotonic_between_2p5_and_3p5(self):
        table = energy_scan(2.5, 3.5, 41)
        diffs = np.diff(table[:, 1])
        assert np.any(diffs > 0.0) and np.any(diffs < 0.0)

    def test_energy_scan_validation(self):
        with pytest.raises(ValueError):
            energy_scan(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            energy_scan(1.0, 2.0, 1)

    @pytest.mark.parametrize("scan", [energy_scan, force_scan])
    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.nan, 2.0)])
    def test_scan_grid_rejects_non_finite(self, scan, bounds):
        # an infinite bound used to make a nan grid with a numpy warning and
        # then blame the nan, not the bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"got \[{bounds[0]}, {bounds[1]}\]"):
                scan(*bounds, 3)

    def test_force_scan_shrink_all_repulsive(self):
        gamma, _, force = force_scan(0.3, 0.7, 9).T
        assert np.all(force > 0.0)
        assert np.all(np.diff(gamma) > 0.0)

    def test_force_scan_expand_fluctuates_small(self):
        force = force_scan(1.5, 5.0, 50)[:, 2]
        assert np.max(np.abs(force)) < 0.01 * matter_wave_force(0.5)

    @pytest.mark.parametrize("scan", [energy_scan, force_scan, well.captured_scan])
    def test_scan_grid_rejects_huge(self, scan):
        with pytest.raises(ValueError, match=r"<= 1e\+150, got \[1.0, 1e\+200\]"):
            scan(1.0, 1e200, 3)

    def test_ratio_bound_keeps_coefficients_finite(self):
        assert np.all(np.isfinite(decompose(1e150, 1000)))
        assert np.all(np.isfinite(energy_scan(1e90, 1e100, 5)))
        # the doubles there are far coarser than the step: the stencil once
        # gave finite but meaningless forces
        for g in (1e90, 1e100):
            with pytest.raises(ValueError, match=re.escape(f"step 0.0001 at gamma = {g}:")):
                matter_wave_force(g)
        # every double this large is an integer, each of which force_scan
        # omits; it once returned empty arrays, finite only vacuously
        with pytest.raises(ValueError, match=r"in \[1e\+90, 1e\+100\] is an exact integer"):
            force_scan(1e90, 1e100, 5)

    def test_blocks_do_not_change_the_scans(self, monkeypatch):
        # one row per block (two ways), then every grid point in one block
        scans = []
        for block in (1, 37, 10**9):
            monkeypatch.setattr(well, "ENERGY_BLOCK", block)
            scans.append((energy_scan(0.3, 6.7, 301, 37),
                          force_scan(0.5, 5.5, 201, 37, step=0.01)))
        whole = scans.pop()
        for rows in scans:
            np.testing.assert_array_equal(rows[0], whole[0])
            np.testing.assert_array_equal(rows[1], whole[1])

    @pytest.mark.parametrize("step", [0.01, 0.006])
    def test_central_rows_equal_the_central_difference_oracle(self, step, monkeypatch):
        # the energy column, then every stencil point in one more call
        calls = []
        energies = well._energies
        monkeypatch.setattr(well, "_energies", lambda g, n: calls.append(len(g)) or energies(g, n))
        gamma, _, force = force_scan(0.5, 4.5, 401, 12, step=step).T
        assert calls == [len(gamma), 2 * len(gamma)]
        k = np.floor(gamma + 0.5)
        central = (k < 1.0) | (np.abs(gamma - k) >= 2.0 * step)
        assert 0 < central.sum() < len(gamma)
        slope = central_difference(lambda x: energies(x, 12)[0], gamma[central], step)
        np.testing.assert_array_equal(force[central], -slope)

    def test_scans_equal_the_per_point_path_bitwise(self):
        # 0.01 spacing puts grid points within 2 * step of every integer, so
        # both one-sided stencils, the central one and the omission all run
        gamma, energy, force = force_scan(0.5, 4.5, 401, 12, step=0.01).T
        gammas = gamma.tolist()
        assert len(gammas) == 401 - 4
        expected = [per_point_force(g, 12, 0.01) for g in gammas]
        assert force.tolist() == expected
        assert [matter_wave_force(g, 12, step=0.01) for g in gammas] == expected
        expected = [per_point_energy(g, 12) for g in gammas]
        assert energy.tolist() == expected
        assert [quench_energy(g, 12)[0] for g in gammas] == expected
        table = well.captured_scan(0.5, 4.5, 401, 12)
        assert table[:, 1].tolist() == [captured_by(g, 12) for g in table[:, 0]]

    @pytest.mark.parametrize("n_levels", [1000, 37])
    def test_in_place_blocks_equal_per_gamma_sums_bitwise(self, n_levels, monkeypatch):
        # shrink-only and expansion-only runs long enough to fill whole
        # default blocks at both level counts, with the identity and its
        # edges, exact integers (also above n_levels), gammas next to an
        # integer and generic gammas mixed in between
        specials = [0.3, 0.999, 1.0, 1.0 - 1e-10, 1.0 + 1e-10, 2.0, 37.0, 500.0,
                    3.0 * (1 + 1e-12), 36.0 * (1 - 5e-10), 2.5, 40.3]
        gammas = np.concatenate([
            np.linspace(0.01, 0.99, 450), specials, np.arange(2.0, 40.0),
            np.linspace(1.01, 60.0, 450), specials[::-1],
        ])
        nn = np.arange(1.0, n_levels + 1.0) ** 2
        captured, raw = [], []
        for g in gammas.tolist():
            b = decompose(g, n_levels)
            rho = b * b
            captured.append(np.sum(rho))
            raw.append(np.sum(rho * nn) / (g * g))
        captured, raw = np.array(captured), np.array(raw)
        for block in (1, n_levels, well.ENERGY_BLOCK, 10**9):
            monkeypatch.setattr(well, "ENERGY_BLOCK", block)
            got = well._energies(gammas, n_levels)
            for values, expected in zip(got, (raw / captured, raw, captured)):
                np.testing.assert_array_equal(values.view(np.uint64), expected.view(np.uint64))

    def test_blocks_name_the_first_failing_gamma(self, monkeypatch):
        # one row per block: blocks 1-3 underflow, the smallest gamma last
        monkeypatch.setattr(well, "ENERGY_BLOCK", 10)
        gammas = np.full(8, 1.5)
        gammas[1:4] = [3e-300, 2e-300, 1e-300]
        with pytest.raises(ValueError, match=r"underflows to zero at gamma = 3e-300 with 10"):
            well._energies(gammas, 10)

    def test_every_block_runs_under_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(well, "ENERGY_BLOCK", 10)
        gammas = np.array([1.5, 1e-300, 1.5, 1.5])  # block 1 underflows
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            well._energies(gammas, 10)

    def test_a_blocks_exception_reaches_the_caller(self, monkeypatch):
        class Boom(Exception):
            pass

        calls = []
        coefficients = well.kernels.expansion_coefficients

        def third_call_raises(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise Boom("block 2")
            return coefficients(*args, **kwargs)

        monkeypatch.setattr(well.kernels, "expansion_coefficients", third_call_raises)
        monkeypatch.setattr(well, "ENERGY_BLOCK", 10)
        with pytest.raises(Boom, match="block 2"):
            well._energies(np.linspace(1.1, 3.9, 40), 10)
        assert len(calls) == 3  # no block after the failing one

    def test_many_blocks_start_no_thread(self, monkeypatch):
        # forty blocks of one row, on a host of any CPU count
        def fail(thread):
            raise AssertionError("a thread was started")

        gammas = np.linspace(0.5, 4.5, 40)
        expected = [v.tolist() for v in well._energies(gammas, 10)]
        monkeypatch.setattr(threading.Thread, "start", fail)
        monkeypatch.setattr(well, "ENERGY_BLOCK", 10)
        assert [v.tolist() for v in well._energies(gammas, 10)] == expected

    def test_force_scan_omits_resonant_grid_points(self):
        gamma, _, force = force_scan(1.9, 2.1, 3).T
        assert gamma.tolist() == [1.9, 2.1]
        assert np.all(np.isfinite(force))

    def test_force_scan_omits_exact_integers_only(self):
        # 1 (the identity) and 2, 3 are dropped; 0.5 and 1.5 are kept
        assert force_scan(0.5, 3.0, 6)[:, 0].tolist() == [0.5, 1.5, 2.5]
        # next to an integer, however close, a point keeps its row
        near = [math.nextafter(1.0, 2.0), 1.0 + 5e-10, 3.0 * (1 + 1e-12)]
        for g in near:
            gamma, _, force = force_scan(g, 3.5, 2).T
            assert gamma.tolist() == [g, 3.5]
            assert np.all(np.isfinite(force))

    def test_force_rows_anticorrelate_with_energy_secant(self):
        gamma, energy, force = force_scan(2.5, 3.5, 41).T
        for i in range(1, len(gamma) - 1):
            secant = (energy[i + 1] - energy[i - 1]) / (gamma[i + 1] - gamma[i - 1])
            if abs(secant) > 1e-3:
                assert math.copysign(1.0, force[i]) == -math.copysign(1.0, secant)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: well._energies(np.array([1.5, -1.0, -2.0]), 10),
         "gamma must be finite and positive, got -1.0"),
        (lambda: well._energies(np.array([1.5, 2e150, 1e151]), 10),
         "gamma must be at most 1e+150, got 2e+150"),
        (lambda: well._energies(np.array([1.5, 2e-300, 1e-300]), 10),
         "captured probability underflows to zero at gamma = 2e-300 with 10 levels"),
        (lambda: well._forces(np.array([0.5, 5e-5, 4e-5]), 10, 1e-4),
         "gamma - step must stay positive, got gamma=5e-05, step=0.0001"),
        (lambda: well._forces(np.array([1.5, 600000.5, 700000.5]), 10, 1e-4),
         "the force stencil cannot resolve step 0.0001 at gamma = 600000.5: "
         "the doubles there are over 1e-6 step apart"),
        (lambda: overlap_oracle(np.array([1, 0, -1]), 0.5), "level index must be >= 1, got 0"),
        (lambda: eigen_wavefunction(np.array([[2], [0]]), 1.0, 0.3),
         "level index must be >= 1, got 0"),
    ],
    ids=["energies-domain", "energies-top", "energies-underflow", "forces-step",
         "forces-coarse", "overlap-oracle-level",
         "eigen-wavefunction-level"],
)
def test_array_checks_name_the_first_bad_element(call, message):
    # one line naming one value, never the whole array
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eigen_energy(math.nan, 1e-9), "level index must be >= 1, got nan"),
        (lambda: eigen_energy(0, 1e-9), "level index must be >= 1, got 0"),
        (lambda: expansion_coefficient(math.nan, 2.0), "level index must be >= 1, got nan"),
        (lambda: expansion_coefficient(-1, 2.0), "level index must be >= 1, got -1"),
        (lambda: decompose(2.0, math.nan), "n_levels must be >= 1, got nan"),
        (lambda: well._energies(np.array([1.5, 2.5]), math.nan),
         "n_levels must be >= 1, got nan"),
    ],
    ids=["eigen-energy-nan", "eigen-energy-zero", "expansion-coefficient-nan",
         "expansion-coefficient-negative", "decompose-nan", "energies-nan"],
)
def test_level_checks_refuse_nan(call, message):
    # n < 1 is false for nan: eigen_energy returned nan, and the others
    # failed inside numpy with "arange: cannot compute length"
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
