import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchkit import kernels, spin
from quenchkit.numerics import ode_evolve
from quenchkit.spin import (
    HBAR,
    LOWER,
    OMEGA0,
    UPPER,
    RotorConfig,
    anti_adiabatic_threshold,
    evolve_closed_form,
    hamiltonian,
    instantaneous_eigenstates,
    omega_scan,
    return_probability,
    return_probability_cycle,
)

# frozen single-cycle return probability at resonance with a 45-degree cone
RHO_CYCLE_RESONANT = 0.6143658201906149

angles = st.floats(0.0, math.pi)
ratios = st.floats(0.05, 20.0)
phases = st.floats(0.0, 1.0)


def cfg_at(ratio, alpha):
    return RotorConfig.at_ratio(ratio, alpha=alpha)


def branch_gap(t, cfg):
    """|upper - lower| return probability at ``t``: rounding only."""
    return abs(return_probability(t, UPPER, cfg) - return_probability(t, LOWER, cfg))


class TestConfig:
    def test_larmor_frequency(self):
        # a constant, not a field: the spin tables depend on alpha and
        # omega / omega0 only
        cfg = RotorConfig()
        assert cfg.omega0 == 1.6e-19 * 1.0 / 9.3e-31
        assert [f.name for f in dataclasses.fields(RotorConfig)] == ["alpha", "omega"]

    def test_at_ratio(self):
        cfg = RotorConfig.at_ratio(2.5, alpha=math.pi / 6)
        assert cfg.omega == 2.5 * cfg.omega0
        assert cfg.alpha == math.pi / 6
        assert RotorConfig.at_ratio(1.0 / kernels.MAX_RATIO).omega > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RotorConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            RotorConfig(omega=0.0)

    @pytest.mark.parametrize("name", ["omega"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_validation_rejects_non_finite(self, name, value):
        message = f"{name} must be finite and positive, got {value}"
        with pytest.raises(ValueError, match=message):
            RotorConfig(**{name: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"omega": [1.0, -2.0, math.nan]}, "omega must be finite and positive, got -2.0"),
            ({"omega": [1.0, math.nan, -2.0]}, "omega must be finite and positive, got nan"),
            ({"alpha": [0.5, math.pi, 4.0, -1.0]}, r"alpha must lie in \[0, pi\], got 4.0"),
            ({"ratio": [1.0, 1e160, 1e200]},
             r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+160"),
            ({"ratio": [[1.0], [1e-310]]},
             "drive ratio omega / omega0 must be at least 1e-150, got 1e-310"),
            ({"ratio": [1.0, 2e145, 1e145]},
             r"omega must be at most 1e\+150 rad/s, got 3.44\d*e\+156"),
        ],
    )
    def test_arrays_name_their_first_bad_element(self, kwargs, message):
        kwargs = {k: np.array(v) for k, v in kwargs.items()}
        make = RotorConfig.at_ratio if "ratio" in kwargs else RotorConfig
        with pytest.raises(ValueError, match=message):
            make(**kwargs)

    def test_array_fields_broadcast_and_keep_float_fields_float(self):
        cfg = RotorConfig.at_ratio(np.array([0.5, 1.0, 2.0]), alpha=np.array([[0.1], [0.2]]))
        assert cfg.rabi_lambda.shape == (2, 3) and cfg.drive_period.shape == (3,)
        one = cfg_at(1.3, 0.4)
        assert type(one.rabi_lambda) is float and type(one.drive_period) is float
        with pytest.raises(ValueError, match="shape mismatch"):
            RotorConfig(alpha=np.array([0.1, 0.2]), omega=np.full(3, OMEGA0))

    def test_at_ratio_rejects_infinite_ratio(self):
        with pytest.raises(ValueError, match="omega must be finite and positive, got inf"):
            RotorConfig.at_ratio(math.inf)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # (omega - omega0) ** 2 in rabi_lambda raised OverflowError here
            ({"ratio": 1e200}, r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+200"),
            ({"ratio": 1e145}, r"omega must be at most 1e\+150 rad/s"),
        ],
    )
    def test_frequencies_bounded_so_squares_stay_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RotorConfig.at_ratio(**kwargs)

    def test_largest_accepted_drive_has_finite_precession_rate(self):
        assert math.isfinite(RotorConfig(omega=kernels.MAX_RATIO).rabi_lambda)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # 1e-310 * omega0 once went on to a nan row or "math domain error"
            ({"ratio": 1e-310}, r"drive ratio omega / omega0 must be at least 1e-150, got 1e-310"),
        ],
    )
    def test_tiny_frequencies_name_the_offending_value(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RotorConfig.at_ratio(**kwargs)

    @settings(max_examples=60, deadline=None)
    @given(alpha=angles, ratio=ratios)
    def test_rabi_rate_triangle_bounds(self, alpha, ratio):
        cfg = cfg_at(ratio, alpha)
        lam = cfg.rabi_lambda
        assert abs(cfg.omega - cfg.omega0) <= lam * (1 + 1e-12)
        assert lam <= (cfg.omega + cfg.omega0) * (1 + 1e-12)

    def test_rabi_rate_stable_near_degeneracy(self):
        # naive w^2 + w0^2 - 2 w w0 cos(a) cancels catastrophically here
        cfg = cfg_at(1.0 + 1e-9, 1e-9)
        gap = abs(cfg.omega - cfg.omega0)
        assert gap <= cfg.rabi_lambda <= gap * 1.5 + 2e-9 * cfg.omega0


class TestHamiltonian:
    def test_aligned_field_is_diagonal(self):
        cfg = RotorConfig(alpha=0.0)
        h = hamiltonian(0.7e-11, cfg)
        e = 0.5 * HBAR * cfg.omega0
        np.testing.assert_array_equal(h, np.diag([e, -e]).astype(complex))

    @pytest.mark.parametrize("t_frac", [0.0, 0.21, 0.77])
    def test_traceless_and_hermitian(self, t_frac):
        cfg = cfg_at(1.3, 1.1)
        h = hamiltonian(t_frac * cfg.drive_period, cfg)
        assert h[0, 0] + h[1, 1] == 0.0
        np.testing.assert_array_equal(h, h.conj().T)

    def test_eigenstates_satisfy_eigenrelation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            cfg = cfg_at(rng.uniform(0.05, 20), rng.uniform(0, math.pi))
            t = rng.uniform(0, 1) * cfg.drive_period
            upper, lower, e_up, e_dn = instantaneous_eigenstates(t, cfg)
            h = hamiltonian(t, cfg)
            scale = 0.5 * HBAR * cfg.omega0
            for state, e in ((upper, e_up), (lower, e_dn)):
                residual = h @ state - e * state
                assert np.max(np.abs(residual)) / scale <= 1e-12


class TestEigenstates:
    def test_aligned_field(self):
        upper, lower, e_up, e_dn = instantaneous_eigenstates(3e-12, RotorConfig(alpha=0.0))
        for state in (upper, lower):
            assert state.shape == (2,) and state.dtype == complex
        assert tuple(upper) == (1.0, 0.0)
        assert e_up == -e_dn > 0.0

    def test_equatorial_at_t0(self):
        upper, _, _, _ = instantaneous_eigenstates(0.0, RotorConfig(alpha=math.pi / 2))
        np.testing.assert_allclose(upper, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    @pytest.mark.parametrize("t_frac", [0.0, 0.37, 0.92])
    def test_orthonormal(self, t_frac):
        cfg = cfg_at(0.8, 0.9)
        upper, lower, _, _ = instantaneous_eigenstates(t_frac * cfg.drive_period, cfg)
        assert abs(np.vdot(upper, lower)) <= 1e-14
        assert abs(np.vdot(upper, upper) - 1.0) <= 1e-14


class TestClosedFormEvolution:
    def test_t0_reproduces_upper_exactly(self):
        cfg = cfg_at(1.0, math.pi / 4)
        up, down = evolve_closed_form(0.0, UPPER, cfg)
        assert up == math.cos(cfg.alpha / 2)
        assert down == math.sin(cfg.alpha / 2)

    def test_t0_reproduces_lower_exactly(self):
        cfg = cfg_at(1.0, math.pi / 4)
        up, down = evolve_closed_form(0.0, LOWER, cfg)
        assert up == math.sin(cfg.alpha / 2)
        assert down == -math.cos(cfg.alpha / 2)

    @settings(max_examples=50, deadline=None)
    @given(alpha=angles, ratio=ratios, frac=phases)
    def test_unitary(self, alpha, ratio, frac):
        cfg = cfg_at(ratio, alpha)
        up, down = evolve_closed_form(frac * cfg.drive_period, UPPER, cfg)
        norm = abs(up) ** 2 + abs(down) ** 2
        assert abs(norm - 1.0) <= 1e-12

    def test_degenerate_rabi_rate_limit(self):
        # alpha = 0 at resonance: lambda = 0, state only picks up a phase
        cfg = RotorConfig(alpha=0.0)
        t = 0.4 * cfg.drive_period
        up, down = evolve_closed_form(t, UPPER, cfg)
        assert up == pytest.approx(np.exp(-0.5j * cfg.omega * t), abs=1e-12)
        assert down == 0.0

    def test_unknown_branch_rejected(self):
        message = "branch must be 'upper' or 'lower', got 'sideways'"
        with pytest.raises(ValueError, match=message):
            evolve_closed_form(0.0, "sideways", RotorConfig())
        with pytest.raises(ValueError, match=message):
            spin.ode_trajectory(1e-12, "sideways", RotorConfig())

    @pytest.mark.parametrize("t", [0.0, 1e-12])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 2, math.pi])
    def test_rk4_starts_from_the_instantaneous_eigenstates(self, alpha, t):
        # the start state bit for bit, with and without RK4 steps
        cfg = RotorConfig(alpha=alpha)
        upper, lower, _, _ = instantaneous_eigenstates(0.0, cfg)
        for branch, state in ((UPPER, upper), (LOWER, lower)):
            start = spin.ode_trajectory(t, branch, cfg, samples=2)[1][0]
            np.testing.assert_array_equal(bits(start), bits(state))

    @pytest.mark.parametrize("branch", [UPPER, LOWER])
    def test_matches_rk4_over_one_cycle(self, branch):
        cfg = cfg_at(1.0, math.pi / 4)
        times, states, drift = spin.ode_trajectory(cfg.drive_period, branch, cfg, samples=8)
        assert drift <= 1e-8
        for t, s in zip(times, states):
            expected = evolve_closed_form(t, branch, cfg)
            np.testing.assert_allclose(s, expected, atol=1e-8)

    def test_step_budget_is_checked_before_any_step(self, monkeypatch):
        # at least 600 steps per Larmor period: ratio 1e-9 would take 6e11
        def no_stepping(*args):
            raise AssertionError("stepped past the budget")

        monkeypatch.setattr(kernels, "spin_rk4", no_stepping)
        cfg = cfg_at(1e-9, math.pi / 4)
        with pytest.raises(ValueError, match=r"ratio omega / omega0 = 1e-09 needs \d{12} steps"):
            spin.ode_trajectory(cfg.drive_period, UPPER, cfg)

    def test_step_budget_admits_exactly_its_count(self, monkeypatch):
        # one cycle at ratio 1 takes the default 10,000 steps per period
        cfg = cfg_at(1.0, math.pi / 4)
        monkeypatch.setattr(spin, "MAX_RK4_STEPS", 9_999)
        with pytest.raises(ValueError, match="needs 10000 steps, above the budget of 9999"):
            spin.ode_trajectory(cfg.drive_period, UPPER, cfg)
        monkeypatch.setattr(spin, "MAX_RK4_STEPS", 10_000)
        assert spin.ode_trajectory(cfg.drive_period, UPPER, cfg)[2] <= 1e-8

    @pytest.mark.parametrize("t", [-1.0, -5e-324, math.inf, -math.inf, math.nan])
    def test_time_must_be_finite_and_non_negative(self, t, monkeypatch):
        def no_stepping(*args):
            raise AssertionError("stepped with an invalid t")

        monkeypatch.setattr(kernels, "spin_rk4", no_stepping)
        with pytest.raises(ValueError, match=f"t must be finite and non-negative, got {t}"):
            spin.ode_trajectory(t, UPPER, cfg_at(1.0, math.pi / 4))

    def test_huge_time_meets_the_step_budget(self, monkeypatch):
        # 1e308 s overflows the step count to inf, which the budget names
        monkeypatch.setattr(kernels, "spin_rk4", None)
        with pytest.raises(ValueError, match="needs inf steps, above the budget of 10000000"):
            spin.ode_trajectory(1e308, UPPER, cfg_at(1.0, math.pi / 4))

    def test_kernel_agrees_with_generic_integrator(self):
        cfg = cfg_at(0.7, math.pi / 3)
        w, w0, a = cfg.omega, cfg.omega0, cfg.alpha

        def rhs(t, y):
            off = math.sin(a) * np.exp(-1j * w * t)
            return -0.5j * w0 * np.array(
                [math.cos(a) * y[0] + off * y[1],
                 np.conj(off) * y[0] - math.cos(a) * y[1]]
            )

        t = cfg.drive_period
        y0 = np.array([math.cos(a / 2), math.sin(a / 2)])
        generic, _ = ode_evolve(rhs, y0, t, spin.RK4_STEPS_PER_PERIOD)
        _, kernel, _ = spin.ode_trajectory(t, UPPER, cfg, samples=1)
        np.testing.assert_allclose(kernel[-1], generic, atol=1e-12)


def bits(x):
    """The raw bits of a float or complex array, so equality is bit for bit."""
    return np.asarray(x).view(np.uint64)


def complex_closed_form(t, branch, cfg):
    """The exact state at one time in Python complex arithmetic, and the
    real initial eigenstate: the per-time reference of the array form."""
    lam, w, w0 = cfg.rabi_lambda, cfg.omega, cfg.omega0
    c = math.cos(0.5 * lam * t)
    s = 0.5 * t if lam == 0.0 else math.sin(0.5 * (lam * t)) / lam
    ch, sh = math.cos(0.5 * cfg.alpha), math.sin(0.5 * cfg.alpha)
    rot = complex(math.cos(0.5 * w * t), -math.sin(0.5 * w * t))
    if branch == UPPER:
        up = (c - 1j * (w0 - w) * s) * ch * rot
        return (up, (c - 1j * (w0 + w) * s) * sh * rot.conjugate()), (ch, sh)
    up = (c + 1j * (w0 + w) * s) * sh * rot
    return (up, -(c + 1j * (w0 - w) * s) * ch * rot.conjugate()), (sh, -ch)


class TestClosedFormOnArrays:
    # lambda == 0 (alpha = 0 at resonance) takes sin(lam t/2)/lam = t/2
    CONFIGS = [RotorConfig(alpha=0.0), cfg_at(1.0, math.pi / 4), cfg_at(0.07, 3.0),
               cfg_at(13.0, 0.2)]

    @pytest.mark.parametrize("branch", [UPPER, LOWER])
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_array_t_gives_the_scalar_values_bit_for_bit(self, branch, cfg):
        t = np.random.default_rng(3).uniform(0.0, 3.0, (3, 4)) * cfg.drive_period
        t[0, 0] = 0.0
        psi = evolve_closed_form(t, branch, cfg)
        rho = return_probability(t, branch, cfg)
        gap = branch_gap(t, cfg)
        assert psi.shape == (3, 4, 2) and psi.dtype == complex
        assert rho.shape == (3, 4) and gap.shape == (3, 4)
        scalar = [float(x) for x in t.ravel()]
        np.testing.assert_array_equal(
            bits(psi.reshape(-1, 2)),
            bits([evolve_closed_form(x, branch, cfg) for x in scalar]),
        )
        np.testing.assert_array_equal(
            bits(rho.ravel()), bits([return_probability(x, branch, cfg) for x in scalar])
        )
        np.testing.assert_array_equal(
            bits(gap.ravel()), bits([branch_gap(x, cfg) for x in scalar])
        )

    @settings(max_examples=200, deadline=None)
    @given(alpha=angles, ratio=ratios, frac=st.floats(0.0, 3.0),
           branch=st.sampled_from([UPPER, LOWER]))
    def test_same_doubles_as_complex_arithmetic(self, alpha, ratio, frac, branch):
        # == rather than bits: the two forms may differ in the sign of a zero
        cfg = cfg_at(ratio, alpha)
        t = frac * cfg.drive_period
        (up, down), (a0, a1) = complex_closed_form(t, branch, cfg)
        np.testing.assert_array_equal(evolve_closed_form(t, branch, cfg), [up, down])
        overlap = up.conjugate() * a0 + down.conjugate() * a1
        assert return_probability(t, branch, cfg) == abs(overlap) ** 2

    @pytest.mark.parametrize("branch", [UPPER, LOWER])
    def test_array_configs_give_the_scalar_values_bit_for_bit(self, branch):
        # one configuration per draw, each at its own t and at (t, period)
        # broadcast over a leading axis; alpha = 0 at ratio 1 has lam == 0
        rng = np.random.default_rng(5)
        alpha = np.append(rng.uniform(0.0, math.pi, 40), [0.0, math.pi])
        ratio = np.append(rng.uniform(0.05, 20.0, 40), [1.0, 0.3])
        cfg = RotorConfig.at_ratio(ratio, alpha=alpha)
        t = rng.uniform(0.0, 3.0, 42) * cfg.drive_period
        both = np.stack((t, cfg.drive_period))
        psi, rho = evolve_closed_form(t, branch, cfg), return_probability(both, branch, cfg)
        assert psi.shape == (42, 2) and rho.shape == (2, 42)
        configs = [cfg_at(r, a) for r, a in zip(ratio.tolist(), alpha.tolist())]
        np.testing.assert_array_equal(
            bits(psi), bits([evolve_closed_form(x, branch, c) for x, c in zip(t, configs)])
        )
        np.testing.assert_array_equal(bits(rho), bits([
            [return_probability(x, branch, c) for x, c in zip(row, configs)] for row in both
        ]))

    def test_array_configs_check_each_time(self):
        cfg = RotorConfig.at_ratio(np.array([1.0, 1e10]), alpha=0.5)
        message = r"t = 1e\+290 s overflows the phase 1.72\d+e\+21 rad/s \* t"
        with pytest.raises(ValueError, match=message):
            return_probability(np.array([1e290, 1e290]), UPPER, cfg)
        with pytest.raises(ValueError, match="t must be finite and non-negative, got -1.0"):
            return_probability(np.array([[0.0, 1.0], [2.0, -1.0]]), LOWER, cfg)

    def test_float_t_gives_floats_and_one_state(self):
        cfg = cfg_at(1.3, 0.4)
        assert evolve_closed_form(0.3 * cfg.drive_period, UPPER, cfg).shape == (2,)
        assert type(return_probability(0.3 * cfg.drive_period, UPPER, cfg)) is float
        assert type(branch_gap(1e-12, cfg)) is float
        assert evolve_closed_form(np.empty(0), LOWER, cfg).shape == (0, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, cfg: evolve_closed_form(t, UPPER, cfg),
            lambda t, cfg: return_probability(t, LOWER, cfg),
            branch_gap,
        ],
        ids=["evolve_closed_form", "return_probability", "branch_symmetry_gap"],
    )
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_time_must_be_finite_and_non_negative(self, call, t):
        # nan once came back as a nan probability, inf as "math domain error"
        cfg = cfg_at(1.0, math.pi / 4)
        for arg in (t, np.array([0.0, t])):
            with pytest.raises(ValueError, match=f"t must be finite and non-negative, got {t}"):
                call(arg, cfg)

    @pytest.mark.parametrize("branch", [UPPER, LOWER])
    def test_time_whose_phase_overflows_is_named(self, branch):
        cfg = cfg_at(1.0, math.pi / 4)
        message = r"t = 1e\+300 s overflows the phase 1.72\d+e\+11 rad/s \* t"
        with pytest.raises(ValueError, match=message):
            return_probability(np.array([0.0, 1e300]), branch, cfg)
        # a phase of 1.7e301 rad is still a phase
        assert 0.0 <= return_probability(1e290, branch, cfg) <= 1.0


class TestReturnProbability:
    def test_starts_at_one(self):
        assert return_probability(0.0, UPPER, cfg_at(1.0, math.pi / 4)) == 1.0

    @pytest.mark.parametrize("frac", [0.1, 0.5, 2.3])
    def test_aligned_field_never_leaves(self, frac):
        cfg = RotorConfig.at_ratio(3.7, alpha=0.0)
        assert return_probability(frac * cfg.drive_period, UPPER, cfg) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_ode_overlap(self):
        cfg = cfg_at(1.0, math.pi / 4)
        t = cfg.drive_period
        initial, _, _, _ = instantaneous_eigenstates(0.0, cfg)
        state = spin.ode_trajectory(t, UPPER, cfg, samples=1)[1][-1]
        amp = np.vdot(state, initial)
        assert return_probability(t, UPPER, cfg) == pytest.approx(abs(amp) ** 2, abs=1e-8)

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = cfg_at(rng.uniform(0.05, 20), rng.uniform(0, math.pi))
            p = return_probability(rng.uniform(0, 3) * cfg.drive_period, UPPER, cfg)
            assert 0.0 <= p <= 1.0 + 1e-12


class TestCycleProbability:
    def test_aligned_field(self):
        for ratio in (0.3, 1.0, 4.2):
            cfg = RotorConfig.at_ratio(ratio, alpha=0.0)
            assert return_probability_cycle(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_resonant_quarter_cone(self):
        value = return_probability_cycle(RotorConfig.at_ratio(1.0, alpha=math.pi / 4))
        assert value == pytest.approx(RHO_CYCLE_RESONANT, abs=1e-12)
        assert value == pytest.approx(0.6149, abs=1e-3)

    def test_array_config_gives_the_scalar_values_bit_for_bit(self):
        rng = np.random.default_rng(9)
        alpha = np.append(rng.uniform(0.0, math.pi, 300), [0.0, math.pi / 4])
        ratio = np.append(rng.uniform(0.05, 20.0, 300), [1.0, 1.0])
        rho = return_probability_cycle(RotorConfig.at_ratio(ratio, alpha=alpha))
        assert rho.shape == (302,) and rho[-2] == 1.0
        want = [return_probability_cycle(cfg_at(r, a)) for r, a in zip(ratio, alpha)]
        np.testing.assert_array_equal(bits(rho), bits(want))
        # one angle against many ratios, and a 2-D grid of both
        np.testing.assert_array_equal(
            bits(return_probability_cycle(RotorConfig.at_ratio(ratio, alpha=0.7))),
            bits([return_probability_cycle(cfg_at(r, 0.7)) for r in ratio]),
        )
        grid = return_probability_cycle(
            RotorConfig.at_ratio(ratio[:5], alpha=alpha[:3, None])
        )
        assert grid.shape == (3, 5)
        assert grid[2, 4] == return_probability_cycle(cfg_at(ratio[4], alpha[2]))

    def test_fast_drive_nearly_frozen(self):
        cfg = RotorConfig.at_ratio(15.0, alpha=math.pi / 4)
        assert return_probability_cycle(cfg) >= 0.98

    @settings(max_examples=80, deadline=None)
    @given(alpha=angles, ratio=ratios)
    def test_consistent_with_time_domain_form(self, alpha, ratio):
        cfg = cfg_at(ratio, alpha)
        lhs = return_probability(cfg.drive_period, UPPER, cfg)
        rhs = return_probability_cycle(cfg)
        assert abs(lhs - rhs) <= 1e-12


class TestBranchSymmetry:
    def test_t0(self):
        cfg = cfg_at(1.0, math.pi / 4)
        assert return_probability(0.0, UPPER, cfg) == return_probability(0.0, LOWER, cfg) == 1.0

    def test_resonant_half_cycle(self):
        cfg = cfg_at(1.0, math.pi / 4)
        assert branch_gap(0.5 * cfg.drive_period, cfg) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(alpha=angles, ratio=ratios, frac=phases)
    def test_random_draws(self, alpha, ratio, frac):
        cfg = cfg_at(ratio, alpha)
        assert branch_gap(frac * cfg.drive_period, cfg) <= 1e-12


class TestOmegaScan:
    def test_aligned_curve_is_flat_one(self):
        _, (curve,) = omega_scan(0.05, 20.0, 501, [0.0])
        assert np.all(np.abs(curve - 1.0) <= 1e-12)

    def test_quarter_cone_shape(self):
        ratios, (curve,) = omega_scan(0.05, 20.0, 2001, [math.pi / 4])
        low = curve[ratios <= 1.4]
        assert np.any(np.diff(low) < 0.0) and np.any(np.diff(low) > 0.0)
        high = curve[ratios >= 1.45]
        assert np.all(np.diff(high) >= 0.0)

    def test_all_cones_frozen_by_fifteen(self):
        alphas = [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3]
        ratios, curves = omega_scan(0.05, 20.0, 400, alphas)
        assert curves.shape == (4, 400)
        idx = int(np.argmin(np.abs(ratios - 15.0)))
        for curve in curves:
            assert curve[idx] >= 0.98

    def test_rows_in_grid_order(self):
        ratios, _ = omega_scan(0.5, 2.0, 16, [1.0])
        assert np.all(np.diff(ratios) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            omega_scan(2.0, 1.0, 10, [0.5])
        with pytest.raises(ValueError):
            omega_scan(0.5, 2.0, 1, [0.5])
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi\], got 3.2"):
            omega_scan(0.5, 2.0, 10, [0.5, 3.2])

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.nan, 2.0)])
    def test_validation_rejects_non_finite(self, bounds):
        # an infinite bound used to return nan/inf ratios and probabilities
        with pytest.raises(ValueError, match=rf"got \[{bounds[0]}, {bounds[1]}\]"):
            omega_scan(*bounds, 3, [0.5])

    def test_validation_rejects_huge_ratios(self):
        # (x - 1)^2 overflowed past sqrt(DBL_MAX): nan rows with warnings
        with pytest.raises(ValueError, match=r"<= 1e\+150, got \[1.0, 1e\+308\]"):
            omega_scan(1.0, 1e308, 3, [0.5])
        _, curves = omega_scan(1e100, 1e150, 3, [0.5])
        assert np.all(np.isfinite(curves))

    def test_validation_rejects_tiny_ratios(self):
        # below 1e-150 the grid once reached subnormals and wrote nan rows
        with pytest.raises(ValueError, match=r"need 1e-150 <= ratio_min .* got \[1e-320, 1e-300\]"):
            omega_scan(1e-320, 1e-300, 3, [0.5])
        _, curves = omega_scan(1e-150, 1e-149, 3, [0.5])
        assert np.all(np.isfinite(curves))


class TestThreshold:
    def test_aligned_field_frozen_from_start(self):
        monotone, frozen, _ = anti_adiabatic_threshold(0.05, 0.0)
        assert monotone == spin.DEFAULT_RATIO_RANGE[0]
        assert frozen == spin.DEFAULT_RATIO_RANGE[0]

    def test_quarter_cone_onsets(self):
        monotone, frozen, _ = anti_adiabatic_threshold(0.02, math.pi / 4)
        assert monotone == pytest.approx(1.442, abs=0.05)
        assert frozen <= 15.0

    @pytest.mark.parametrize(
        "alpha", [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3]
    )
    def test_monotone_onset_tracks_cone_angle(self, alpha):
        # the cycle curve's last local minimum sits at drive ratio 1/cos(alpha);
        # the grid-resolved onset lands within one grid spacing of it
        monotone = anti_adiabatic_threshold(0.02, alpha)[0]
        assert monotone == pytest.approx(1.0 / math.cos(alpha), abs=3e-3)

    def test_not_found_carries_scan_maximum(self):
        _, frozen, max_rho1 = anti_adiabatic_threshold(
            1e-3, math.pi / 4, ratio_min=0.05, ratio_max=0.5, points=200
        )
        assert math.isnan(frozen)
        # the curve ends below 1 - epsilon; the result still records the best
        assert 0.0 < max_rho1 <= 1.0 + 1e-12

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            anti_adiabatic_threshold(0.0)


class TestHighFrequencyLimit:
    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3])
    def test_probability_deficit_shrinks_quadratically(self, alpha):
        for ratio in (50.0, 80.0, 120.0):
            rho = return_probability_cycle(RotorConfig.at_ratio(ratio, alpha=alpha))
            assert rho >= 1.0 - 10.0 / ratio**2
