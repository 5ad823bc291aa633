import dataclasses
import math
import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quenchkit import kernels, spin
from quenchkit.numerics import ode_evolve
from quenchkit.spin import (
    LOWER,
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
    return RotorConfig(alpha=alpha, ratio=ratio)


def branch_gap(t, cfg):
    """|upper - lower| return probability at ``t``: rounding only."""
    return abs(return_probability(t, UPPER, cfg) - return_probability(t, LOWER, cfg))


class TestConfig:
    def test_fields_are_the_angle_and_the_drive_ratio(self):
        # Larmor units: the spin tables depend on alpha and omega / omega0 only
        assert [f.name for f in dataclasses.fields(RotorConfig)] == ["alpha", "ratio"]
        cfg = RotorConfig(alpha=math.pi / 6, ratio=2.5)
        assert (cfg.alpha, cfg.ratio, cfg.drive_period) == (math.pi / 6, 2.5, 2.0 * math.pi / 2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RotorConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            RotorConfig(ratio=0.0)

    @pytest.mark.parametrize("name", ["ratio"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_validation_rejects_non_finite(self, name, value):
        message = f"drive ratio omega / omega0 must be at most 1e\\+150, got {value}"
        with pytest.raises(ValueError, match=message):
            RotorConfig(**{name: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ratio": [1.0, -2.0, 0.0]},
             "drive ratio omega / omega0 must be at least 1e-150, got -2"),
            ({"ratio": [1.0, math.nan, math.inf]},
             r"drive ratio omega / omega0 must be at most 1e\+150, got nan"),
            ({"alpha": [0.5, math.pi, 4.0, -1.0]}, r"alpha must lie in \[0, pi\], got 4.0"),
            ({"ratio": [1.0, 1e160, 1e200]},
             r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+160"),
            ({"ratio": [[1.0], [1e-310]]},
             "drive ratio omega / omega0 must be at least 1e-150, got 1e-310"),
            ({"ratio": [1.0, 1e150, 1.0000000000000002e150]},
             r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+150"),
        ],
    )
    def test_arrays_name_their_first_bad_element(self, kwargs, message):
        kwargs = {k: np.array(v) for k, v in kwargs.items()}
        with pytest.raises(ValueError, match=message):
            RotorConfig(**kwargs)

    def test_array_fields_broadcast_and_keep_float_fields_float(self):
        cfg = RotorConfig(alpha=np.array([[0.1], [0.2]]), ratio=np.array([0.5, 1.0, 2.0]))
        assert cfg.rabi_lambda.shape == (2, 3) and cfg.drive_period.shape == (3,)
        one = cfg_at(1.3, 0.4)
        assert type(one.rabi_lambda) is float and type(one.drive_period) is float
        with pytest.raises(ValueError, match="shape mismatch"):
            RotorConfig(alpha=np.array([0.1, 0.2]), ratio=np.ones(3))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # (omega - omega0) ** 2 in rabi_lambda raised OverflowError here
            ({"ratio": 1e200}, r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+200"),
            ({"ratio": 1.0000000000000002e150},
             r"drive ratio omega / omega0 must be at most 1e\+150, got 1e\+150"),
        ],
    )
    def test_frequencies_bounded_so_squares_stay_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RotorConfig(**kwargs)

    def test_largest_accepted_drive_has_finite_precession_rate(self):
        assert math.isfinite(RotorConfig(ratio=kernels.MAX_RATIO).rabi_lambda)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # 1e-310 * omega0 once went on to a nan row or "math domain error"
            ({"ratio": 1e-310}, r"drive ratio omega / omega0 must be at least 1e-150, got 1e-310"),
        ],
    )
    def test_tiny_frequencies_name_the_offending_value(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RotorConfig(**kwargs)

    @settings(max_examples=60, deadline=None)
    @given(alpha=angles, ratio=ratios)
    def test_rabi_rate_triangle_bounds(self, alpha, ratio):
        cfg = cfg_at(ratio, alpha)
        lam = cfg.rabi_lambda
        assert abs(cfg.ratio - 1.0) <= lam * (1 + 1e-12)
        assert lam <= (cfg.ratio + 1.0) * (1 + 1e-12)

    def test_rabi_rate_stable_near_degeneracy(self):
        # naive w^2 + w0^2 - 2 w w0 cos(a) cancels catastrophically here
        cfg = cfg_at(1.0 + 1e-9, 1e-9)
        gap = abs(cfg.ratio - 1.0)
        assert gap <= cfg.rabi_lambda <= gap * 1.5 + 2e-9


class TestHamiltonian:
    def test_aligned_field_is_diagonal(self):
        cfg = RotorConfig(alpha=0.0)
        h = hamiltonian(0.7, cfg)
        np.testing.assert_array_equal(h, np.diag([0.5, -0.5]).astype(complex))

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
            assert (e_up, e_dn) == (0.5, -0.5)
            for state, e in ((upper, e_up), (lower, e_dn)):
                residual = h @ state - e * state
                assert np.max(np.abs(residual)) / e_up <= 1e-12


class TestEigenstates:
    def test_aligned_field(self):
        upper, lower, e_up, e_dn = instantaneous_eigenstates(0.3, RotorConfig(alpha=0.0))
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
        assert up == pytest.approx(np.exp(-0.5j * cfg.ratio * t), abs=1e-12)
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
        # at least 600 steps per Larmor period: ratio 1e-9 would take 6e11.
        # At 1e-150 the count once printed as a 153-digit integer.
        def no_stepping(*args):
            raise AssertionError("stepped past the budget")

        monkeypatch.setattr(kernels, "spin_rk4", no_stepping)
        for ratio, steps in (("1e-09", "6e+11"), ("1e-150", "6e+152")):
            cfg = cfg_at(float(ratio), math.pi / 4)
            with pytest.raises(ValueError) as info:
                spin.ode_trajectory(cfg.drive_period, UPPER, cfg)
            assert f"ratio omega / omega0 = {ratio} needs {steps} steps" in str(info.value)
            assert len(str(info.value)) < 150

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
        w, a = cfg.ratio, cfg.alpha

        def rhs(t, y):
            off = math.sin(a) * np.exp(-1j * w * t)
            return -0.5j * np.array(
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
    lam, w, w0 = cfg.rabi_lambda, cfg.ratio, 1.0
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
        # the squares on a and on its orthogonal partner (a1, -a0)
        stay = abs(up.conjugate() * a0 + down.conjugate() * a1) ** 2
        leave = abs(up.conjugate() * a1 - down.conjugate() * a0) ** 2
        assert return_probability(t, branch, cfg) == stay / (stay + leave)

    @pytest.mark.parametrize("branch", [UPPER, LOWER])
    def test_array_configs_give_the_scalar_values_bit_for_bit(self, branch):
        # one configuration per draw, each at its own t and at (t, period)
        # broadcast over a leading axis; alpha = 0 at ratio 1 has lam == 0
        rng = np.random.default_rng(5)
        alpha = np.append(rng.uniform(0.0, math.pi, 40), [0.0, math.pi])
        ratio = np.append(rng.uniform(0.05, 20.0, 40), [1.0, 0.3])
        cfg = RotorConfig(alpha=alpha, ratio=ratio)
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
        cfg = RotorConfig(alpha=0.5, ratio=np.array([1.0, 1e10]))
        message = r"t = 1e\+300 overflows the phase 1e\+10 \* t"
        with pytest.raises(ValueError, match=message):
            return_probability(np.array([1e300, 1e300]), UPPER, cfg)
        with pytest.raises(ValueError, match="t must be finite and non-negative, got -1.0"):
            return_probability(np.array([[0.0, 1.0], [2.0, -1.0]]), LOWER, cfg)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("ode_trajectory", lambda cfg: spin.ode_trajectory(1e-12, UPPER, cfg)),
            ("instantaneous_eigenstates", lambda cfg: instantaneous_eigenstates(0.0, cfg)),
            ("hamiltonian", lambda cfg: hamiltonian(0.0, cfg)),
        ],
        ids=["ode_trajectory", "instantaneous_eigenstates", "hamiltonian"],
    )
    @pytest.mark.parametrize(
        "cfg, shape",
        [
            (RotorConfig(ratio=np.array([1.0, 2.0])), (2,)),
            (RotorConfig(alpha=np.array([[0.1], [0.2]]), ratio=np.ones(3)), (2, 3)),
        ],
        ids=["ratios", "grid"],
    )
    def test_one_configuration_functions_refuse_arrays(self, name, call, cfg, shape):
        # numpy's own errors named neither the function nor the shape
        message = f"{name} takes one configuration, got an array of shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(cfg)

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
        cfg = cfg_at(1e10, math.pi / 4)
        message = r"t = 1e\+300 overflows the phase 1e\+10 \* t"
        with pytest.raises(ValueError, match=message):
            return_probability(np.array([0.0, 1e300]), branch, cfg)
        # a phase of 1e300 is still a phase
        assert 0.0 <= return_probability(1e290, branch, cfg) <= 1.0
        # below a rate of 1 no finite t overflows: the largest double is a
        # time, and its bound DBL_MAX / rate raises no overflow warning
        slow = cfg_at(0.3, 0.0)  # rates 0.3 and 0.7
        rho = return_probability(np.array([0.0, sys.float_info.max]), branch, slow)
        assert np.all((0.0 <= rho) & (rho <= 1.0))


class TestReturnProbability:
    def test_starts_at_one(self):
        assert return_probability(0.0, UPPER, cfg_at(1.0, math.pi / 4)) == 1.0

    @pytest.mark.parametrize("frac", [0.1, 0.5, 2.3])
    def test_aligned_field_never_leaves(self, frac):
        cfg = RotorConfig(alpha=0.0, ratio=3.7)
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
            assert 0.0 <= p <= 1.0


class TestCycleProbability:
    def test_aligned_field(self):
        for ratio in (0.3, 1.0, 4.2):
            cfg = RotorConfig(alpha=0.0, ratio=ratio)
            assert return_probability_cycle(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_resonant_quarter_cone(self):
        value = return_probability_cycle(RotorConfig(alpha=math.pi / 4, ratio=1.0))
        assert value == pytest.approx(RHO_CYCLE_RESONANT, abs=1e-12)
        assert value == pytest.approx(0.6149, abs=1e-3)

    def test_array_config_gives_the_scalar_values_bit_for_bit(self):
        rng = np.random.default_rng(9)
        alpha = np.append(rng.uniform(0.0, math.pi, 300), [0.0, math.pi / 4])
        ratio = np.append(rng.uniform(0.05, 20.0, 300), [1.0, 1.0])
        rho = return_probability_cycle(RotorConfig(alpha=alpha, ratio=ratio))
        assert rho.shape == (302,) and rho[-2] == 1.0
        want = [return_probability_cycle(cfg_at(r, a)) for r, a in zip(ratio, alpha)]
        np.testing.assert_array_equal(bits(rho), bits(want))
        # one angle against many ratios, and a 2-D grid of both
        np.testing.assert_array_equal(
            bits(return_probability_cycle(RotorConfig(alpha=0.7, ratio=ratio))),
            bits([return_probability_cycle(cfg_at(r, 0.7)) for r in ratio]),
        )
        grid = return_probability_cycle(
            RotorConfig(alpha=alpha[:3, None], ratio=ratio[:5])
        )
        assert grid.shape == (3, 5)
        assert grid[2, 4] == return_probability_cycle(cfg_at(ratio[4], alpha[2]))

    def test_fast_drive_nearly_frozen(self):
        cfg = RotorConfig(alpha=math.pi / 4, ratio=15.0)
        assert return_probability_cycle(cfg) >= 0.98

    @settings(max_examples=80, deadline=None)
    @given(alpha=angles, ratio=ratios)
    def test_consistent_with_time_domain_form(self, alpha, ratio):
        cfg = cfg_at(ratio, alpha)
        lhs = return_probability(cfg.drive_period, UPPER, cfg)
        rhs = return_probability_cycle(cfg)
        assert abs(lhs - rhs) <= 1e-12


# Where rounding pushes a probability past its bounds: no drive at alpha = 0
# and pi and their neighbouring doubles (rho = 1 at every ratio), and pi/6,
# where the single-cycle curve touches 0 at x = sec(pi/6).
edge_angles = st.sampled_from([
    0.0, math.ulp(0.0), 2.0 * math.ulp(0.0), math.pi, math.nextafter(math.pi, 0.0),
    math.nextafter(math.nextafter(math.pi, 0.0), 0.0), math.pi / 6,
    math.nextafter(math.pi / 6, 0.0), math.nextafter(math.pi / 6, 1.0),
])


class TestProbabilityBounds:
    @settings(max_examples=200, deadline=None)
    @given(alpha=edge_angles, step=st.integers(-2**40, 2**40), frac=phases)
    def test_both_forms_lie_in_the_unit_interval(self, alpha, step, frac):
        # 64 ratios a few ulps apart, near |sec(alpha)|, at 64 times
        ratio = abs(1.0 / math.cos(alpha)) * (1.0 + (step + np.arange(64.0)) * 2.0**-52)
        cfg = RotorConfig(alpha=alpha, ratio=ratio)
        times = (frac + np.arange(64.0) / 16.0) * cfg.drive_period
        for rho in (
            return_probability_cycle(cfg),
            return_probability(times, UPPER, cfg),
            return_probability(times, LOWER, cfg),
        ):
            assert np.all((0.0 <= rho) & (rho <= 1.0)), rho


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


def _scan(ratio_min, ratio_max, points, alphas):
    """`omega_scan`'s blocks joined: the ratios and one curve per angle,
    shape ``(len(alphas), points)``."""
    table = np.concatenate(list(omega_scan(ratio_min, ratio_max, points, alphas)))
    return table[:points, -2], table[:, -1].reshape(len(alphas), points)


class TestOmegaScan:
    def test_aligned_curve_is_flat_one(self):
        _, (curve,) = _scan(0.05, 20.0, 501, [0.0])
        assert np.all(curve == 1.0)

    def test_quarter_cone_shape(self):
        ratios, (curve,) = _scan(0.05, 20.0, 2001, [math.pi / 4])
        low = curve[ratios <= 1.4]
        assert np.any(np.diff(low) < 0.0) and np.any(np.diff(low) > 0.0)
        high = curve[ratios >= 1.45]
        assert np.all(np.diff(high) >= 0.0)

    def test_all_cones_frozen_by_fifteen(self):
        alphas = [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3]
        ratios, curves = _scan(0.05, 20.0, 400, alphas)
        assert curves.shape == (4, 400)
        idx = int(np.argmin(np.abs(ratios - 15.0)))
        for curve in curves:
            assert curve[idx] >= 0.98

    def test_rows_in_grid_order(self):
        ratios, _ = _scan(0.5, 2.0, 16, [1.0])
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
        _, curves = _scan(1e100, 1e150, 3, [0.5])
        assert np.all(np.isfinite(curves))

    def test_validation_rejects_tiny_ratios(self):
        # below 1e-150 the grid once reached subnormals and wrote nan rows
        with pytest.raises(ValueError, match=r"need 1e-150 <= ratio_min .* got \[1e-320, 1e-300\]"):
            omega_scan(1e-320, 1e-300, 3, [0.5])
        _, curves = _scan(1e-150, 1e-149, 3, [0.5])
        assert np.all(np.isfinite(curves))


def _few_ulps(lo, n=4):
    hi = lo
    for _ in range(n):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


class TestLinspaceBlocks:
    # the ratio column of `spin omega-scan` is compared with np.linspace bit
    # for bit, so the blocks must hold its doubles, not merely close ones
    @pytest.mark.parametrize("points", [
        2, 3, spin.OMEGA_BLOCK - 1, spin.OMEGA_BLOCK, spin.OMEGA_BLOCK + 1,
        2 * spin.OMEGA_BLOCK + 1,
    ])
    @pytest.mark.parametrize("bounds", [
        (0.05, 5.0), (1e-150, 1e150), (1e14, 2e14), (0.0, 1.0), _few_ulps(1.0), _few_ulps(1e-150),
    ], ids=["default", "widest", "ties", "fractions", "few ulps", "few ulps at 1e-150"])
    def test_blocks_are_linspace(self, bounds, points):
        blocks = list(spin.linspace_blocks(*bounds, points, spin.OMEGA_BLOCK))
        assert [len(b) for b in blocks[:-1]] == [spin.OMEGA_BLOCK] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= spin.OMEGA_BLOCK
        np.testing.assert_array_equal(
            np.concatenate(blocks).view(np.uint64), np.linspace(*bounds, points).view(np.uint64))

    def test_no_block_is_kept_once_yielded(self):
        # `spin omega-scan` frees each grid block before it writes the rows
        blocks = spin.linspace_blocks(0.05, 5.0, 10, 4)
        first = next(blocks)
        ref = weakref.ref(first)
        del first
        assert ref() is None
        assert len(next(blocks)) == 4

    @given(st.floats(1e-150, 1e150), st.floats(1e-150, 1e150),
           st.integers(1, 100), st.integers(0, 300))
    @settings(max_examples=300, deadline=None)
    def test_blocks_are_linspace_over_accepted_ranges(self, a, b, block, extra):
        lo, hi = sorted((a, b))
        assume(lo < hi)
        points = 2 + extra % (3 * block - 1)  # 2 to 3 blocks
        blocks = np.concatenate(list(spin.linspace_blocks(lo, hi, points, block)))
        np.testing.assert_array_equal(
            blocks.view(np.uint64), np.linspace(lo, hi, points).view(np.uint64))


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
        assert 0.0 < max_rho1 <= 1.0

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            anti_adiabatic_threshold(0.0)

    @staticmethod
    def whole_curve(epsilon, alpha, ratio_min, ratio_max, points):
        # the onsets read off the whole curve at once, as the fold over
        # omega_scan's blocks must reproduce them
        ratios = np.linspace(ratio_min, ratio_max, points)
        rho = kernels.cycle_return_curve(ratios, alpha)
        decreases = np.flatnonzero(np.diff(rho) < -1e-13)
        monotone = float(ratios[decreases[-1] + 1]) if decreases.size else float(ratios[0])
        below = np.flatnonzero(rho < 1.0 - epsilon)
        if below.size == 0:
            frozen = float(ratios[0])
        elif below[-1] == points - 1:
            frozen = math.nan
        else:
            frozen = float(ratios[below[-1] + 1])
        return monotone, frozen, float(rho.max())

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_block_size_does_not_change_the_result(self, block, monkeypatch):
        # with blocks this small every dip and every low lands on a block
        # edge somewhere, so each carry across an edge is exercised
        cases = [
            (0.05, 0.0, 0.05, 20.0, 100),  # no low: frozen is the first ratio
            (1e-3, math.pi / 4, 0.05, 0.5, 200),  # low at the last point: nan
            (0.02, math.pi / 4, 0.05, 20.0, 2),
        ]
        rng = np.random.default_rng(20261019 + block)
        for _ in range(25):
            lo = float(rng.uniform(0.05, 5.0))
            cases.append((
                float(10.0 ** rng.uniform(-3.0, -0.5)), float(rng.uniform(0.0, math.pi)),
                lo, lo + float(rng.uniform(0.1, 20.0)), int(rng.integers(2, 300)),
            ))
        monkeypatch.setattr(spin, "OMEGA_BLOCK", block)
        for case in cases:
            want = self.whole_curve(*case)
            got = anti_adiabatic_threshold(*case)
            assert np.array(got).view(np.uint64).tolist() == (
                np.array(want).view(np.uint64).tolist()), case
        assert self.whole_curve(*cases[0])[1] == 0.05
        assert math.isnan(self.whole_curve(*cases[1])[1])


class TestHighFrequencyLimit:
    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3])
    def test_probability_deficit_shrinks_quadratically(self, alpha):
        for ratio in (50.0, 80.0, 120.0):
            rho = return_probability_cycle(RotorConfig(alpha=alpha, ratio=ratio))
            assert rho >= 1.0 - 10.0 / ratio**2
