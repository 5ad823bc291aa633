"""Kernel checks: numba twins reproduce the NumPy path, and the RK4
propagator agrees with the generic integrator in `numerics`."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quenchkit import kernels
from quenchkit.numerics import OdeSpec, ode_evolve

needs_numba = pytest.mark.skipif(
    not kernels.NUMBA_AVAILABLE, reason="numba not installed"
)

GAMMAS = [0.1, 0.5, 0.999999999, 1.0, 1.5, 2.0, 3.0 + 1e-12, 4.9, 10.1]


@needs_numba
@pytest.mark.parametrize("gamma", GAMMAS)
def test_expansion_coefficients_backends_agree(gamma):
    impls = kernels.numba_impls()
    a = impls["expansion_coefficients"](gamma, 50, 1e-9)
    b = kernels.NUMPY_IMPLS["expansion_coefficients"](gamma, 50, 1e-9)
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)


@needs_numba
@pytest.mark.parametrize("alpha", [0.0, math.pi / 4, math.pi / 2])
def test_cycle_curve_backends_agree(alpha):
    ratios = np.linspace(0.05, 20.0, 500)
    impls = kernels.numba_impls()
    a = impls["cycle_return_curve"](ratios, alpha)
    b = kernels.NUMPY_IMPLS["cycle_return_curve"](ratios, alpha)
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)


def test_numpy_rk4_preserves_norm():
    alpha, omega = math.pi / 3, 1.0
    up0, dn0 = complex(math.cos(alpha / 2)), complex(math.sin(alpha / 2))
    states, drift = kernels.NUMPY_IMPLS["spin_rk4"](
        alpha, omega, 1.0, 2 * math.pi, 2000, up0, dn0, 2000
    )
    assert drift <= 1e-10
    assert abs(np.linalg.norm(states[-1]) - 1.0) <= 1e-10


def rotating_field_rhs(alpha, omega, omega0):
    # the generator written out independently of the kernel
    def rhs(t, y):
        off = math.sin(alpha) * np.exp(-1j * omega * t)
        return -0.5j * omega0 * np.array(
            [math.cos(alpha) * y[0] + off * y[1],
             np.conj(off) * y[0] - math.cos(alpha) * y[1]]
        )

    return rhs


@pytest.mark.parametrize("ratio, alpha", [(0.3, math.pi / 12), (1.442, math.pi / 3)])
def test_rk4_matches_generic_integrator_at_1e4_steps(ratio, alpha):
    omega0 = 1.72e11
    omega = ratio * omega0
    t = 2 * math.pi / omega
    y0 = np.array([math.cos(alpha / 2), math.sin(alpha / 2)], dtype=complex)
    generic = ode_evolve(rotating_field_rhs(alpha, omega, omega0), y0, t, OdeSpec(10_000))
    states, drift = kernels.spin_rk4(alpha, omega, omega0, t, 10_000, y0[0], y0[1], 10_000)
    np.testing.assert_allclose(states[-1], generic.state, rtol=0.0, atol=1e-13)
    assert drift <= 1e-13


def test_rk4_blocks_do_not_change_the_trajectory(monkeypatch):
    # twelve periods: one block, then blocks whose edges fall mid-period
    alpha, omega, omega0 = math.pi / 4, 2.0, 1.0
    up0, dn0 = complex(math.cos(alpha / 2)), complex(math.sin(alpha / 2))
    args = (alpha, omega, omega0, 12 * 2 * math.pi / omega, 12_000, up0, dn0, 1000)
    monkeypatch.setattr(kernels, "RK4_BLOCK", 12_000)
    whole, whole_drift = kernels.spin_rk4(*args)
    monkeypatch.setattr(kernels, "RK4_BLOCK", 777)
    blocked, blocked_drift = kernels.spin_rk4(*args)
    np.testing.assert_array_equal(blocked, whole)
    assert blocked_drift == whole_drift
    assert whole_drift <= 1e-13


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, QUENCHKIT_NO_NUMBA="1")
    code = (
        "from quenchkit import kernels, well\n"
        "assert kernels.BACKEND == 'numpy', kernels.BACKEND\n"
        "print(repr(well.decompose(4.9, 10).captured))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    from quenchkit import well

    assert float(out.stdout.strip()) == pytest.approx(
        well.decompose(4.9, 10).captured, abs=1e-15
    )


def test_backend_reported():
    assert kernels.BACKEND in ("numba", "numpy")
