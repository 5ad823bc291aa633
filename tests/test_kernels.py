"""Kernel checks: the array coefficient kernel reproduces the per-gamma
formula it replaced bit for bit, and the RK4 propagator agrees with the
generic integrator in `numerics`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchkit import kernels
from quenchkit.numerics import OdeSpec, ode_evolve


def per_gamma_coefficients(gamma, n_max, resonance_tol):
    """The one-gamma NumPy kernel that `kernels.expansion_coefficients`
    replaced; the bit-for-bit reference for its rows."""
    if abs(gamma - 1.0) <= resonance_tol:
        b = np.zeros(n_max)
        b[0] = 1.0
        return b
    n = np.arange(1.0, n_max + 1.0)
    if gamma < 1.0:
        sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
        pref = 2.0 * math.sqrt(gamma) * math.sin(math.pi * gamma)
        return sign * pref * n / (np.pi * (gamma * gamma - n * n))
    nearest = int(math.floor(gamma + 0.5))
    resonant = 1 <= nearest <= n_max and abs(gamma - nearest) <= resonance_tol * nearest
    den = np.pi * (gamma * gamma - n * n)
    if resonant:
        den[nearest - 1] = 1.0
    b = 2.0 * gamma * math.sqrt(gamma) * np.sin(n * np.pi / gamma) / den
    if resonant:
        b[nearest - 1] = 1.0 / math.sqrt(gamma)
    return b


_K = st.integers(1, 60)
_GAMMAS = st.one_of(
    st.floats(1e-6, 1.0, exclude_max=True),  # shrink
    st.floats(1.0, 80.0),  # expansion
    st.sampled_from([1.0, 1.0 - 1e-10, 1.0 + 1e-10]),  # identity and its edges
    _K.map(float),  # exact integers
    st.tuples(_K, st.sampled_from([1 - 1e-12, 1 + 1e-12])).map(lambda p: p[0] * p[1]),
    st.tuples(_K, st.sampled_from([-math.inf, math.inf])).map(
        lambda p: math.nextafter(p[0], p[1])
    ),
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    gammas=st.lists(_GAMMAS, min_size=1, max_size=12),
    n_max=st.sampled_from([1, 7, 1000]) | st.integers(1, 80),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_array_rows_equal_the_per_gamma_formula_bitwise(gammas, n_max, tol):
    table = kernels.expansion_coefficients(np.array(gammas), n_max, tol)
    assert table.shape == (len(gammas), n_max)
    for g, row in zip(gammas, table):
        expected = per_gamma_coefficients(g, n_max, tol)
        np.testing.assert_array_equal(_bits(row), _bits(expected))
        np.testing.assert_array_equal(
            _bits(kernels.expansion_coefficients(g, n_max, tol)), _bits(expected)
        )


def test_rows_are_finite_next_to_every_integer_without_tolerance():
    # With tol = 0 only exact integers are resonant; one ulp away the
    # denominator gamma^2 - k^2 must not round to zero.  (The values there
    # are finite but lose their digits to cancellation: ROADMAP item 2.)
    for first in range(1, 2001, 100):
        k = np.arange(first, first + 100, dtype=float)
        gammas = np.concatenate([np.nextafter(k, -np.inf), np.nextafter(k, np.inf), k])
        table = kernels.expansion_coefficients(gammas, first + 100, 0.0)
        assert np.all(np.isfinite(table))
        on_level = table[np.arange(len(gammas)), np.tile(k.astype(np.intp) - 1, 3)]
        np.testing.assert_array_equal(on_level[-len(k):], 1.0 / np.sqrt(k))


@pytest.mark.parametrize(
    "gamma, expected",
    [(1.0, (True, False)), (0.5, (False, False)), (3.0 + 1e-12, (False, True)),
     (2.5, (False, False)), (1.0 + 5e-10, (True, False))],
)
def test_resonances_on_scalars_and_arrays(gamma, expected):
    _, identity, resonant = kernels.resonances(gamma, 1e-9)
    assert (bool(identity), bool(resonant)) == expected
    _, identity, resonant = kernels.resonances(np.array([gamma, gamma]), 1e-9)
    assert identity.tolist() == [expected[0]] * 2
    assert resonant.tolist() == [expected[1]] * 2


def test_numpy_rk4_preserves_norm():
    alpha, omega = math.pi / 3, 1.0
    up0, dn0 = complex(math.cos(alpha / 2)), complex(math.sin(alpha / 2))
    states, drift = kernels.spin_rk4(
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


# One gamma of each kind the in-place blocks must reproduce: shrink; the
# identity and its edges; exact integers, also above 37 levels; resonant
# within the 1e-9 tolerance; generic expansions.
SHRINK = [1e-3, 0.3, 0.5, 0.77, 0.999]
IDENTITY = [1.0, 1.0 - 1e-10, 1.0 + 1e-10]
EXPAND = [2.0, 3.0, 37.0, 500.0, 3.0 * (1 + 1e-12), 36.0 * (1 - 5e-10), 2.5, 5.123, 40.3]


@pytest.mark.parametrize("n_max", [1000, 37])
@pytest.mark.parametrize(
    "block",
    [SHRINK, EXPAND, IDENTITY, SHRINK + IDENTITY + EXPAND, EXPAND[::-1] + SHRINK[:1]],
    ids=["shrink", "expand", "identity", "mixed", "expand-then-shrink"],
)
def test_rows_written_into_out_equal_the_allocated_rows_bitwise(n_max, block):
    gammas = np.array(block)
    expected = kernels.expansion_coefficients(gammas, n_max, 1e-9)
    # stale contents must not leak into any row: nothing is zero-filled
    out = np.full((len(block), n_max), np.nan)
    got = kernels.expansion_coefficients(
        gammas, n_max, 1e-9, out=out, terms=kernels.level_terms(n_max)
    )
    assert got is out
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    for g, row in zip(block, got):
        np.testing.assert_array_equal(_bits(row), _bits(per_gamma_coefficients(g, n_max, 1e-9)))
