"""Kernel checks: the array coefficient kernel reproduces the per-gamma
formula it replaced bit for bit, the RK4 propagator agrees with the
generic integrator in `numerics`, and the single-cycle curve matches
mpmath within three arrays of its block."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchkit import kernels, spin, well
from quenchkit.numerics import ode_evolve


def plain_coefficients(gamma, n_max):
    """The one-gamma NumPy kernel that `kernels.expansion_coefficients`
    replaced, with one sine per level and its closed-form entry at the
    nearest integer; the baseline of the kernel's accuracy."""
    if gamma == 1.0:
        b = np.zeros(n_max)
        b[0] = 1.0
        return b
    n = np.arange(1.0, n_max + 1.0)
    if gamma < 1.0:
        sign = np.where(n % 2.0 == 1.0, -1.0, 1.0)
        pref = 2.0 * math.sqrt(gamma) * math.sin(math.pi * min(gamma, 1.0 - gamma))
        den = gamma * gamma - n * n
        den[0] = (gamma - 1.0) * (gamma + 1.0)
        return sign * pref * n / (np.pi * den)
    sines = 2.0 * gamma * math.sqrt(gamma) * np.sin(n * np.pi / gamma)
    return _over_denominators(gamma, sines, np.pi * (gamma * gamma - n * n))


def per_gamma_coefficients(gamma, n_max):
    """The kernel's row at one gamma, the bit-for-bit reference for its
    rows: the plain formula, but an expansion's c sin(n pi / gamma), with
    c = 2 gamma sqrt(gamma) / pi, is c sin(x_a) cos(x_b) + c cos(x_a) sin(x_b)
    for n = a L + b, b = 1..L (L = `kernels.LEVEL_STRIDE`), at
    x_a = (a L pi) / gamma and x_b = (b pi) / gamma, over gamma^2 - n^2."""
    if gamma <= 1.0:
        return plain_coefficients(gamma, n_max)
    a, b = np.divmod(np.arange(n_max), kernels.LEVEL_STRIDE)
    x_a = a * kernels.LEVEL_STRIDE * np.pi / gamma
    x_b = (b + 1.0) * np.pi / gamma
    c = 2.0 * gamma * math.sqrt(gamma) / np.pi
    sines = (np.sin(x_a) * c) * np.cos(x_b) + (np.cos(x_a) * c) * np.sin(x_b)
    n = np.arange(1.0, n_max + 1.0)
    return _over_denominators(gamma, sines, gamma * gamma - n * n)


def _over_denominators(gamma, sines, den):
    # an expansion row sines / den, with the closed-form entry at k = rint(gamma)
    k = int(np.rint(gamma))
    if k > len(den):
        return sines / den
    den[k - 1] = 1.0
    b = sines / den
    b[k - 1] = np.sinc((k - gamma) / gamma) / math.sqrt(gamma) * (2.0 * gamma / (gamma + k))
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
)
def test_array_rows_equal_the_per_gamma_formula_bitwise(gammas, n_max):
    table = kernels.expansion_coefficients(np.array(gammas), n_max)
    assert table.shape == (len(gammas), n_max)
    for g, row in zip(gammas, table):
        expected = per_gamma_coefficients(g, n_max)
        np.testing.assert_array_equal(_bits(row), _bits(expected))
        np.testing.assert_array_equal(
            _bits(kernels.expansion_coefficients(g, n_max)), _bits(expected)
        )


@pytest.mark.parametrize(
    "gamma,regime",
    [
        (0.5, "shrink"),
        (math.nextafter(1.0, 0.0), "shrink"),
        (1.0, "identity"),
        (math.nextafter(1.0, 2.0), "generic"),
        (1.0 + 5e-10, "generic"),
        (2.0, "resonant"),
        (3.0, "resonant"),
        (3.0 + 1e-12, "generic"),
        (2.5, "generic"),
        (4.9, "generic"),
        (1e150, "resonant"),
    ],
)
def test_each_gamma_takes_its_regime_formula(gamma, regime):
    # resonance is exact equality: no window around the integers
    n_max = 12
    row = kernels.expansion_coefficients(np.array([gamma]), n_max)[0]
    np.testing.assert_array_equal(_bits(row), _bits(per_gamma_coefficients(gamma, n_max)))
    ref = np.array([float(x) for x in mp_coefficients(gamma, range(1, n_max + 1))])
    assert np.max(np.abs(row - ref)) <= 2e-14 * np.max(np.abs(ref))
    k = int(np.rint(gamma))
    if regime == "identity":
        np.testing.assert_array_equal(row, np.arange(n_max) == 0)
    elif regime == "resonant":
        # level k reproduces the old state exactly
        assert k > n_max or row[k - 1] == 1.0 / math.sqrt(k)
    else:
        # next to an integer, still the shrink or generic formula
        assert gamma != k and row[1] != 0.0
        assert not 2 <= k <= n_max or row[k - 1] != 1.0 / math.sqrt(k)


def test_rows_are_finite_next_to_every_integer_without_tolerance():
    # Only exact integers are resonant; one ulp away the denominator
    # gamma^2 - k^2 must not round to zero.  (The accuracy there is
    # `test_rows_match_mpmath_next_to_the_integers`.)
    for first in range(1, 2001, 100):
        k = np.arange(first, first + 100, dtype=float)
        gammas = np.concatenate([np.nextafter(k, -np.inf), np.nextafter(k, np.inf), k])
        table = kernels.expansion_coefficients(gammas, first + 100)
        assert np.all(np.isfinite(table))
        on_level = table[np.arange(len(gammas)), np.tile(k.astype(np.intp) - 1, 3)]
        np.testing.assert_array_equal(on_level[-len(k):], 1.0 / np.sqrt(k))


def mp_coefficients(gamma, levels):
    """b_n at the exact double ``gamma``, to 50 digits, for each of ``levels``."""
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        root = mpmath.sqrt(g)
        out = []
        for n in levels:
            if g == 1:
                out.append(mpmath.mpf(n == 1))
            elif g < 1:
                sign = -1 if n % 2 else 1
                out.append(sign * 2 * n * root * mpmath.sinpi(g) / (mpmath.pi * (g * g - n * n)))
            elif g == n:
                out.append(1 / root)
            else:
                out.append(
                    2 * g * root * mpmath.sin(n * mpmath.pi / g) / (mpmath.pi * (g * g - n * n))
                )
        return out


_SIDE = st.sampled_from([-1.0, 1.0])
_NEAR_K = st.integers(1, 60) | st.sampled_from([100, 1000, 12345])
_NEAR_INTEGERS = st.one_of(
    # expansions (and for k = 1 shrinks) next to k: k (1 +- 10^-e), or one ulp away
    st.builds(lambda k, e, s: k * (1 + s * 10.0**-e), _NEAR_K, st.integers(3, 16), _SIDE),
    st.builds(lambda k, s: math.nextafter(k, s * math.inf), _NEAR_K, _SIDE),
    # shrinks next to 0, 1/2 and 1
    st.builds(
        lambda c, e, s: c + s * 10.0**-e, st.sampled_from([0.0, 0.5, 1.0]), st.integers(1, 16), _SIDE
    ).filter(lambda g: 0.0 < g < 1.0),
)


@settings(max_examples=150, deadline=None)
@given(gamma=_NEAR_INTEGERS, extra=st.integers(0, 40))
def test_rows_match_mpmath_next_to_the_integers(gamma, extra):
    # the entry whose sine and denominator both vanish is the closed-form one
    k = max(1, int(np.rint(gamma)))
    n_max = k + extra
    b = kernels.expansion_coefficients(gamma, n_max)
    ref = float(mp_coefficients(gamma, [k])[0])
    assert abs(b[k - 1] - ref) <= 2e-15 * abs(ref)
    if k <= 50:
        ref = np.array([float(x) for x in mp_coefficients(gamma, range(1, n_max + 1))])
        assert np.max(np.abs(b - ref)) <= 2e-14 * np.max(np.abs(ref))
    b = well.decompose(gamma, n_max)
    assert np.sum(b * b) <= 1.0 + 1e-15


_STRIDE = kernels.LEVEL_STRIDE
ROW_GAMMAS = [0.3, 1.0, 1.0 + 1e-10, 2.0, 2.5, 3.0 * (1 + 1e-12), 7.0 - 1e-9, 37.0, 40.3,
              999.5, 1234.567, 1e4, 1e150]


@pytest.mark.parametrize("m", [1, _STRIDE - 1, _STRIDE, _STRIDE + 1, 37, 999])
def test_rows_do_not_depend_on_n_max(m):
    # each entry is one sum of products of its own row's table entries: the
    # first m levels are the same doubles at any n_max, which a combine whose
    # rounding depends on the block's shape (a BLAS product) would break
    full = kernels.expansion_coefficients(np.array(ROW_GAMMAS), 1000)
    part = kernels.expansion_coefficients(np.array(ROW_GAMMAS), m)
    np.testing.assert_array_equal(_bits(part), _bits(full[:, :m]))
    for g, row in zip(ROW_GAMMAS, full):
        np.testing.assert_array_equal(_bits(kernels.expansion_coefficients(g, m)), _bits(row[:m]))
        assert well.expansion_coefficient(m, g) == well.decompose(g, 1000)[m - 1]


U = 2.0**-53  # unit roundoff


def rounding_envelope(gamma, exact):
    """First-order bound on the rounding error of each entry of an expansion
    row b_n = c sin(x) / D, with c = 2 gamma^(3/2) / pi, x = n pi / gamma and
    D = gamma^2 - n^2, whose exact values are ``exact``; u = 2^-53.

    The argument x, or x_a and x_b with x_a + x_b = x, takes two roundings
    and pi's 0.35 u: 2.36 u x.  The plain sine takes 1 ulp (at most u, as
    |sin| < 1) and c's square root and product 2 u.  The table sum takes
    1 ulp in each of its 4 sines and cosines, 5.35 u in each of its two
    products (c's 3.35 u, the table's and the product's rounding) and u in
    the sum; as |sin x_a cos x_b| + |cos x_a sin x_b| <= 1, that is 10.4 u,
    which bounds the plain sine's 3 u too.  gamma * gamma takes u gamma^2 of
    D, and D's subtraction, the division, pi (in the plain D) and the
    reference's own rounding at most 4.4 u of b_n.
    """
    n = np.arange(1.0, len(exact) + 1.0)
    x = n * np.pi / gamma
    den = np.abs(gamma * gamma - n * n)
    den[den == 0.0] = np.inf  # the closed-form entry at an integer gamma, bounded apart
    c = 2.0 * gamma * math.sqrt(gamma) / math.pi
    return U * (c * (2.36 * x + 10.4) / den + np.abs(exact) * (gamma * gamma / den + 4.4))


_WIDE_GAMMAS = st.one_of(
    st.floats(1.0, 1e4, exclude_min=True),
    st.integers(2, 10**4).map(float),
    st.builds(lambda k, s: k * (1 + s * 1e-12), st.integers(2, 10**4), _SIDE),
)


@settings(max_examples=60, deadline=None)
@given(gamma=_WIDE_GAMMAS,
       n_max=st.sampled_from([1, _STRIDE - 1, _STRIDE, _STRIDE + 1, 2 * _STRIDE + 3, 37, 1000]))
def test_table_sines_stay_within_the_plain_formulas_rounding_envelope(gamma, n_max):
    # Every entry of the kernel's row and of the plain formula's (one sine
    # per level, the baseline) is within its first-order rounding bound,
    # whose terms differ only in the sine's own rounding; the closed-form
    # entry at k = rint(gamma) is the plain formula's double.  Row by row
    # either may be the closer: near a node n = m gamma both errors are the
    # rounding of x and of gamma^2 amplified by 1 / |D|, and they do not
    # round alike.
    exact = np.array([float(v) for v in mp_coefficients(gamma, range(1, n_max + 1))])
    bound = rounding_envelope(gamma, exact)
    row, plain = kernels.expansion_coefficients(gamma, n_max), plain_coefficients(gamma, n_max)
    k = int(np.rint(gamma))
    if k <= n_max:
        assert row[k - 1] == plain[k - 1]
        bound[k - 1] = np.inf
    for got in (row, plain):
        assert np.all(np.abs(got - exact) <= bound)


def test_an_expansion_block_holds_its_denominators_and_small_tables():
    # out given, as in well._energies: one block of denominators, the
    # 2 (N / L + L) table entries a row, and numpy's buffers for the
    # broadcast subtraction; the one-sine kernel peaked at 1.61 blocks here
    # (numpy 2.4), and a 0.05 block margin (12.8 kB) holds numpy's scalars
    gammas = np.linspace(1.01, 60.0, 32)
    out = np.empty((32, 1000))
    kernels.expansion_coefficients(gammas, 1000, out=out)  # numpy's first-call caches
    tracemalloc.start()
    try:
        kernels.expansion_coefficients(gammas, 1000, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.61 + 0.05) * out.nbytes


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
    generic, _ = ode_evolve(rotating_field_rhs(alpha, omega, omega0), y0, t, 10_000)
    states, drift = kernels.spin_rk4(alpha, omega, omega0, t, 10_000, y0[0], y0[1], 10_000)
    np.testing.assert_allclose(states[-1], generic, rtol=0.0, atol=1e-13)
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


def test_rk4_memory_does_not_grow_with_steps():
    # one block's increments are built at a time, and they go before the
    # next block's are; with one state recorded, what outlives a block is
    # its complex states and norms, a few doubles a step of one block
    alpha = math.pi / 4
    up0, dn0 = complex(math.cos(alpha / 2)), complex(math.sin(alpha / 2))

    def peak(n_steps):
        tracemalloc.start()
        try:
            kernels.spin_rk4(alpha, 2.0, 1.0, n_steps * 1e-3, n_steps, up0, dn0, n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = kernels.RK4_BLOCK
    peak(block)  # numpy's first-call caches
    one, four = peak(block), peak(4 * block)
    assert four - one < 8 * 8 * block  # eight doubles a step of one block


def test_cycle_curve_holds_three_arrays_of_its_block():
    # a block of spin.omega_scan's size, where numpy elides rabi_rate's
    # temporaries; the margin is a page for numpy's scalars and headers,
    # far below a boolean mask of the block (block / 8 bytes)
    x = np.linspace(0.05, 20.0, spin.OMEGA_BLOCK)
    kernels.cycle_return_curve(x, 0.7)  # numpy's first-call caches
    tracemalloc.start()
    try:
        kernels.cycle_return_curve(x, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.nbytes + 4096


@pytest.mark.parametrize("alpha", [0.0, 1e-8, math.pi / 48, math.pi / 6, math.pi / 4, 1.5, 2.5,
                                   math.pi])
def test_cycle_curve_matches_mpmath(alpha):
    # 1 - rho = (sin(alpha) sin(pi u) / u)^2 with u = mu / x, at 50 digits
    x = np.linspace(0.05, 200.0, 400)
    rho = kernels.cycle_return_curve(x, alpha)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for xi, got in zip(x.tolist(), rho.tolist()):
            xi = mpmath.mpf(xi)
            u = mpmath.sqrt((1 - xi * mpmath.cos(a)) ** 2 + (xi * mpmath.sin(a)) ** 2) / xi
            want = 1 - (mpmath.sin(a) * mpmath.sin(mpmath.pi * u) / u) ** 2
            assert abs(got - want) <= 1e-15, xi


# One gamma of each kind the in-place blocks must reproduce: shrink; the
# identity and its edges; exact integers, also above 37 levels; next to an
# integer; generic expansions.
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
    expected = kernels.expansion_coefficients(gammas, n_max)
    # stale contents must not leak into any row: nothing is zero-filled
    out = np.full((len(block), n_max), np.nan)
    got = kernels.expansion_coefficients(gammas, n_max, out=out)
    assert got is out
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    for g, row in zip(block, got):
        np.testing.assert_array_equal(_bits(row), _bits(per_gamma_coefficients(g, n_max)))
