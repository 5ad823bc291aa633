"""Spin-1/2 in a rotating magnetic field: exact dynamics and return probability.

The field has fixed magnitude and rotates at frequency ``omega`` on a cone of
half-angle ``alpha`` about the z axis.  Starting from an instantaneous
eigenstate, the state evolves exactly; the return probability measures how
much of it stays in that eigenstate.  For drives much faster than the Larmor
frequency the state effectively freezes -- `anti_adiabatic_threshold` locates
the drive ratio where that happens.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from quenchkit import kernels
from quenchkit.numerics import OdeDivergenceError

HBAR = 1.054571817e-34  # J s

UPPER = "upper"  # eigenvalue +hbar*omega0/2
LOWER = "lower"  # eigenvalue -hbar*omega0/2

DEFAULT_RATIO_RANGE = (0.05, 20.0)
DEFAULT_SCAN_POINTS = 10_000

# Larmor frequency, rad/s: charge 1.6e-19 C times a 1 T field over mass
# 9.3e-31 kg.  Every spin quantity the package reports depends on the cone
# angle and the drive ratio omega / omega0 only, so omega0 sets only the unit
# of time.
OMEGA0 = 1.6e-19 / 9.3e-31

# Most RK4 steps one trajectory may take: ~10 s of the step loop.  A cycle
# takes 10^4 steps at a drive ratio >= 0.064 and about 600 / r below that
# (`ode_trajectory`), so the budget admits ratios down to about 6e-5; ratio
# 1e-9 would need 6e11.
MAX_RK4_STEPS = 10**7

# RK4 steps per drive period of an `ode_trajectory`, before its floor for the
# fastest frequency
RK4_STEPS_PER_PERIOD = 10_000


@dataclass(frozen=True)
class RotorConfig:
    """Cone angle and drive frequency at the Larmor frequency `OMEGA0`: one
    configuration, or many when ``alpha`` and ``omega`` are arrays of one
    broadcast shape.

    Defaults drive a 45-degree cone at the Larmor frequency.
    """

    alpha: float = math.pi / 4  # rad, cone half-angle
    omega: float = OMEGA0  # rad/s, drive frequency

    def __post_init__(self):
        omega, top = self.omega, kernels.MAX_RATIO
        _refuse(np.isfinite(omega) & (omega > 0.0), omega,
                "omega must be finite and positive, got {}")
        _check_alpha(self.alpha)
        np.broadcast_shapes(np.shape(self.alpha), np.shape(omega))  # or ValueError
        # kernels.rabi_rate squares the frequencies, which overflow past
        # sqrt(DBL_MAX); below 1 / MAX_RATIO a ratio leaves the range of a
        # double.  A ratio within the bounds keeps omega above 1e-150 rad/s.
        ratio, must = omega / OMEGA0, "drive ratio omega / omega0 must be"
        _refuse(ratio <= top, ratio, f"{must} at most {top:g}, got {{:g}}")
        _refuse(ratio >= 1.0 / top, ratio, f"{must} at least {1.0 / top:g}, got {{:g}}")
        _refuse(omega <= top, omega, f"omega must be at most {top:g} rad/s, got {{:g}}")

    @property
    def omega0(self) -> float:
        """Larmor frequency, rad/s: the constant `OMEGA0`."""
        return OMEGA0

    @property
    def rabi_lambda(self):
        """Generalized precession rate sqrt(w^2 + w0^2 - 2 w w0 cos(alpha)):
        a float for one configuration, an array for many."""
        lam = kernels.rabi_rate(self.omega, self.omega0, self.alpha)
        return float(lam) if np.ndim(lam) == 0 else lam

    @property
    def drive_period(self):
        return 2.0 * math.pi / self.omega

    @classmethod
    def at_ratio(cls, ratio, alpha=math.pi / 4) -> "RotorConfig":
        """Config with the drive at ``ratio`` times the Larmor frequency."""
        return cls(alpha=alpha, omega=ratio * OMEGA0)


def _refuse(ok, values, message: str) -> None:
    # ValueError(message) naming the first of ``values`` where ``ok`` fails
    if not np.all(ok):
        raise ValueError(message.format(float(np.asarray(values).flat[np.argmin(ok)])))


def _check_alpha(alpha) -> None:
    _refuse((0.0 <= alpha) & (alpha <= math.pi), alpha, "alpha must lie in [0, pi], got {}")


def hamiltonian(t: float, cfg: RotorConfig) -> np.ndarray:
    """2x2 Hamiltonian at time ``t``, in joules.

    Traceless Hermitian with eigenvalues +/- hbar*omega0/2 at every instant:
    (hbar*omega0/2) times the field direction contracted with the Pauli
    matrices.  It is i hbar A(t) for the generator A of the RK4 oracle,
    y' = A(t) y, so the two share one matrix.
    """
    a00, a01, a10, a11 = kernels._spin_generator(t, cfg.alpha, cfg.omega, cfg.omega0)
    return 1j * HBAR * np.array([[a00, a01], [a10, a11]], dtype=complex)


def instantaneous_eigenstates(
    t: float, cfg: RotorConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Eigenstates of the instantaneous Hamiltonian, each a normalized complex
    array (up, down), and their energies (J): the t = 0 eigenstates of
    `_branch_terms` with the field's phase e^{i omega t} on the down
    component of the upper one and e^{-i omega t} on the up component of the
    lower one."""
    phase = complex(math.cos(cfg.omega * t), math.sin(cfg.omega * t))
    turn = np.array([[1.0, phase], [phase.conjugate(), 1.0]])
    upper, lower = _branch_terms([UPPER, LOWER], cfg)[0] * turn
    e = 0.5 * HBAR * cfg.omega0
    return upper, lower, e, -e


def _check_time(t, rate=0.0) -> np.ndarray:
    """``t`` as a float array broadcast against ``rate``, once every element
    is finite and non-negative and, for a ``rate`` in rad/s, keeps the phase
    ``rate * t`` finite."""
    t, rate = np.broadcast_arrays(np.asarray(t, dtype=float), rate)
    with np.errstate(divide="ignore"):  # no rate: no bound
        ok = (t >= 0.0) & (t < sys.float_info.max / rate)
    if not ok.all():
        bad, rate = t.flat[np.argmin(ok)], rate.flat[np.argmin(ok)]
        if 0.0 <= bad < math.inf:
            raise ValueError(f"t = {bad:g} s overflows the phase {rate:g} rad/s * t")
        raise ValueError(f"t must be finite and non-negative, got {bad}")
    return t


def _branch_terms(branches, cfg: RotorConfig) -> np.ndarray:
    """For each of ``branches``, its eigenstate a at t = 0, which is real, and
    the h of `_closed_form`: shape ``(2,) + cfg's shape + (len(branches), 2)``."""
    w0, half = cfg.omega0, 0.5 * cfg.alpha
    w, ch, sh = np.broadcast_arrays(cfg.omega, np.cos(half), np.sin(half))
    terms = {UPPER: ((ch, sh), (w - w0, -(w0 + w))), LOWER: ((sh, -ch), (w0 + w, w0 - w))}
    unknown = [b for b in branches if b not in terms]
    if unknown:
        raise ValueError(f"branch must be '{UPPER}' or '{LOWER}', got {unknown[0]!r}")
    return np.moveaxis(np.array([terms[b] for b in branches]), (0, 2), (-2, -1))


def _closed_form(t, branches, cfg: RotorConfig):
    """The exact states at ``t`` from the eigenstates a of ``branches``, shape
    ``np.shape(t)`` broadcast against cfg's shape ``+ (len(branches), 2)``,
    and the a, which are real.

    In the frame rotating with the drive the state is (c - i s K) a, with
    c = cos(lam t/2), s = sin(lam t/2)/lam and K a = -h a componentwise for K
    twice the generator there; back in the lab frame up turns by
    exp(-i w t/2) and down by exp(i w t/2).  The arithmetic is real and
    rounds as the complex form does, down to the phases 0.5 (lam t) and
    (0.5 w) t; numpy's complex multiply may round differently.
    """
    w = np.asarray(cfg.omega, dtype=float)
    lam = np.asarray(cfg.rabi_lambda)
    t = _check_time(t, np.maximum(w, lam))[..., None, None]
    a, h = _branch_terms(branches, cfg)
    w, lam = w[..., None, None], lam[..., None, None]
    half, turn = t * lam * 0.5, t * (0.5 * w)
    c, cr, sr = np.cos(half), np.cos(turn), np.sin(turn) * np.array([-1.0, 1.0])
    # sin(lam t/2)/lam, whose only 0/0 is lam == 0 (alpha = 0 at resonance)
    s = np.where(lam == 0.0, 0.5 * t, np.sin(half) / np.where(lam == 0.0, 1.0, lam))
    p, q = c * a, s * h * a
    psi = np.empty(p.shape, complex)
    psi.real, psi.imag = p * cr - q * sr, p * sr + q * cr
    return psi, a


def evolve_closed_form(t, branch: str, cfg: RotorConfig) -> np.ndarray:
    """Exact state at time ``t`` from the instantaneous eigenstate ``branch``
    ("upper" or "lower"), which it reproduces exactly at t = 0.  ``t`` is a
    float or an array; the complex amplitudes (up, down) are on the last
    axis, shape ``np.shape(t) + (2,)``."""
    return _closed_form(t, [branch], cfg)[0][..., 0, :]


def ode_trajectory(
    t: float,
    branch: str,
    cfg: RotorConfig,
    samples: int = 16,
) -> tuple[np.ndarray, np.ndarray, float]:
    """RK4 oracle for `evolve_closed_form`: the states at ``samples + 1``
    equispaced times in [0, t] from the fixed-step kernel.

    Returns (times, states, norm_drift).
    """
    _check_time(t)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    initial = _branch_terms([branch], cfg)[0, 0]
    if t == 0.0:
        times = np.zeros(samples + 1)
        states = np.tile(initial.astype(complex), (samples + 1, 1))
        return times, states, 0.0
    fastest = max(cfg.omega, cfg.omega0, cfg.rabi_lambda)
    periods = t / cfg.drive_period
    # at least 600 steps per period of the fastest frequency: over P such
    # periods the error is about 2.5 P / 600^4, 3e-7 at the slowest drive
    # the budget admits
    steps = max(RK4_STEPS_PER_PERIOD * periods, 600.0 * fastest * t / (2.0 * math.pi), 100.0)
    # rounded up to a multiple of samples in floats, so a huge t meets the
    # budget as inf instead of overflowing an integer conversion
    n_steps = np.ceil(np.ceil(steps) / samples) * samples
    if n_steps > MAX_RK4_STEPS:
        raise ValueError(
            f"RK4 over t = {t:g} s at drive ratio omega / omega0 = "
            f"{cfg.omega / cfg.omega0:g} needs {n_steps:.0f} steps, above the budget "
            f"of {MAX_RK4_STEPS}"
        )
    n_steps = int(n_steps)
    stride = n_steps // samples
    states, drift = kernels.spin_rk4(
        cfg.alpha, cfg.omega, cfg.omega0, t, n_steps, *initial, stride
    )
    if not np.all(np.isfinite(states.view(float))):
        raise OdeDivergenceError("two-level RK4 integration produced non-finite values")
    times = np.linspace(0.0, t, samples + 1)
    return times, states, drift


def return_probability(t, branch: str, cfg: RotorConfig):
    """Probability of finding the evolved state back in its initial
    eigenstate: a float for a float ``t`` and one configuration, else an
    array."""
    # |<a|psi(t)>|^2, squared by pow like abs(z) ** 2 of a Python complex
    # (x * x differs in ~0.1% of last bits)
    psi, a = _closed_form(t, [branch], cfg)
    re, im = (psi.real * a)[..., 0, :], (psi.imag * a)[..., 0, :]
    p = np.float_power(np.hypot(re[..., 0] + re[..., 1], im[..., 0] + im[..., 1]), 2.0)
    return float(p) if p.ndim == 0 else p


def return_probability_cycle(cfg: RotorConfig):
    """Return probability after exactly one drive cycle, as a closed form in
    the drive ratio ``cfg.omega / cfg.omega0``: a float for one
    configuration, an array of cfg's shape for many."""
    ratio, alpha = np.broadcast_arrays(np.divide(cfg.omega, cfg.omega0), cfg.alpha)
    rho = kernels.cycle_return_curve(ratio.ravel(), alpha.ravel()).reshape(ratio.shape)
    return float(rho) if rho.ndim == 0 else rho


def omega_scan(
    ratio_min: float,
    ratio_max: float,
    points: int,
    alphas,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-cycle return probability curves, one per cone angle:
    ``(ratios, rho)`` with ``ratios`` the ``points`` scanned drive ratios and
    ``rho[i]`` the curve at ``alphas[i]``, shape ``(len(alphas), points)``."""
    top = kernels.MAX_RATIO
    if not 1.0 / top <= ratio_min < ratio_max <= top:
        raise ValueError(
            f"need {1.0 / top:g} <= ratio_min < ratio_max <= {top:g}, "
            f"got [{ratio_min}, {ratio_max}]"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alpha(alphas)
    ratios = np.linspace(ratio_min, ratio_max, points)
    rho = np.empty((len(alphas), points))
    for curve, alpha in zip(rho, alphas):
        kernels.cycle_return_curve(ratios, alpha, out=curve)
    return ratios, rho


def anti_adiabatic_threshold(
    epsilon: float,
    alpha: float = math.pi / 4,
    ratio_min: float = DEFAULT_RATIO_RANGE[0],
    ratio_max: float = DEFAULT_RATIO_RANGE[1],
    points: int = DEFAULT_SCAN_POINTS,
) -> tuple[float, float, float]:
    """Locate where the single-cycle curve turns monotone and where it freezes.

    Returns ``(monotone, frozen, max_rho1)``.  Both onsets are read off the
    discrete scan grid, with no root polishing: ``monotone`` is the smallest
    grid ratio beyond which the curve is non-decreasing, ``frozen`` the
    smallest grid ratio from which the probability stays at or above
    ``1 - epsilon``, or nan when it is below that at ``ratio_max``;
    ``max_rho1`` is the largest probability on the grid.  The grid should be
    fine enough that adjacent probability differences resolve
    ``epsilon / 10``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    ratios, (rho,) = omega_scan(ratio_min, ratio_max, points, [alpha])
    # drops below a few ulps are rounding noise on flat stretches, not dips
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
