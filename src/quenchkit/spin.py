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
from dataclasses import dataclass, field

import numpy as np

from quenchkit import kernels
from quenchkit.numerics import OdeDivergenceError, OdeSpec

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


@dataclass(frozen=True)
class RotorConfig:
    """Cone angle and drive frequency at the Larmor frequency `OMEGA0`.

    Defaults drive a 45-degree cone at the Larmor frequency.
    """

    alpha: float = math.pi / 4  # rad, cone half-angle
    omega: float = OMEGA0  # rad/s, drive frequency

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        _check_alpha(self.alpha)
        # kernels.rabi_rate squares the frequencies, which overflow past
        # sqrt(DBL_MAX); below 1 / MAX_RATIO a ratio leaves the range of a
        # double.  A ratio within the bounds keeps omega above 1e-150 rad/s.
        top = kernels.MAX_RATIO
        ratio = self.omega / OMEGA0
        if not ratio <= top:
            raise ValueError(
                f"drive ratio omega / omega0 must be at most {top:g}, got {ratio:g}"
            )
        if not ratio >= 1.0 / top:
            raise ValueError(
                f"drive ratio omega / omega0 must be at least {1.0 / top:g}, got {ratio:g}"
            )
        if not self.omega <= top:
            raise ValueError(f"omega must be at most {top:g} rad/s, got {self.omega:g}")

    @property
    def omega0(self) -> float:
        """Larmor frequency, rad/s: the constant `OMEGA0`."""
        return OMEGA0

    @property
    def rabi_lambda(self) -> float:
        """Generalized precession rate sqrt(w^2 + w0^2 - 2 w w0 cos(alpha))."""
        return float(kernels.rabi_rate(self.omega, self.omega0, self.alpha))

    @property
    def drive_period(self) -> float:
        return 2.0 * math.pi / self.omega

    @classmethod
    def at_ratio(cls, ratio: float, alpha: float = math.pi / 4) -> "RotorConfig":
        """Config with the drive at ``ratio`` times the Larmor frequency."""
        return cls(alpha=alpha, omega=ratio * OMEGA0)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")


@dataclass(frozen=True)
class SpinState:
    """Normalized two-component amplitude vector."""

    up: complex
    down: complex

    def __post_init__(self):
        norm = abs(self.up) ** 2 + abs(self.down) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state must be normalized, |psi|^2 = {norm}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)

    def overlap(self, other: "SpinState") -> complex:
        """Inner product <self|other>."""
        return complex(
            self.up.conjugate() * other.up + self.down.conjugate() * other.down
        )


@dataclass(frozen=True)
class ReturnCurve:
    """Single-cycle return probability versus drive ratio, for one cone angle."""

    alpha: float
    ratios: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ThresholdReport:
    """Grid-resolved onsets of the frozen (anti-adiabatic) regime.

    ``monotone_onset`` is the smallest scanned ratio beyond which the curve
    never decreases.  ``frozen_onset`` is the smallest scanned ratio beyond
    which the probability stays within ``epsilon`` of one, or None when no
    scanned ratio qualifies; ``max_probability`` then records how close the
    scan got.
    """

    alpha: float
    epsilon: float
    monotone_onset: float
    frozen_onset: float | None
    max_probability: float
    ratio_range: tuple[float, float]
    points: int

    @property
    def frozen_found(self) -> bool:
        return self.frozen_onset is not None


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
) -> tuple[SpinState, SpinState, float, float]:
    """Eigenstates of the instantaneous Hamiltonian and their energies (J)."""
    half = 0.5 * cfg.alpha
    phase = complex(math.cos(cfg.omega * t), math.sin(cfg.omega * t))
    upper = SpinState(math.cos(half), phase * math.sin(half))
    lower = SpinState(phase.conjugate() * math.sin(half), -math.cos(half))
    e = 0.5 * HBAR * cfg.omega0
    return upper, lower, e, -e


def _check_time(t, rate: float = 0.0) -> np.ndarray:
    """``t`` as a float array, once every element is finite and non-negative
    and, for a ``rate`` in rad/s, keeps the phase ``rate * t`` finite."""
    t = np.asarray(t, dtype=float)
    ok = (t >= 0.0) & (t < (sys.float_info.max / rate if rate else math.inf))
    if np.count_nonzero(ok) < ok.size:
        bad = t[~ok][0]
        if 0.0 <= bad < math.inf:
            raise ValueError(f"t = {bad:g} s overflows the phase {rate:g} rad/s * t")
        raise ValueError(f"t must be finite and non-negative, got {bad}")
    return t


def _closed_form(t, branches, cfg: RotorConfig):
    """The exact states at ``t`` from the eigenstates a of ``branches``, shape
    ``np.shape(t) + (len(branches), 2)``, and the a, which are real.

    In the frame rotating with the drive the state is (c - i s K) a, with
    c = cos(lam t/2), s = sin(lam t/2)/lam and K a = -h a componentwise for K
    twice the generator there; back in the lab frame up turns by
    exp(-i w t/2) and down by exp(i w t/2).  The arithmetic is real and
    rounds as the complex form does, down to the phases 0.5 (lam t) and
    (0.5 w) t; numpy's complex multiply may round differently.
    """
    w, w0, lam = cfg.omega, cfg.omega0, cfg.rabi_lambda
    t = _check_time(t, max(w, lam))[..., None, None]
    ch, sh = math.cos(0.5 * cfg.alpha), math.sin(0.5 * cfg.alpha)
    terms = {UPPER: ((ch, sh), (w - w0, -(w0 + w))), LOWER: ((sh, -ch), (w0 + w, w0 - w))}
    unknown = [b for b in branches if b not in terms]
    if unknown:
        raise ValueError(f"branch must be '{UPPER}' or '{LOWER}', got {unknown[0]!r}")
    a, h = np.array([terms[b] for b in branches]).transpose(1, 0, 2)
    phase = t * np.array([lam, 0.5 * w]) * np.array([0.5, 1.0])
    cos, sin = np.cos(phase), np.sin(phase)
    c, cr, sr = cos[..., :1], cos[..., 1:], sin[..., 1:] * np.array([-1.0, 1.0])
    # sin(lam t/2)/lam, whose only 0/0 is lam == 0 (alpha = 0 at resonance)
    s = 0.5 * t if lam == 0.0 else sin[..., :1] / lam
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
    spec: OdeSpec | None = None,
    samples: int = 16,
) -> tuple[np.ndarray, np.ndarray, float]:
    """RK4 oracle for `evolve_closed_form`: the states at ``samples + 1``
    equispaced times in [0, t] from the fixed-step kernel.

    Returns (times, states, norm_drift).
    """
    if spec is None:
        spec = OdeSpec()
    _check_time(t)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    initial, lower, _, _ = instantaneous_eigenstates(0.0, cfg)
    if branch == LOWER:
        initial = lower
    elif branch != UPPER:
        raise ValueError(f"branch must be '{UPPER}' or '{LOWER}', got {branch!r}")
    if t == 0.0:
        times = np.zeros(samples + 1)
        states = np.tile(initial.vector, (samples + 1, 1))
        return times, states, 0.0
    fastest = max(cfg.omega, cfg.omega0, cfg.rabi_lambda)
    periods = t / cfg.drive_period
    # at least 600 steps per period of the fastest frequency: over P such
    # periods the error is about 2.5 P / 600^4, 3e-7 at the slowest drive
    # the budget admits
    steps = max(spec.steps_per_period * periods, 600.0 * fastest * t / (2.0 * math.pi), 100.0)
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
        cfg.alpha, cfg.omega, cfg.omega0, t, n_steps, initial.up, initial.down, stride
    )
    if not np.all(np.isfinite(states.view(float))):
        raise OdeDivergenceError("two-level RK4 integration produced non-finite values")
    times = np.linspace(0.0, t, samples + 1)
    return times, states, drift


def _return_probabilities(t, branches, cfg: RotorConfig) -> np.ndarray:
    # |<a|psi(t)>|^2 for each branch on the last axis, squared by pow like
    # abs(z) ** 2 of a Python complex (x * x differs in ~0.1% of last bits)
    psi, a = _closed_form(t, branches, cfg)
    re, im = psi.real * a, psi.imag * a
    return np.float_power(np.hypot(re[..., 0] + re[..., 1], im[..., 0] + im[..., 1]), 2.0)


def return_probability(t, branch: str, cfg: RotorConfig):
    """Probability of finding the evolved state back in its initial
    eigenstate: a float for a float ``t``, an array for an array ``t``."""
    p = _return_probabilities(t, [branch], cfg)[..., 0]
    return float(p) if p.ndim == 0 else p


def return_probability_cycle(cfg: RotorConfig) -> float:
    """Return probability after exactly one drive cycle, as a closed form in
    the drive ratio ``cfg.omega / cfg.omega0``."""
    ratio = np.array([cfg.omega / cfg.omega0])
    return float(kernels.cycle_return_curve(ratio, cfg.alpha)[0])


def branch_symmetry_check(t, cfg: RotorConfig):
    """Return probabilities of both branches at time ``t`` and their gap,
    which measures only rounding: floats for a float ``t``, arrays for an
    array ``t``."""
    p = _return_probabilities(t, [UPPER, LOWER], cfg)
    p = (p[..., 0], p[..., 1], abs(p[..., 0] - p[..., 1]))
    return tuple(map(float, p)) if p[2].ndim == 0 else p


def omega_scan(
    ratio_min: float,
    ratio_max: float,
    points: int,
    alphas,
) -> list[ReturnCurve]:
    """Single-cycle return probability curves, one per cone angle."""
    top = kernels.MAX_RATIO
    if not 1.0 / top <= ratio_min < ratio_max <= top:
        raise ValueError(
            f"need {1.0 / top:g} <= ratio_min < ratio_max <= {top:g}, "
            f"got [{ratio_min}, {ratio_max}]"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    ratios = np.linspace(ratio_min, ratio_max, points)
    curves = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        _check_alpha(alpha)
        rho = kernels.cycle_return_curve(ratios, float(alpha))
        curves.append(ReturnCurve(alpha=float(alpha), ratios=ratios, probabilities=rho))
    return curves


def anti_adiabatic_threshold(
    epsilon: float,
    alpha: float = math.pi / 4,
    ratio_min: float = DEFAULT_RATIO_RANGE[0],
    ratio_max: float = DEFAULT_RATIO_RANGE[1],
    points: int = DEFAULT_SCAN_POINTS,
) -> ThresholdReport:
    """Locate where the single-cycle curve turns monotone and where it freezes.

    Both onsets are read off the discrete scan grid, with no root polishing:
    ``monotone_onset`` is the smallest grid ratio beyond which the curve is
    non-decreasing, ``frozen_onset`` the smallest grid ratio from which the
    probability stays at or above ``1 - epsilon``.  The grid should be fine
    enough that adjacent probability differences resolve ``epsilon / 10``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    (curve,) = omega_scan(ratio_min, ratio_max, points, [alpha])
    rho = curve.probabilities
    ratios = curve.ratios
    # drops below a few ulps are rounding noise on flat stretches, not dips
    decreases = np.flatnonzero(np.diff(rho) < -1e-13)
    monotone = float(ratios[decreases[-1] + 1]) if decreases.size else float(ratios[0])
    below = np.flatnonzero(rho < 1.0 - epsilon)
    if below.size == 0:
        frozen = float(ratios[0])
    elif below[-1] == points - 1:
        frozen = None
    else:
        frozen = float(ratios[below[-1] + 1])
    return ThresholdReport(
        alpha=curve.alpha,
        epsilon=epsilon,
        monotone_onset=monotone,
        frozen_onset=frozen,
        max_probability=float(rho.max()),
        ratio_range=(ratio_min, ratio_max),
        points=points,
    )
