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
from dataclasses import dataclass, field

import numpy as np

from quenchkit import kernels
from quenchkit.numerics import OdeDivergenceError, OdeResult, OdeSpec

HBAR = 1.054571817e-34  # J s

UPPER = "upper"  # eigenvalue +hbar*omega0/2
LOWER = "lower"  # eigenvalue -hbar*omega0/2

DEFAULT_RATIO_RANGE = (0.05, 20.0)
DEFAULT_SCAN_POINTS = 10_000


@dataclass(frozen=True)
class RotorConfig:
    """Field strength, particle charge/mass, cone angle, and drive frequency.

    ``charge`` is a magnitude; its sign is absorbed into the Larmor frequency
    ``omega0 = charge * field_strength / mass``.  Defaults put an electron-like
    particle (m = 9.3e-31 kg) in a 1 T field, driven at the Larmor frequency.
    """

    field_strength: float = 1.0  # T
    charge: float = 1.6e-19  # C, magnitude
    mass: float = 9.3e-31  # kg
    alpha: float = math.pi / 4  # rad, cone half-angle
    omega: float = 1.6e-19 / 9.3e-31  # rad/s, drive frequency

    def __post_init__(self):
        for name in ("field_strength", "charge", "mass", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        # rabi_lambda squares the frequencies as Python floats, which raise
        # OverflowError past sqrt(DBL_MAX) instead of returning inf
        top = kernels.MAX_RATIO
        omega0 = self.omega0
        if not 0.0 < omega0 <= top:
            raise ValueError(
                f"Larmor frequency charge * field_strength / mass must lie in "
                f"(0, {top:g}] rad/s, got {omega0}"
            )
        if not self.omega / omega0 <= top:
            raise ValueError(
                f"drive ratio omega / omega0 must be at most {top:g}, "
                f"got {self.omega / omega0:g}"
            )
        if not self.omega <= top:
            raise ValueError(f"omega must be at most {top:g} rad/s, got {self.omega}")

    @property
    def omega0(self) -> float:
        """Larmor frequency, rad/s (derived, never stored)."""
        return self.charge * self.field_strength / self.mass

    @property
    def rabi_lambda(self) -> float:
        """Generalized precession rate sqrt(w^2 + w0^2 - 2 w w0 cos(alpha))."""
        return rabi_lambda(self.omega, self.omega0, self.alpha)

    @property
    def drive_period(self) -> float:
        return 2.0 * math.pi / self.omega

    @classmethod
    def at_ratio(cls, ratio: float, alpha: float = math.pi / 4, **kwargs) -> "RotorConfig":
        """Config with the drive at ``ratio`` times the Larmor frequency."""
        probe = cls(alpha=alpha, **kwargs)
        return cls(
            field_strength=probe.field_strength,
            charge=probe.charge,
            mass=probe.mass,
            alpha=alpha,
            omega=ratio * probe.omega0,
        )


def rabi_lambda(omega: float, omega0: float, alpha: float) -> float:
    # cancellation-free rearrangement of sqrt(w^2 + w0^2 - 2 w w0 cos a),
    # keeping lambda >= |w - w0| down to rounding
    s = math.sin(0.5 * alpha)
    return math.sqrt((omega - omega0) ** 2 + 4.0 * omega * omega0 * s * s)


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


def _sin_halfangle_over_lambda(lam: float, t: float) -> float:
    # sin(lam*t/2)/lam with the removable lam -> 0 singularity handled by series
    x = lam * t
    if abs(x) < 1e-8:
        return 0.5 * t * (1.0 - x * x / 24.0)
    return math.sin(0.5 * x) / lam


def evolve_closed_form(t: float, branch: str, cfg: RotorConfig) -> SpinState:
    """Exact state at time ``t`` starting from an instantaneous eigenstate.

    ``branch`` selects the initial eigenstate: "upper" or "lower".  At t = 0
    the returned state reproduces that eigenstate exactly.
    """
    lam = cfg.rabi_lambda
    c = math.cos(0.5 * lam * t)
    s_over = _sin_halfangle_over_lambda(lam, t)
    half = 0.5 * cfg.alpha
    rot = complex(math.cos(0.5 * cfg.omega * t), -math.sin(0.5 * cfg.omega * t))
    if branch == UPPER:
        up = (c - 1j * (cfg.omega0 - cfg.omega) * s_over) * math.cos(half) * rot
        down = (c - 1j * (cfg.omega0 + cfg.omega) * s_over) * math.sin(half) * rot.conjugate()
    elif branch == LOWER:
        up = (c + 1j * (cfg.omega0 + cfg.omega) * s_over) * math.sin(half) * rot
        down = -(c + 1j * (cfg.omega0 - cfg.omega) * s_over) * math.cos(half) * rot.conjugate()
    else:
        raise ValueError(f"branch must be '{UPPER}' or '{LOWER}', got {branch!r}")
    return SpinState(up, down)


def evolve_ode(
    t: float, branch: str, cfg: RotorConfig, spec: OdeSpec | None = None
) -> OdeResult:
    """RK4 oracle for `evolve_closed_form`, via the shared fixed-step kernel.

    The step count from ``spec`` is per drive period and is scaled up when
    the window spans several periods or when the Larmor/precession frequency
    exceeds the drive.
    """
    _, states, drift = ode_trajectory(t, branch, cfg, spec, samples=1)
    return OdeResult(states[-1], drift)


def ode_trajectory(
    t: float,
    branch: str,
    cfg: RotorConfig,
    spec: OdeSpec | None = None,
    samples: int = 16,
) -> tuple[np.ndarray, np.ndarray, float]:
    """States at ``samples + 1`` equispaced times in [0, t] from the RK4 kernel.

    Returns (times, states, norm_drift).
    """
    if spec is None:
        spec = OdeSpec()
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
    n_steps = max(
        math.ceil(spec.steps_per_period * periods),
        math.ceil(20.0 * fastest * t / (2.0 * math.pi)),
        100,
    )
    n_steps = math.ceil(n_steps / samples) * samples
    stride = n_steps // samples
    states, drift = kernels.spin_rk4(
        cfg.alpha, cfg.omega, cfg.omega0, t, n_steps, initial.up, initial.down, stride
    )
    if not np.all(np.isfinite(states.view(float))):
        raise OdeDivergenceError("two-level RK4 integration produced non-finite values")
    times = np.linspace(0.0, t, samples + 1)
    return times, states, drift


def return_probability(t: float, branch: str, cfg: RotorConfig) -> float:
    """Probability of finding the evolved state back in its initial eigenstate."""
    initial, lower, _, _ = instantaneous_eigenstates(0.0, cfg)
    if branch == LOWER:
        initial = lower
    evolved = evolve_closed_form(t, branch, cfg)
    amp = evolved.overlap(initial)
    return abs(amp) ** 2


def return_probability_cycle(omega: float, cfg: RotorConfig) -> float:
    """Return probability after exactly one field cycle, as a closed form in
    the drive frequency ``omega`` (the drive stored in ``cfg`` is ignored)."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    ratio = np.array([omega / cfg.omega0])
    return float(kernels.cycle_return_curve(ratio, cfg.alpha)[0])


def branch_symmetry_check(t: float, cfg: RotorConfig) -> tuple[float, float, float]:
    """Return probabilities of both branches at time ``t`` and their gap.

    The two branches give identical return probabilities; the gap measures
    only rounding.
    """
    p_upper = return_probability(t, UPPER, cfg)
    p_lower = return_probability(t, LOWER, cfg)
    return p_upper, p_lower, abs(p_upper - p_lower)


def omega_scan(
    ratio_min: float,
    ratio_max: float,
    points: int,
    alphas,
    cfg: RotorConfig | None = None,
) -> list[ReturnCurve]:
    """Single-cycle return probability curves, one per cone angle."""
    if not 0.0 < ratio_min < ratio_max <= kernels.MAX_RATIO:
        raise ValueError(
            f"need 0 < ratio_min < ratio_max <= {kernels.MAX_RATIO:g}, "
            f"got [{ratio_min}, {ratio_max}]"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if cfg is None:
        cfg = RotorConfig()
    ratios = np.linspace(ratio_min, ratio_max, points)
    curves = []
    for alpha in np.atleast_1d(np.asarray(alphas, dtype=float)):
        rho = kernels.cycle_return_curve(ratios, float(alpha))
        curves.append(ReturnCurve(alpha=float(alpha), ratios=ratios, probabilities=rho))
    return curves


def anti_adiabatic_threshold(
    epsilon: float,
    cfg: RotorConfig | None = None,
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
    if cfg is None:
        cfg = RotorConfig()
    (curve,) = omega_scan(ratio_min, ratio_max, points, [cfg.alpha], cfg)
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
        alpha=cfg.alpha,
        epsilon=epsilon,
        monotone_onset=monotone,
        frozen_onset=frozen,
        max_probability=float(rho.max()),
        ratio_range=(ratio_min, ratio_max),
        points=points,
    )
