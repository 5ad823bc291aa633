"""Infinite square well with a suddenly moved wall.

The wall of a one-dimensional box jumps instantly from its initial position
to ``gamma`` times that width, fast enough that the particle's wavefunction
has no time to respond.  The frozen ground state is then re-expanded in the
eigenbasis of the new box, giving level populations, a truncated post-quench
energy (in units of the initial ground energy), and, by differentiating that
energy with respect to the width ratio, the matter-wave force on the wall.

Everything dimensionless here depends on ``gamma`` and the truncation level
count only; physical configuration enters solely through the energy scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from quenchkit import kernels
from quenchkit.numerics import QuadratureSpec, central_difference, integrate

DEFAULT_LEVELS = 10
DEFAULT_FORCE_STEP = 1e-4
DEFAULT_RESONANCE_TOL = 1e-9


class DegenerateDenominatorError(ArithmeticError):
    """Coefficient denominator vanished outside the resonance window."""


@dataclass(frozen=True)
class WellConfig:
    """Physical constants of the initial box: mass, Planck constant, width.

    Defaults give a ground energy of 5.488e-23 J (nanometre-scale box,
    m = 1e-27 kg).
    """

    mass: float = 1e-27  # kg
    planck: float = 6.626e-34  # J s
    width: float = 1e-9  # m, initial width

    def __post_init__(self):
        for name in ("mass", "planck", "width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def hbar(self) -> float:
        return self.planck / (2.0 * math.pi)

    @property
    def ground_energy(self) -> float:
        """Ground-state energy of the initial box, h^2 / (8 m W^2), in J."""
        return self.planck**2 / (8.0 * self.mass * self.width**2)


class Regime(enum.Enum):
    SHRINK = "shrink"
    IDENTITY = "identity"
    EXPAND_RESONANT = "expand_resonant"
    EXPAND_GENERIC = "expand_generic"


@dataclass(frozen=True)
class QuenchRatio:
    """Width ratio gamma = (new width) / (initial width), with the relative
    tolerance used to detect integer resonances gamma = n."""

    gamma: float
    resonance_tol: float = DEFAULT_RESONANCE_TOL

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.resonance_tol < 0.0:
            raise ValueError(
                f"resonance_tol must be non-negative, got {self.resonance_tol}"
            )

    @property
    def nearest_level(self) -> int:
        return int(math.floor(self.gamma + 0.5))

    @property
    def regime(self) -> Regime:
        if abs(self.gamma - 1.0) <= self.resonance_tol:
            return Regime.IDENTITY
        if self.gamma < 1.0:
            return Regime.SHRINK
        k = self.nearest_level
        if abs(self.gamma - k) <= self.resonance_tol * k:
            return Regime.EXPAND_RESONANT
        return Regime.EXPAND_GENERIC

    def new_width(self, cfg: WellConfig) -> float:
        return self.gamma * cfg.width


def _as_ratio(gamma) -> QuenchRatio:
    if isinstance(gamma, QuenchRatio):
        return gamma
    return QuenchRatio(float(gamma))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Frozen-state expansion over the first ``n_levels`` post-quench levels."""

    ratio: QuenchRatio
    n_levels: int
    coefficients: np.ndarray = field(repr=False)  # b_n, index n-1
    populations: np.ndarray = field(repr=False)  # b_n^2
    captured: float  # sum of populations


@dataclass(frozen=True)
class EnergyReport:
    """Post-quench energy in units of the initial ground energy.

    ``renormalized`` re-weights the truncated populations to sum to one;
    ``raw`` is the plain truncated sum.  ``renormalized == raw / captured``
    by construction.
    """

    ratio: QuenchRatio
    n_levels: int
    renormalized: float
    raw: float
    captured: float


@dataclass(frozen=True)
class ForceProfile:
    """Energy and wall force on a gamma grid (resonant points omitted)."""

    gamma: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)  # units of initial ground energy
    force: np.ndarray = field(repr=False)  # units of ground energy / width
    step: float
    n_levels: int


def eigen_energy(n: int, width: float, cfg: WellConfig | None = None) -> float:
    """Energy of level ``n`` in a box of the given width, in joules."""
    if cfg is None:
        cfg = WellConfig()
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    return (cfg.hbar * math.pi * n) ** 2 / (2.0 * cfg.mass * width**2)


def eigen_wavefunction(n, width: float, q):
    """Amplitude sqrt(2/W) sin(n pi q / W) at position ``q``; zero outside the box.

    ``n`` and ``q`` broadcast: array arguments give an array of amplitudes.
    """
    if np.any(np.asarray(n) < 1):
        raise ValueError(f"level index must be >= 1, got {n}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    q = np.asarray(q, dtype=float)
    psi = math.sqrt(2.0 / width) * np.sin(n * math.pi * q / width)
    psi = np.where((q < 0.0) | (q > width), 0.0, psi)
    return float(psi) if psi.ndim == 0 else psi


def expansion_coefficient(n: int, gamma) -> float:
    """Overlap of the frozen initial ground state with post-quench level ``n``.

    Three closed-form cases: a shrink formula for gamma < 1, a generic
    expansion formula for gamma > 1, and 1/sqrt(gamma) at integer resonance
    gamma = n, where the new level reproduces the old state exactly.  The
    identity case gamma = 1 gives 1 for n = 1 and 0 otherwise.
    """
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    r = _as_ratio(gamma)
    g = r.gamma
    regime = r.regime
    if regime is Regime.IDENTITY:
        return 1.0 if n == 1 else 0.0
    if regime is Regime.SHRINK:
        sign = -1.0 if n % 2 == 1 else 1.0
        return sign * 2.0 * n * math.sqrt(g) * math.sin(math.pi * g) / (math.pi * (g * g - n * n))
    if regime is Regime.EXPAND_RESONANT and n == r.nearest_level:
        return 1.0 / math.sqrt(g)
    den = math.pi * (g * g - float(n) * float(n))
    if den == 0.0:
        raise DegenerateDenominatorError(
            f"gamma = {g} coincides with level {n} but resonance_tol = "
            f"{r.resonance_tol} does not classify it as resonant"
        )
    return 2.0 * g * math.sqrt(g) * math.sin(n * math.pi / g) / den


def population(n: int, gamma) -> float:
    """Occupation probability of post-quench level ``n``: the coefficient squared."""
    b = expansion_coefficient(n, gamma)
    return b * b


def overlap_oracle(
    n,
    gamma,
    cfg: WellConfig | None = None,
    spec: QuadratureSpec | None = None,
):
    """Quadrature cross-check of `expansion_coefficient`.

    Integrates the product of the old ground state and the new level-``n``
    eigenfunction over their common support, one panel per arch of the
    oscillating eigenfunction (otherwise level spacings commensurate with the
    bisection points can alias the integrand to zero), each panel to an equal
    share of ``spec.tolerance``.  The result is dimensionless and independent
    of the physical scale in ``cfg``.

    ``n`` may be an array of levels: every panel of every level then goes
    through one `integrate` call, and the result is an array over ``n``.
    """
    levels = np.asarray(n)
    if np.any(levels < 1):
        raise ValueError(f"level index must be >= 1, got {n}")
    if cfg is None:
        cfg = WellConfig()
    if spec is None:
        spec = QuadratureSpec()
    r = _as_ratio(gamma)
    w0 = cfg.width
    w1 = r.new_width(cfg)
    upper = min(w0, w1)

    edges = []  # panel edges, one list per requested level
    for k in levels.ravel().tolist():
        nodes = [j * w1 / k for j in range(1, k + 1) if j * w1 / k < upper]
        edges.append([0.0, *nodes, upper])
    counts = [len(e) - 1 for e in edges]
    lo = np.array([x for e in edges for x in e[:-1]])
    hi = np.array([x for e in edges for x in e[1:]])
    panel_level = np.repeat(levels.ravel(), counts)
    panel_tol = np.repeat([spec.tolerance / len(e) for e in edges], counts)

    def integrand(nodes):
        new_level = eigen_wavefunction(panel_level[nodes.root], w1, nodes.x)
        return new_level * eigen_wavefunction(1, w0, nodes.x)

    panels = iter(integrate(integrand, lo, hi, spec, tolerance=panel_tol).tolist())
    # each level's panels summed left to right
    out = [sum(next(panels) for _ in range(c)) for c in counts]
    return out[0] if levels.ndim == 0 else np.reshape(out, levels.shape)


def decompose(gamma, n_levels: int = DEFAULT_LEVELS) -> SpectralDecomposition:
    """Expansion coefficients and populations for levels 1..n_levels."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    r = _as_ratio(gamma)
    b = kernels.expansion_coefficients(r.gamma, n_levels, r.resonance_tol)
    rho = b * b
    return SpectralDecomposition(
        ratio=r,
        n_levels=n_levels,
        coefficients=b,
        populations=rho,
        captured=float(rho.sum()),
    )


def quench_energy(
    gamma, n_levels: int = DEFAULT_LEVELS, cfg: WellConfig | None = None
) -> EnergyReport:
    """Truncated post-quench energy in units of the initial ground energy.

    ``cfg`` is accepted for signature symmetry with the absolute-energy
    helpers; the report is dimensionless and does not depend on it.
    """
    del cfg
    dec = decompose(gamma, n_levels)
    g = dec.ratio.gamma
    n = np.arange(1.0, n_levels + 1.0)
    raw = float(np.sum(dec.populations * n * n) / (g * g))
    if dec.captured <= 0.0:  # unreachable for gamma > 0, n_levels >= 1
        raise AssertionError("captured probability vanished")
    return EnergyReport(
        ratio=dec.ratio,
        n_levels=n_levels,
        renormalized=raw / dec.captured,
        raw=raw,
        captured=dec.captured,
    )


def matter_wave_force(
    gamma,
    n_levels: int = DEFAULT_LEVELS,
    cfg: WellConfig | None = None,
    step: float = DEFAULT_FORCE_STEP,
) -> float:
    """Force on the wall, in units of (ground energy / initial width).

    Defined as the negative slope of the renormalized energy with respect to
    the width ratio; positive values push the wall outward.  The energy curve
    has kink candidates at integer ratios, so within ``2 * step`` of an
    integer a second-order one-sided difference pointing away from the
    integer replaces the central one.
    """
    r = _as_ratio(gamma)
    g = r.gamma
    if not g - step > 0.0:
        raise ValueError(f"gamma - step must stay positive, got gamma={g}, step={step}")

    def energy(x: float) -> float:
        return quench_energy(QuenchRatio(x, r.resonance_tol), n_levels).renormalized

    k = r.nearest_level
    if k >= 1 and abs(g - k) < 2.0 * step:
        if g >= k:
            slope = (-3.0 * energy(g) + 4.0 * energy(g + step) - energy(g + 2.0 * step)) / (2.0 * step)
        else:
            slope = (3.0 * energy(g) - 4.0 * energy(g - step) + energy(g - 2.0 * step)) / (2.0 * step)
    else:
        slope = central_difference(energy, g, step)
    return -slope


def population_scan(gamma, n_levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Table of (n, population) rows for n = 1..n_levels."""
    dec = decompose(gamma, n_levels)
    n = np.arange(1.0, n_levels + 1.0)
    return np.column_stack([n, dec.populations])


def _gamma_grid(gamma_min: float, gamma_max: float, points: int) -> np.ndarray:
    if not (0.0 < gamma_min < gamma_max and math.isfinite(gamma_max)):
        raise ValueError(
            f"need finite 0 < gamma_min < gamma_max, got [{gamma_min}, {gamma_max}]"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    return np.linspace(gamma_min, gamma_max, points)


def energy_scan(
    gamma_min: float,
    gamma_max: float,
    points: int,
    n_levels: int = DEFAULT_LEVELS,
    cfg: WellConfig | None = None,
) -> np.ndarray:
    """Table of (gamma, renormalized energy) on a uniform grid."""
    grid = _gamma_grid(gamma_min, gamma_max, points)
    energies = [quench_energy(g, n_levels, cfg).renormalized for g in grid]
    return np.column_stack([grid, energies])


def force_scan(
    gamma_min: float,
    gamma_max: float,
    points: int,
    n_levels: int = DEFAULT_LEVELS,
    cfg: WellConfig | None = None,
    step: float = DEFAULT_FORCE_STEP,
) -> ForceProfile:
    """Energy and force over a gamma grid.

    Grid points sitting exactly on an integer resonance are omitted: the
    energy has a kink there and no two-sided derivative exists.
    """
    del cfg
    grid = _gamma_grid(gamma_min, gamma_max, points)
    gs, es, fs = [], [], []
    for g in grid:
        r = QuenchRatio(float(g))
        if r.regime in (Regime.IDENTITY, Regime.EXPAND_RESONANT):
            continue
        gs.append(float(g))
        es.append(quench_energy(r, n_levels).renormalized)
        fs.append(matter_wave_force(r, n_levels, step=step))
    return ForceProfile(
        gamma=np.asarray(gs),
        energy=np.asarray(es),
        force=np.asarray(fs),
        step=step,
        n_levels=n_levels,
    )
