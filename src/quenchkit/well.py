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

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from quenchkit import kernels
# central_difference is the force stencils' test oracle, imported here only
# because perfbench/tracer.py wraps `well.central_difference` by that name
from quenchkit.numerics import central_difference, integrate  # noqa: F401

DEFAULT_LEVELS = 10
DEFAULT_FORCE_STEP = 1e-4

# Elements of coefficient rows computed at once by the energy scans: bounds
# their temporaries at about 0.5 MiB per thread (2^16 raised well-scan's
# peak RSS by 3 MiB on one thread).  On two threads 2^15 hands the
# interpreter lock over half as often as 2^14, which gained no wall time;
# on one thread the two sizes run alike.
ENERGY_BLOCK = 32768

# Most threads that share out the blocks of one energy call, further capped
# by the CPUs the process may run on; 2 is the only count measured.
ENERGY_WORKERS = 2


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
    def ground_energy(self) -> float:
        """Ground-state energy of the initial box, h^2 / (8 m W^2), in J."""
        return self.planck**2 / (8.0 * self.mass * self.width**2)


def _check_gamma(gamma: float) -> float:
    """``gamma`` as a float, once it is a valid width ratio."""
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if gamma > kernels.MAX_RATIO:
        raise ValueError(f"gamma must be at most {kernels.MAX_RATIO:g}, got {gamma}")
    return gamma


def eigen_energy(n: int, width: float, cfg: WellConfig | None = None) -> float:
    """Energy of level ``n`` in a box of the given width, in joules."""
    if cfg is None:
        cfg = WellConfig()
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    return (cfg.planck * n) ** 2 / (8.0 * cfg.mass * width**2)


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


def expansion_coefficient(n: int, gamma: float) -> float:
    """Overlap of the frozen initial ground state with post-quench level ``n``.

    Closed forms from `kernels.expansion_coefficients`: a shrink formula for
    gamma < 1 and an expansion formula for gamma > 1, which gives exactly
    1/sqrt(gamma) at an integer gamma = n, where the new level reproduces
    the old state.  The identity case gamma = 1 gives 1 for n = 1 and 0
    otherwise.
    """
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    return float(kernels.expansion_coefficients(_check_gamma(gamma), n)[n - 1])


def overlap_oracle(n, gamma: float, *, tolerance=1e-10):
    """Quadrature cross-check of `expansion_coefficient`.

    Integrates the product of the old ground state and the new level-``n``
    eigenfunction over their common support by Gauss-Legendre quadrature,
    one panel per arch of the oscillating eigenfunction, on which the
    integrand is a product of two sines and the rules converge
    geometrically.  Each panel gets an equal share of ``tolerance``.  The
    result is dimensionless, so the integral runs over the reference box of
    `WellConfig`.

    ``n`` may be an array of levels: every panel of every level then goes
    through one `integrate` call, and the result is an array over ``n``.
    """
    levels = np.asarray(n)
    if np.any(levels < 1):
        raise ValueError(f"level index must be >= 1, got {n}")
    w0 = WellConfig().width
    w1 = _check_gamma(gamma) * w0
    upper = min(w0, w1)

    edges = []  # panel edges, one list per requested level
    for k in levels.ravel().tolist():
        nodes = [j * w1 / k for j in range(1, k + 1) if j * w1 / k < upper]
        edges.append([0.0, *nodes, upper])
    counts = [len(e) - 1 for e in edges]
    lo = np.array([x for e in edges for x in e[:-1]])
    hi = np.array([x for e in edges for x in e[1:]])
    panel_level = np.repeat(levels.ravel(), counts)
    # the finest level's share must not underflow to zero
    shares = max(counts) + 1
    if not tolerance / shares > 0.0:
        raise ValueError(
            f"tolerance {tolerance} divided into {shares} panel shares at "
            f"gamma = {gamma} gives {tolerance / shares}, not a positive share"
        )
    panel_tol = np.repeat([tolerance / len(e) for e in edges], counts)

    def integrand(nodes):
        new_level = eigen_wavefunction(panel_level[nodes.root], w1, nodes.x)
        return new_level * eigen_wavefunction(1, w0, nodes.x)

    panels = iter(integrate(integrand, lo, hi, tolerance=panel_tol).tolist())
    # each level's panels summed left to right
    out = [sum(next(panels) for _ in range(c)) for c in counts]
    return out[0] if levels.ndim == 0 else np.reshape(out, levels.shape)


def decompose(gamma: float, n_levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Expansion coefficients b_n for levels n = 1..n_levels, b_n at index
    n - 1.  The populations are ``b * b``; the probability the levels
    capture is their sum."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    return kernels.expansion_coefficients(_check_gamma(gamma), n_levels)


def _energies(gammas: np.ndarray, n_levels: int):
    """Renormalized, raw and captured energies at each of ``gammas``.

    The coefficient rows are computed a block of about `ENERGY_BLOCK`
    elements at a time, squared and weighted in place; each row's sums are
    the same doubles as for that gamma alone.  The blocks are dealt out in
    turn to up to `ENERGY_WORKERS` threads, the calling thread one of them,
    each with its own buffer; numpy releases the GIL in the row arithmetic.
    A failure names the gamma of the first failing block, as one thread
    running the blocks in order would.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    in_domain = (gammas > 0.0) & (gammas <= kernels.MAX_RATIO)
    if not in_domain.all():
        _check_gamma(gammas[np.argmin(in_domain)])
    terms = kernels.level_terms(n_levels)
    raw = np.empty(len(gammas))
    captured = np.empty(len(gammas))
    rows = max(1, ENERGY_BLOCK // n_levels)
    starts = range(0, len(gammas), rows)
    workers = min(ENERGY_WORKERS, _cpus(), len(starts)) if len(starts) > 1 else 1
    shares = [starts[i::workers] for i in range(workers)]
    failures = [None] * workers
    errstate = np.geterr()  # a new thread starts from numpy's default

    def work(i):
        with np.errstate(**errstate):
            failures[i] = _energy_blocks(gammas, terms, shares[i], rows, raw, captured)

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=work, args=(i,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return raw / captured, raw, captured


def _cpus() -> int:
    # CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _energy_blocks(gammas, terms, starts, rows, raw, captured):
    # `_energies` for the blocks at ``starts``, in order, into their slices
    # of ``raw`` and ``captured``; stops at the first block that raises and
    # returns (its start, the exception), else None
    n = terms[0]
    buffer = np.empty((min(rows, len(gammas)), len(n)))
    for start in starts:
        block = slice(start, start + rows)
        g = gammas[block]
        try:
            rho = kernels.expansion_coefficients(
                g, len(n), out=buffer[: len(g)], terms=terms
            )
            rho *= rho
            np.sum(rho, axis=1, out=captured[block])
            # checked before dividing: below gamma ~ 2e-162 g * g is 0 as well
            if not (captured[block] > 0.0).all():
                raise ValueError(
                    f"captured probability underflows to zero at gamma = "
                    f"{g[np.argmin(captured[block] > 0.0)]} with {len(n)} levels"
                )
            rho *= n
            rho *= n
            np.sum(rho, axis=1, out=raw[block])
            raw[block] /= g * g
        except Exception as exc:
            return start, exc
    return None


def quench_energy(gamma: float, n_levels: int = DEFAULT_LEVELS) -> tuple[float, float, float]:
    """Truncated post-quench energy in units of the initial ground energy:
    ``(energy, raw, captured)``.  ``raw`` is the plain sum over the first
    ``n_levels`` levels, ``captured`` the probability they hold, and
    ``energy = raw / captured`` re-weights the populations to sum to one."""
    energies = _energies(np.array([_check_gamma(gamma)]), n_levels)
    return tuple(float(v[0]) for v in energies)


def _forces(gammas: np.ndarray, n_levels: int, step: float):
    # `force_scan`'s energy and force columns at ``gammas``: the energies,
    # then every stencil point in one more call.  The energies come first,
    # so a gamma out of their domain is named before the step is checked.
    energy = _energies(gammas, n_levels)[0]
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not (gammas - step > 0.0).all():
        g = gammas[np.argmin(gammas - step > 0.0)]
        raise ValueError(f"gamma - step must stay positive, got gamma={g}, step={step}")
    # Above about 2^19 at step 1e-4 the doubles next to gamma are too coarse
    # for the step: the stencil's differences are rounding, not slope.
    coarse = np.spacing(gammas + 2.0 * step) > 1e-6 * step
    if coarse.any():
        raise ValueError(
            f"the force stencil cannot resolve step {step} at gamma = "
            f"{gammas[np.argmax(coarse)]}: the doubles there are over 1e-6 step apart"
        )
    # Within 2 step of an integer k >= 1 the stencil is second-order one-sided
    # and points away from k: h = -step below it and +step above (rounding is
    # symmetric in sign, so one formula serves both), with its far point at
    # gamma + 2h.  Elsewhere it is central: h = step, far point gamma - step.
    k = np.floor(gammas + 0.5)
    one_sided = (k >= 1.0) & (np.abs(gammas - k) < 2.0 * step)
    h = np.where(one_sided & (gammas < k), -step, step)
    far = np.where(one_sided, gammas + 2.0 * h, gammas - step)
    near, far = np.split(_energies(np.concatenate((gammas + h, far)), n_levels)[0], 2)
    slope = np.where(one_sided, (-3.0 * energy + 4.0 * near - far) / (2.0 * h),
                     (near - far) / (2.0 * step))
    return energy, -slope


def matter_wave_force(
    gamma: float, n_levels: int = DEFAULT_LEVELS, step: float = DEFAULT_FORCE_STEP
) -> float:
    """Force on the wall, in units of (ground energy / initial width).

    Defined as the negative slope of the renormalized energy with respect to
    the width ratio; positive values push the wall outward.  The energy curve
    has kink candidates at integer ratios, so within ``2 * step`` of an
    integer a second-order one-sided difference pointing away from the
    integer replaces the central one.  A gamma whose doubles are too coarse
    for ``step`` (from about 2^19 at the default step) raises ValueError.
    """
    return float(_forces(np.array([_check_gamma(gamma)]), n_levels, step)[1][0])


def population_scan(gamma: float, n_levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Table of (n, population) rows for n = 1..n_levels."""
    b = decompose(gamma, n_levels)
    n = np.arange(1.0, n_levels + 1.0)
    return np.column_stack([n, b * b])


def _gamma_grid(gamma_min: float, gamma_max: float, points: int) -> np.ndarray:
    if not 0.0 < gamma_min < gamma_max <= kernels.MAX_RATIO:
        raise ValueError(
            f"need 0 < gamma_min < gamma_max <= {kernels.MAX_RATIO:g}, "
            f"got [{gamma_min}, {gamma_max}]"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    return np.linspace(gamma_min, gamma_max, points)


def energy_scan(
    gamma_min: float, gamma_max: float, points: int, n_levels: int = DEFAULT_LEVELS
) -> np.ndarray:
    """Table of (gamma, renormalized energy) on a uniform grid."""
    grid = _gamma_grid(gamma_min, gamma_max, points)
    energy = _energies(grid, n_levels)[0]
    return np.column_stack([grid, energy])


def captured_scan(
    gamma_min: float, gamma_max: float, points: int, n_levels: int = DEFAULT_LEVELS
) -> np.ndarray:
    """Table of (gamma, probability captured by n_levels) on a uniform grid."""
    grid = _gamma_grid(gamma_min, gamma_max, points)
    captured = _energies(grid, n_levels)[2]
    return np.column_stack([grid, captured])


def force_scan(
    gamma_min: float,
    gamma_max: float,
    points: int,
    n_levels: int = DEFAULT_LEVELS,
    step: float = DEFAULT_FORCE_STEP,
) -> np.ndarray:
    """Table of (gamma, renormalized energy, force) on a uniform grid; the
    force is in units of ground energy / initial width.

    Grid points at exact integers gamma >= 1 are omitted: the energy has a
    kink candidate there and no two-sided derivative is taken.  A point next
    to an integer, however close, keeps its row.
    """
    grid = _gamma_grid(gamma_min, gamma_max, points)
    kept = grid[(grid < 1.0) | (grid != np.floor(grid))]
    if kept.size == 0:
        raise ValueError(
            f"every grid point in [{gamma_min}, {gamma_max}] is an exact integer >= 1, "
            f"where no force is taken"
        )
    return np.column_stack([kept, *_forces(kept, n_levels, step)])
