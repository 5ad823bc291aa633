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

import functools
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from quenchkit import kernels
# central_difference is the force stencils' test oracle, imported here only
# because perfbench/tracer.py wraps `well.central_difference` by that name
from quenchkit.numerics import central_difference, integrate, refuse  # noqa: F401

DEFAULT_LEVELS = 10
DEFAULT_FORCE_STEP = 1e-4

# Elements of coefficient rows computed at once by the energy scans: bounds
# their temporaries at about 0.5 MiB per thread (2^16 raised well-scan's
# peak RSS by 3 MiB on one thread).  On two threads 2^15 hands the
# interpreter lock over half as often as 2^14, which gained no wall time;
# on one thread the two sizes run alike.
ENERGY_BLOCK = 32768

# Panels of `overlap_oracle` built, integrated and summed at once, in whole
# levels (a level with more panels goes alone); no result depends on it.
# `oracle-check --max-level 1413` at `numerics.BLOCK` = 128, medians of 5
# alternating runs (2 CPUs):
#     8192  33.15 MiB   9.8k faults  10.42 s
#     4096  32.70 MiB  10.2k         10.06 s
#     2048  32.60 MiB   7.0k         10.04 s
#     1024  32.55 MiB   6.7k          9.78 s
# 1024 and 2048 differ by less than the runs' spread; crosscheck's 40 levels
# fit in one chunk per gamma at any of these.
ORACLE_CHUNK = 2048


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
        return eigen_energy(1, self.width, self)


def _check_gamma(gamma):
    """``gamma``, a float or an array, once every element is a valid width
    ratio; the first that is not is named."""
    refuse(np.isfinite(gamma) & (gamma > 0.0), gamma, "gamma must be finite and positive, got {}")
    top = kernels.MAX_RATIO
    refuse(gamma <= top, gamma, f"gamma must be at most {top:g}, got {{}}")
    return gamma


def eigen_energy(n: int, width: float, cfg: WellConfig | None = None) -> float:
    """Energy of level ``n`` in a box of the given width, in joules."""
    if cfg is None:
        cfg = WellConfig()
    refuse(n >= 1, n, "level index must be >= 1, got {:g}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    return (cfg.planck * n) ** 2 / (8.0 * cfg.mass * width**2)


def eigen_wavefunction(n, width: float, q):
    """Amplitude sqrt(2)/sqrt(W) sin(n pi q / W) at position ``q``; zero outside the box.

    ``n`` and ``q`` broadcast: array arguments give an array of amplitudes.
    """
    refuse(np.asarray(n) >= 1, n, "level index must be >= 1, got {:g}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    q = np.asarray(q, dtype=float)
    psi = math.sqrt(2.0) / math.sqrt(width) * np.sin(n * math.pi * q / width)  # finite at any W
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
    refuse(n >= 1, n, "level index must be >= 1, got {:g}")
    return float(kernels.expansion_coefficients(_check_gamma(gamma), n)[n - 1])


def overlap_oracle(n, gamma: float):
    """Quadrature cross-check of `expansion_coefficient`: ``(b, error)``.

    Integrates the product of the old ground state and the new level-``n``
    eigenfunction over their common support by Gauss-Legendre quadrature,
    one panel per arch of the oscillating eigenfunction, on which the
    integrand is a product of two sines and the rules converge
    geometrically.  ``error`` is the sum of the level's panel gaps between
    the 16- and 24-point rules.  The result is dimensionless, so the
    integral runs over the reference box of `WellConfig`.

    ``n`` may be an array of levels, and ``b`` and ``error`` are then arrays
    over ``n``.  The levels' panels go through `integrate` a chunk of whole
    levels at a time (`ORACLE_CHUNK`), so the memory does not grow with the
    number of levels; each level's values are the doubles of that level alone.
    """
    levels = np.asarray(n)
    refuse(levels >= 1, levels, "level index must be >= 1, got {:g}")
    w0 = WellConfig().width
    w1 = _check_gamma(gamma) * w0
    upper = min(w0, w1)

    def integrand(nodes):  # reads the chunk's `panel_level`, set below
        new_level = eigen_wavefunction(panel_level[nodes.root], w1, nodes.x)
        return new_level * eigen_wavefunction(1, w0, nodes.x)

    b, error = [], []
    for chunk in _level_chunks(levels.ravel().tolist(), w1, upper):
        counts = [e.size - 1 for _, e in chunk]
        lo = np.concatenate([e[:-1] for _, e in chunk])
        hi = np.concatenate([e[1:] for _, e in chunk])
        panel_level = np.repeat([k for k, _ in chunk], counts)
        values, gaps = integrate(integrand, lo, hi)
        error += np.add.reduceat(gaps, np.cumsum(counts) - counts).tolist()
        panels = iter(values.tolist())
        # each level's panels summed left to right, one rounding per addition:
        # the builtin sum compensates its rounding since Python 3.12
        b += [functools.reduce(operator.add, itertools.islice(panels, c), 0) for c in counts]
    if levels.ndim == 0:
        return b[0], error[0]
    return np.reshape(b, levels.shape), np.reshape(error, levels.shape)


def _level_chunks(levels, w1, upper):
    # `overlap_oracle`'s levels as lists of (k, panel edges of level k), each
    # list of whole levels holding at most `ORACLE_CHUNK` panels, or one level
    # if that level alone has more.  Level k's inner edges are the j w1 / k,
    # j = 1..k, below ``upper``; k must be an int, as for range.
    chunk, panels = [], 0
    for k in levels:
        inner = np.arange(1.0, operator.index(k) + 1.0) * w1 / k
        edges = np.concatenate(((0.0,), inner[inner < upper], (upper,)))
        if chunk and panels + edges.size - 1 > ORACLE_CHUNK:
            yield chunk
            chunk, panels = [], 0
        chunk.append((k, edges))
        panels += edges.size - 1
    if chunk:
        yield chunk


def decompose(gamma: float, n_levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """Expansion coefficients b_n for levels n = 1..n_levels, b_n at index
    n - 1.  The populations are ``b * b``; the probability the levels
    capture is their sum."""
    refuse(n_levels >= 1, n_levels, "n_levels must be >= 1, got {:g}")
    return kernels.expansion_coefficients(_check_gamma(gamma), n_levels)


def _energies(gammas: np.ndarray, n_levels: int):
    """Renormalized, raw and captured energies at each of ``gammas``.

    The coefficient rows are computed a block of about `ENERGY_BLOCK`
    elements at a time, squared and weighted in place; each row's sums are
    the same doubles as for that gamma alone.  The calling thread takes
    blocks 0, 2, 4, ...; given two blocks or more and more than one CPU, one
    helper thread with its own buffer takes blocks 1, 3, 5, ... under the
    caller's `np.errstate` (numpy releases the GIL in the row arithmetic).
    The helper is joined before the call returns or raises, and its
    exception is raised unless the caller has one.  The captured sums are
    checked after the join, so an underflow names the first failing gamma.
    """
    refuse(n_levels >= 1, n_levels, "n_levels must be >= 1, got {:g}")
    _check_gamma(gammas)
    raw, captured = np.empty(len(gammas)), np.empty(len(gammas))
    rows = max(1, ENERGY_BLOCK // n_levels)
    starts = range(0, len(gammas), rows)
    helper, failure = None, []
    if len(starts) > 1 and _cpus() > 1:
        errstate = np.geterr()  # a new thread starts from numpy's default

        def odd_blocks(share):
            try:
                with np.errstate(**errstate):
                    _energy_blocks(gammas, n_levels, share, rows, raw, captured)
            except Exception as exc:
                failure.append(exc)

        helper = threading.Thread(target=odd_blocks, args=(starts[1::2],))
        starts = starts[::2]
        helper.start()
    try:
        _energy_blocks(gammas, n_levels, starts, rows, raw, captured)
    finally:
        if helper is not None:
            helper.join()
    if failure:
        raise failure[0]
    # checked before dividing: below gamma ~ 2e-162 g * g is 0 as well
    refuse(captured > 0.0, gammas,
           f"captured probability underflows to zero at gamma = {{}} with {n_levels} levels")
    raw /= gammas * gammas
    return raw / captured, raw, captured


def _cpus() -> int:
    # CPUs this process may run on
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _energy_blocks(gammas, n_levels, starts, rows, raw, captured):
    # `_energies`' sums for the blocks at ``starts``, in order, into their
    # slices of ``raw`` and ``captured``
    nn = np.arange(1.0, n_levels + 1.0) ** 2  # exact for n < 2^26: one rounding per weight
    buffer = np.empty((min(rows, len(gammas)), n_levels))
    for start in starts:
        block = slice(start, start + rows)
        g = gammas[block]
        rho = kernels.expansion_coefficients(g, n_levels, out=buffer[: len(g)])
        rho *= rho
        np.sum(rho, axis=1, out=captured[block])
        rho *= nn
        np.sum(rho, axis=1, out=raw[block])


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
    refuse(gammas - step > 0.0, gammas,
           f"gamma - step must stay positive, got gamma={{}}, step={step}")
    # Above about 2^19 at step 1e-4 the doubles next to gamma are too coarse
    # for the step: the stencil's differences are rounding, not slope.
    refuse(np.spacing(gammas + 2.0 * step) <= 1e-6 * step, gammas,
           f"the force stencil cannot resolve step {step} at gamma = {{}}: "
           f"the doubles there are over 1e-6 step apart")
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
