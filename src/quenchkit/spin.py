"""Spin-1/2 in a rotating magnetic field: exact dynamics and return probability.

The field has fixed magnitude and rotates at frequency omega on a cone of
half-angle ``alpha`` about the z axis.  Starting from an instantaneous
eigenstate, the state evolves exactly; the return probability measures how
much of it stays in that eigenstate.  For drives much faster than the Larmor
frequency omega0 the state effectively freezes -- `anti_adiabatic_threshold`
locates the drive ratio where that happens.

Everything is in Larmor units: frequencies are the drive ratio x = omega /
omega0 and the rates built from it, times are in units of 1 / omega0 and
energies in units of hbar omega0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from quenchkit import kernels
from quenchkit.numerics import OdeDivergenceError, refuse

UPPER = "upper"  # eigenvalue +1/2
LOWER = "lower"  # eigenvalue -1/2

DEFAULT_RATIO_RANGE = (0.05, 20.0)
DEFAULT_SCAN_POINTS = 10_000

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
    """Cone angle and drive ratio omega / omega0: one configuration, or many
    when ``alpha`` and ``ratio`` are arrays of one broadcast shape.

    Defaults drive a 45-degree cone at the Larmor frequency.
    """

    alpha: float = math.pi / 4  # rad, cone half-angle
    ratio: float = 1.0  # drive frequency over the Larmor frequency

    def __post_init__(self):
        ratio, top = self.ratio, kernels.MAX_RATIO
        _check_alpha(self.alpha)
        np.broadcast_shapes(np.shape(self.alpha), np.shape(ratio))  # or ValueError
        # kernels.rabi_rate squares the ratios, which overflow past
        # sqrt(DBL_MAX); below 1 / MAX_RATIO a ratio leaves the range of a
        # double.  nan and inf fail the first bound, 0 and below the second.
        must = "drive ratio omega / omega0 must be"
        refuse(ratio <= top, ratio, f"{must} at most {top:g}, got {{:g}}")
        refuse(ratio >= 1.0 / top, ratio, f"{must} at least {1.0 / top:g}, got {{:g}}")

    @property
    def rabi_lambda(self):
        """Generalized precession rate sqrt(x^2 + 1 - 2 x cos(alpha)) at drive
        ratio x: a float for one configuration, an array for many."""
        lam = kernels.rabi_rate(self.ratio, self.alpha)
        return float(lam) if np.ndim(lam) == 0 else lam

    @property
    def drive_period(self):
        return 2.0 * math.pi / self.ratio


def _check_alpha(alpha) -> None:
    refuse((0.0 <= alpha) & (alpha <= math.pi), alpha, "alpha must lie in [0, pi], got {}")


def _check_single(cfg: RotorConfig, name: str) -> None:
    shape = np.broadcast_shapes(np.shape(cfg.alpha), np.shape(cfg.ratio))
    if shape:
        raise ValueError(f"{name} takes one configuration, got an array of shape {shape}")


def hamiltonian(t: float, cfg: RotorConfig) -> np.ndarray:
    """2x2 Hamiltonian at time ``t``, in units of hbar omega0.

    Traceless Hermitian with eigenvalues +/- 1/2 at every instant: 1/2 times
    the field direction contracted with the Pauli matrices.  It is i A(t)
    for the generator A of the RK4 oracle, y' = A(t) y, so the two share one
    matrix.
    """
    _check_single(cfg, "hamiltonian")
    a00, a01, a10, a11 = kernels._spin_generator(t, cfg.alpha, cfg.ratio, 1.0)
    return 1j * np.array([[a00, a01], [a10, a11]], dtype=complex)


def instantaneous_eigenstates(
    t: float, cfg: RotorConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Eigenstates of the instantaneous Hamiltonian, each a normalized complex
    array (up, down), and their energies +/- 1/2: the t = 0 eigenstates of
    `_branch_terms` with the field's phase e^{i x t} on the down component
    of the upper one and e^{-i x t} on the up component of the lower one."""
    _check_single(cfg, "instantaneous_eigenstates")
    phase = complex(math.cos(cfg.ratio * t), math.sin(cfg.ratio * t))
    turn = np.array([[1.0, phase], [phase.conjugate(), 1.0]])
    upper, lower = (_branch_terms(b, cfg)[0] * row for b, row in zip((UPPER, LOWER), turn))
    return upper, lower, 0.5, -0.5


def _check_time(t, rate=0.0) -> np.ndarray:
    """``t`` as a float array broadcast against ``rate``, once every element
    is finite and non-negative and keeps the phase ``rate * t`` finite."""
    t, rate = np.broadcast_arrays(np.asarray(t, dtype=float), rate)
    # no bound at a rate of 0, nor below a rate of 1, where the bound overflows
    with np.errstate(divide="ignore", over="ignore"):
        ok = (t >= 0.0) & (t < sys.float_info.max / rate)
    if not ok.all():
        bad, rate = t.flat[np.argmin(ok)], rate.flat[np.argmin(ok)]
        if 0.0 <= bad < math.inf:
            raise ValueError(f"t = {bad:g} overflows the phase {rate:g} * t")
        raise ValueError(f"t must be finite and non-negative, got {bad}")
    return t


def _branch_terms(branch: str, cfg: RotorConfig) -> np.ndarray:
    """The eigenstate a of ``branch`` at t = 0, which is real, and the h of
    `evolve_closed_form`: shape ``(2,) + cfg's shape + (2,)``."""
    half = 0.5 * cfg.alpha
    w, ch, sh = np.broadcast_arrays(cfg.ratio, np.cos(half), np.sin(half))
    terms = {UPPER: ((ch, sh), (w - 1.0, -(1.0 + w))), LOWER: ((sh, -ch), (1.0 + w, 1.0 - w))}
    if branch not in terms:
        raise ValueError(f"branch must be '{UPPER}' or '{LOWER}', got {branch!r}")
    return np.moveaxis(np.array(terms[branch]), 1, -1)


def evolve_closed_form(t, branch: str, cfg: RotorConfig) -> np.ndarray:
    """Exact state at time ``t`` from the instantaneous eigenstate ``branch``
    ("upper" or "lower"), which it reproduces exactly at t = 0.  ``t`` is a
    float or an array; the complex amplitudes (up, down) are on the last
    axis, shape ``np.shape(t)`` broadcast against cfg's shape ``+ (2,)``.

    In the frame rotating with the drive the state is (c - i s K) a, with
    c = cos(lam t/2), s = sin(lam t/2)/lam and K a = -h a componentwise for K
    twice the generator there; back in the lab frame up turns by
    exp(-i w t/2) and down by exp(i w t/2).  The arithmetic is real and
    rounds as the complex form does, down to the phases 0.5 (lam t) and
    (0.5 w) t; numpy's complex multiply may round differently.
    """
    w = np.asarray(cfg.ratio, dtype=float)
    lam = np.asarray(cfg.rabi_lambda)
    t = _check_time(t, np.maximum(w, lam))[..., None]
    a, h = _branch_terms(branch, cfg)
    w, lam = w[..., None], lam[..., None]
    half, turn = t * lam * 0.5, t * (0.5 * w)
    c, cr, sr = np.cos(half), np.cos(turn), np.sin(turn) * np.array([-1.0, 1.0])
    # sin(lam t/2)/lam, whose only 0/0 is lam == 0 (alpha = 0 at resonance)
    s = np.where(lam == 0.0, 0.5 * t, np.sin(half) / np.where(lam == 0.0, 1.0, lam))
    p, q = c * a, s * h * a
    psi = np.empty(p.shape, complex)
    psi.real, psi.imag = p * cr - q * sr, p * sr + q * cr
    return psi


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
    _check_single(cfg, "ode_trajectory")
    _check_time(t)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    initial = _branch_terms(branch, cfg)[0]
    if t == 0.0:
        times = np.zeros(samples + 1)
        states = np.tile(initial.astype(complex), (samples + 1, 1))
        return times, states, 0.0
    fastest = max(cfg.ratio, 1.0, cfg.rabi_lambda)
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
            f"RK4 over t = {t:g} at drive ratio omega / omega0 = "
            f"{cfg.ratio:g} needs {n_steps:.10g} steps, above the budget "
            f"of {MAX_RK4_STEPS}"
        )
    n_steps = int(n_steps)
    stride = n_steps // samples
    states, drift = kernels.spin_rk4(
        cfg.alpha, cfg.ratio, 1.0, t, n_steps, *initial, stride
    )
    if not np.all(np.isfinite(states.view(float))):
        raise OdeDivergenceError("two-level RK4 integration produced non-finite values")
    times = np.linspace(0.0, t, samples + 1)
    return times, states, drift


def return_probability(t, branch: str, cfg: RotorConfig):
    """Probability of finding the evolved state back in its initial
    eigenstate: a float for a float ``t`` and one configuration, else an
    array: A / (A + B), A and B the squared overlaps of psi(t) with the
    initial eigenstate a and with its orthogonal partner (a_1, -a_0), so it
    lies in [0, 1] in floating point too."""
    psi, a = evolve_closed_form(t, branch, cfg), _branch_terms(branch, cfg)[0]

    def square(v):
        # |<v|psi(t)>|^2 for a real v, squared by pow like abs(z) ** 2 of a
        # Python complex (x * x differs in ~0.1% of last bits)
        re, im = psi.real * v, psi.imag * v
        return np.float_power(np.hypot(re[..., 0] + re[..., 1], im[..., 0] + im[..., 1]), 2.0)

    stay = square(a)
    p = stay / (stay + square(a[..., ::-1] * [1.0, -1.0]))
    return float(p) if p.ndim == 0 else p


def return_probability_cycle(cfg: RotorConfig):
    """Return probability after exactly one drive cycle, as a closed form in
    the drive ratio: a float for one configuration, an array of cfg's shape
    for many."""
    ratio, alpha = np.broadcast_arrays(cfg.ratio, cfg.alpha)
    rho = kernels.cycle_return_curve(ratio.ravel(), alpha.ravel()).reshape(ratio.shape)
    return float(rho) if rho.ndim == 0 else rho


def linspace_blocks(lo: float, hi: float, points: int, block: int):
    """Yield ``np.linspace(lo, hi, points)`` as consecutive arrays of at most
    ``block`` doubles, so that no array of ``points`` doubles is built.

    The doubles are linspace's own: ``i * step + lo`` with ``step = (hi - lo)
    / (points - 1)``, each operation in place as numpy builds it when ``step``
    is not 0, and the last point ``hi``.  Needs ``points >= 2`` and a ``step``
    that is a nonzero double, as every accepted scan range has: its ends lie
    in [1e-150, 1e150] (`kernels.MAX_RATIO`) or are 0 and 1, and points are
    at most `quenchkit.cli.MAX_ELEMENTS`.  No block is kept here once it is
    yielded, so the caller can free each one before it asks for the next."""
    step = (hi - lo) / (points - 1)

    def part(start, stop):
        x = np.arange(start, stop, dtype=float)
        x *= step
        x += lo
        if stop == points:
            x[-1] = hi
        return x

    for start in range(0, points, block):
        yield part(start, min(start + block, points))


# Drive ratios per block of `omega_scan`, which builds each block of its grid
# and computes its curve there as it yields it, so that no array of
# ``points`` doubles is held.  `omega-scan --alpha 0.7 --points 1000000 -o
# FILE`, medians of 10 alternating runs (2 CPUs, glibc 2.36):
#   grid held whole, 65,536-ratio curve blocks    40.7 MiB    6.7k faults
#   grid and curve in 65,536-ratio blocks         33.6 MiB    6.5k
#   grid and curve in 32,768-ratio blocks         32.1 MiB    7.1k
#   16,384                                        31.1 MiB   20.6k
#    8,192                                        31.1 MiB   46.3k   0.40 s
# against 0.33-0.36 s for the others.  32,768 is the smallest block whose
# faults stay near the whole grid's: glibc's trim threshold follows the
# largest array freed (mallopt(3), M_TRIM_THRESHOLD), so with smaller
# blocks the heap top goes back to the kernel after each one.  At 32,768 a
# grid block kept alive while its rows were written did the same (19.5k
# faults at most PYTHONPATH lengths), hence the ``del`` below.
OMEGA_BLOCK = 32768


def omega_scan(ratio_min: float, ratio_max: float, points: int, alphas):
    """Single-cycle return probability curves, one per cone angle, as the
    row blocks ``spin omega-scan`` writes: an iterator over arrays of at
    most `OMEGA_BLOCK` rows ``(ratio, rho1)``, the angle as a first column
    when there are several, curve after curve.  The ratios are
    ``np.linspace(ratio_min, ratio_max, points)``'s doubles from
    `linspace_blocks` and the curves `kernels.cycle_return_curve`'s, so no
    array of ``points`` doubles is held.  Checks its inputs on the call,
    before any block: raises ``ValueError`` for a range outside
    [1 / `kernels.MAX_RATIO`, `kernels.MAX_RATIO`], fewer than 2 points or
    an angle outside [0, pi]."""
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

    def blocks():
        for alpha in alphas:
            for x in linspace_blocks(ratio_min, ratio_max, points, OMEGA_BLOCK):
                lead = [np.full(len(x), alpha)] if len(alphas) > 1 else []
                rows = np.column_stack((*lead, x, kernels.cycle_return_curve(x, alpha)))
                del x, lead  # only the rows stay alive while they are yielded
                yield rows

    return blocks()


def anti_adiabatic_threshold(
    epsilon: float,
    alpha: float = math.pi / 4,
    ratio_min: float = DEFAULT_RATIO_RANGE[0],
    ratio_max: float = DEFAULT_RATIO_RANGE[1],
    points: int = DEFAULT_SCAN_POINTS,
) -> tuple[float, float, float]:
    """Locate where the single-cycle curve turns monotone and where it freezes.

    Returns ``(monotone, frozen, max_rho1)``, folded over `omega_scan`'s
    blocks as they come.  Both onsets are read off the discrete scan grid,
    with no root polishing: ``monotone`` is the smallest grid ratio beyond
    which the curve is non-decreasing, ``frozen`` the smallest grid ratio
    from which the probability stays at or above ``1 - epsilon``, or nan
    when it is below that at ``ratio_max``; ``max_rho1`` is the largest
    probability on the grid.  The grid should be fine enough that adjacent
    probability differences resolve ``epsilon / 10``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    monotone, frozen, last, top = math.nan, math.nan, math.inf, -math.inf
    for ratios, rho in (rows.T for rows in omega_scan(ratio_min, ratio_max, points, [alpha])):
        # nan before the first block and after a block that ends low
        frozen = float(ratios[0]) if math.isnan(frozen) else frozen
        # a few ulps' drop is rounding noise, not a dip; rho[0] drops from last
        dips = np.flatnonzero(np.diff(rho, prepend=last) < -1e-13)
        monotone = float(ratios[dips[-1]]) if dips.size else monotone
        lows = np.flatnonzero(rho < 1.0 - epsilon)
        if lows.size:
            frozen = float(ratios[lows[-1] + 1]) if lows[-1] + 1 < len(rho) else math.nan
        last, top = rho[-1], max(top, rho.max())
    return monotone, frozen, float(top)
