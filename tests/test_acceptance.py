"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE nn [PASS|FAIL]`` line (run with
``pytest -s`` to see them all).

Criterion 05 checks the peak structure of the level occupation against a
prediction reckoned here with ``math`` alone.  For gamma > 1 the overlap is
b_n = 2 gamma^(-1/2) f(n/gamma) with f(k) = sin(pi k) / (pi (1 - k^2)), so
rho_n = (4 / (pi^2 gamma)) sin^2(pi k) / (1 - k^2)^2 at k = n / gamma.  The
envelope sin^2(pi k) / (1 - k^2)^2 has its single global maximum at
k* = 0.837472, the root in (1/2, 1) of
pi (1 - k^2) cos(pi k) + 2 k sin(pi k) = 0; at k = 1 it is only pi^2 / 4, the
resonant rho = 1 / gamma.  The occupation therefore peaks at floor(k* gamma)
or ceil(k* gamma), not at round(gamma), and the distribution is about gamma
wide.  Beyond the main lobe (n >= 2 gamma) sin^2 <= 1 gives the tail bound
rho_n <= 4 gamma^3 / (pi^2 (n^2 - gamma^2)^2).
"""

import math

import numpy as np
import pytest

from quenchkit import cli, spin, well


def check(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def captured(gamma: float, n_levels: int) -> float:
    """The probability the first ``n_levels`` levels capture."""
    b = well.decompose(gamma, n_levels)
    return float(np.sum(b * b))


def test_criterion_01_ground_energy_constant():
    cfg = well.WellConfig(mass=1e-27, planck=6.626e-34, width=1e-9)
    e1 = cfg.ground_energy
    ok = abs(e1 - 5.49e-23) / 5.49e-23 <= 0.005
    check(1, "ground energy 5.49e-23 J within 0.5%", ok, f"E1 = {e1:.4e} J")


def test_criterion_02_closed_form_vs_quadrature_oracle():
    gammas = (0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 2.5, 4.9, 5.0, 10.1)
    worst = max(
        abs(well.expansion_coefficient(n, g) - well.overlap_oracle(n, g))
        for g in gammas
        for n in range(1, 21)
    )
    check(2, "coefficients match quadrature within 1e-13", worst <= 1e-13,
          f"worst |closed - oracle| = {worst:.2e}")


def test_criterion_03_parseval_and_projection_norm():
    worst = 0.0
    for g in (1.5, 2.0, 5.0):
        worst = max(worst, abs(captured(g, 10_000) - 1.0))
    for g in (0.3, 0.5, 0.9):
        target = g - math.sin(2.0 * math.pi * g) / (2.0 * math.pi)
        worst = max(worst, abs(captured(g, 10_000) - target))
    check(3, "captured at N=1e4 matches Parseval/projection norms within 1e-3",
          worst <= 1e-3, f"worst deviation = {worst:.2e}")


def test_criterion_04_mean_energy_conservation():
    worst = max(abs(well.quench_energy(g, 10_000)[1] - 1.0) for g in (1.5, 2.0, 3.0))
    check(4, "raw post-quench energy at N=1e4 equals 1 within 1e-3", worst <= 1e-3,
          f"worst deviation = {worst:.2e}")


def _envelope_peak() -> float:
    """k* by bisection: the envelope's stationarity condition is > 0 below k*."""

    def stationarity(k):
        return math.pi * (1 - k * k) * math.cos(math.pi * k) + 2 * k * math.sin(math.pi * k)

    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stationarity(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_05_population_peak_structure():
    # Reckoning in the module docstring: peak at floor/ceil(k* gamma), n^-4 tail.
    k_star = _envelope_peak()
    peaks_ok = True
    detail = []
    for g, n_levels in ((1.5, 20), (4.9, 20), (10.1, 20), (100.3, math.ceil(3 * 100.3))):
        table = well.population_scan(g, n_levels)
        peak = int(table[np.argmax(table[:, 1]), 0])
        detail.append(f"argmax({g}) = {peak} vs k*g = {k_star * g:.3f}")
        peaks_ok = peaks_ok and peak in (math.floor(k_star * g), math.ceil(k_star * g))

    g = 4.9
    table = well.population_scan(g, 200)
    far = range(math.ceil(2 * g), 201)
    rho = [float(table[n - 1, 1]) for n in far]
    bound = [4 * g**3 / (math.pi**2 * (n * n - g * g) ** 2) for n in far]
    far_ok = max(rho) < 0.02 and all(r <= b * (1 + 1e-12) for r, b in zip(rho, bound))
    detail.append(f"max far rho(4.9) = {max(rho):.4f}")
    check(5, "occupation peaks at floor/ceil(0.837 gamma); far levels < 0.02 and under "
          "the n^-4 tail bound", peaks_ok and far_ok, "; ".join(detail))


def test_criterion_06_truncation_coverage():
    grid = np.linspace(1.0, 5.0, 100)
    caps = np.array([captured(float(g), 10) for g in grid])
    expand_ok = bool(np.all(caps >= 0.95))
    shrink_worst = max(
        abs(captured(g, 10) - (g - math.sin(2 * math.pi * g) / (2 * math.pi)))
        for g in (0.3, 0.5, 0.9)
    )
    check(6, "first 10 levels capture >= 0.95 on [1,5] and shrink norm within 0.02",
          expand_ok and shrink_worst <= 0.02,
          f"min captured = {caps.min():.4f}; shrink gap = {shrink_worst:.4f}")


def test_criterion_07_force_signs():
    shrink = well.force_scan(0.1, 0.9, 81)[:, 2]
    shrink_ok = bool(np.all(shrink > 0.0))
    expand = well.force_scan(1.5, 5.0, 100)[:, 2]
    ratio_ok = shrink.max() > 100.0 * np.max(np.abs(expand))

    _, energy, force = well.force_scan(2.5, 3.5, 101).T
    f_sign = np.sign(force)
    f_flips = np.flatnonzero(f_sign[:-1] * f_sign[1:] < 0.0)
    slope_sign = np.sign(np.diff(energy))
    slope_flips = np.flatnonzero(slope_sign[:-1] * slope_sign[1:] < 0.0)
    flips_ok = f_flips.size > 0 and all(
        np.min(np.abs(slope_flips - i)) <= 1 for i in f_flips
    )
    check(7, "force repulsive on [0.1,0.9], dominant over expansion, flips with energy slope",
          shrink_ok and ratio_ok and flips_ok,
          f"max shrink F = {shrink.max():.0f}; max expand |F| = "
          f"{np.max(np.abs(expand)):.3f}; flips at {f_flips.tolist()}")


def test_criterion_08_spin_oracle_equivalence():
    worst = 0.0
    for alpha in (math.pi / 12, math.pi / 4, math.pi / 3):
        for ratio in (0.3, 1.0, 1.442, 5.0, 15.0):
            cfg = spin.RotorConfig.at_ratio(ratio, alpha=alpha)
            times, states, _ = spin.ode_trajectory(
                cfg.drive_period, spin.UPPER, cfg, samples=16
            )
            for t, state in zip(times, states):
                expected = spin.evolve_closed_form(t, spin.UPPER, cfg)
                worst = max(worst, float(np.max(np.abs(state - expected))))
    check(8, "closed-form evolution matches RK4 within 1e-6 over one cycle",
          worst <= 1e-6, f"worst componentwise diff = {worst:.2e}")


def test_criterion_09_cycle_consistency_and_branch_symmetry():
    rng = np.random.default_rng(20260810)
    worst_cycle = 0.0
    worst_branch = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, math.pi)
        ratio = rng.uniform(0.05, 20.0)
        cfg = spin.RotorConfig.at_ratio(ratio, alpha=alpha)
        worst_cycle = max(
            worst_cycle,
            abs(
                spin.return_probability(cfg.drive_period, spin.UPPER, cfg)
                - spin.return_probability_cycle(cfg)
            ),
        )
        t = rng.uniform(0.0, 1.0) * cfg.drive_period
        gap = spin.return_probability(t, spin.UPPER, cfg) - spin.return_probability(
            t, spin.LOWER, cfg
        )
        worst_branch = max(worst_branch, abs(gap))
    check(9, "cycle consistency and branch symmetry hold to 1e-12 over 1000 draws",
          worst_cycle <= 1e-12 and worst_branch <= 1e-12,
          f"cycle = {worst_cycle:.2e}; branch = {worst_branch:.2e}")


def test_criterion_10_anti_adiabatic_threshold():
    monotone = spin.anti_adiabatic_threshold(0.02, math.pi / 4)[0]
    onset_ok = abs(monotone - 1.442) <= 0.05
    cfg0 = spin.RotorConfig(alpha=math.pi / 4)
    frozen_ok = all(
        spin.return_probability_cycle(spin.RotorConfig.at_ratio(15.0, alpha=a)) >= 0.98
        for a in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3)
    )
    _, (flat,) = spin.omega_scan(0.05, 20.0, 10_000, [0.0])
    flat_ok = bool(np.all(np.abs(flat - 1.0) <= 1e-12))
    check(10, "monotone onset 1.442 +/- 0.05; rho(15 w0) >= 0.98; flat curve at alpha=0",
          onset_ok and frozen_ok and flat_ok,
          f"onset = {monotone:.4f}")


def test_criterion_11_cli_determinism(tmp_path):
    pairs = []
    for name, argv in (
        ("energy", ["well", "energy-scan"]),
        ("omega", ["spin", "omega-scan"]),
    ):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert cli.main(argv + ["-o", str(a)]) == 0
        assert cli.main(argv + ["-o", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    check(11, "repeated scans produce byte-identical CSV", all(pairs))
