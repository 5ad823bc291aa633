"""Seeded workload generator.

A workload is a list of CLI commands that one pass runs in order.  Every
input is drawn from the workload seed, so the same seed always yields the
same argv, and the program sees nothing but the generated argv.  Reals go
onto the command line as decimal text; the checker reads the values back
from the same text, so both sides see identical doubles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 20261017

LEVELS = 1000  # coefficient vectors long enough for the kernels to dominate


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the inputs the checker needs to verify it.

    ``argv`` is what follows ``python -m quenchkit``.  ``params`` holds the
    drawn inputs as the exact strings placed in ``argv``.  ``output`` names
    a file for commands written with ``-o``; the others write to stdout.
    """

    group: str
    name: str
    params: dict = field(default_factory=dict)
    output: str | None = None

    @property
    def key(self) -> str:
        return f"{self.group} {self.name}"

    @property
    def argv(self) -> list[str]:
        args = [self.group, self.name]
        for flag, value in self.params.items():
            args += [f"--{flag}", str(value)]
        if self.output is not None:
            args += ["-o", self.output]
        return args


def _dec(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}f}"


def well_scan(rng: random.Random, out_dir: str) -> list[Command]:
    # Why: the Python loop over grid points in `well` and the 1000-level
    # coefficient vectors in `kernels` make up ~95% of compute here (traced:
    # energy-scan 0.76 s in kernels, 0.69 s in well; force-scan makes 14,998
    # coefficient calls for 5,000 points).  Quadrature, RK4 and bulk emit are
    # bypassed.  Output goes to stdout.
    lo = rng.uniform(0.4, 0.9)
    hi = lo + rng.uniform(5.0, 6.0)  # spans five or six integer resonances
    # Integer endpoints put two grid points exactly on resonances, so the
    # documented omission rule of force-scan is exercised on every seed.
    f_lo = rng.randint(1, 3)
    f_hi = f_lo + rng.randint(3, 5)
    gamma = _dec(rng.uniform(1.1, 9.9))
    c_lo = rng.uniform(0.3, 4.0)
    return [
        Command("well", "energy-scan", {
            "gamma": f"{_dec(lo)}:{_dec(hi)}", "points": 20000, "levels": LEVELS}),
        Command("well", "force-scan", {
            "gamma": f"{f_lo}:{f_hi}", "points": 5000, "levels": LEVELS}),
        Command("well", "coeffs", {"gamma": gamma, "levels": LEVELS}),
        Command("well", "pop-scan", {"gamma": gamma, "levels": LEVELS}),
        Command("well", "captured", {
            "gamma": f"{_dec(c_lo)}:{_dec(c_lo + 1.0)}", "points": 2000,
            "levels": LEVELS}),
    ]


def crosscheck(rng: random.Random, out_dir: str) -> list[Command]:
    # Why: this pass holds both oracles.  `numerics.integrate` takes ~1.37 s
    # (5,085 calls, 1.60 M integrand evaluations at --max-level 40 and the
    # default --quad-tol; the default max-level makes too few to show a 2x
    # gain) and `kernels.spin_rk4` ~0.88 s over 150 k pure-Python steps; the
    # `spin` scalar closed forms take ~0.1 s over 3,000 calls.  Emit is
    # negligible.
    # Each gamma band holds the quadrature cost steady from seed to seed:
    # shrink, the identity gamma = 1, an exact integer, and three expansions.
    gammas = [_dec(rng.uniform(0.1, 0.95)) for _ in range(3)]
    gammas += ["1", str(rng.randint(2, 9))]
    gammas += [_dec(rng.uniform(a, b)) for a, b in ((1.2, 1.8), (2.2, 4.8), (5.2, 11.8))]
    alphas = [_dec(rng.uniform(0.1, 1.4)) for _ in range(3)]
    # Ratios >= 0.2 keep RK4 at its 10,000-step floor, so every seed runs
    # 15 trajectories of equal length.
    ratios = [_dec(rng.uniform(a, b)) for a, b in
              ((0.2, 0.6), (0.8, 1.2), (1.3, 2.0), (3.0, 7.0), (10.0, 18.0))]
    # At the default --quad-tol 1e-10 adaptive Simpson accepts some panels
    # too early: for ~0.75% of shrink gammas at max-level 40 the oracle is
    # off by up to 1.4e-8 (gamma = 0.280011, n = 12 gives 1.1e-8) and fails
    # its own 1e-8 gate.  At 1e-11 the worst of 300 draws is 3e-12, at 1.8x
    # the quadrature cost.
    return [
        Command("well", "oracle-check", {
            "gamma-list": ",".join(gammas), "max-level": 40, "quad-tol": "1e-11"}),
        Command("spin", "ode-check", {
            "alpha": ",".join(alphas), "ratio-list": ",".join(ratios)}),
        Command("spin", "symmetry-check", {"seed": rng.randrange(2**31)}),
        Command("spin", "return-prob", {
            "alpha": _dec(rng.uniform(0.1, 1.4)), "ratio": _dec(rng.uniform(0.2, 10.0))}),
        Command("spin", "threshold", {
            "alpha": _dec(rng.uniform(0.26, 1.05)),
            "epsilon": _dec(rng.uniform(0.01, 0.05))}),
    ]


def bulk_emit(rng: random.Random, out_dir: str) -> list[Command]:
    # Why: `cli.write_table` takes ~97% of the time (4.9 s of 5.05 s traced
    # for a 46 MB CSV, against 0.12 s in the kernel).  It writes through the
    # file sink while the other workloads use stdout, so a gain on one sink
    # that costs the other shows.  Peak RSS matters here.
    return [
        Command("spin", "omega-scan", {
            "alpha": _dec(rng.uniform(0.1, 1.5)), "points": 1_000_000},
            output=f"{out_dir}/omega-scan.csv"),
    ]


WORKLOADS = {
    "well-scan": well_scan,
    "crosscheck": crosscheck,
    "bulk-emit": bulk_emit,
}


def generate(workload: str, seed: int, out_dir: str) -> list[Command]:
    """The commands of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out_dir)
