#!/usr/bin/env python3
"""Exit code and output digests of the reference command set.

    python3 tools/output_digest.py [--repo PATH] > digests.txt

Runs every command of the reference set as ``python -m quenchkit``, one at a
time, against the quenchkit sources under ``PATH/src`` (default: this
checkout), and prints one line per command::

    <exit code> <sha256 of stdout, or of the -o file> <sha256 of stderr> <argv>

Two trees print the same lines exactly when every command exits alike and
writes the same bytes, so "output unchanged" is one diff of two runs::

    python3 tools/output_digest.py --repo ../parent > before.txt
    python3 tools/output_digest.py > after.txt
    diff before.txt after.txt

The commands come from this checkout whichever tree runs them: the three
benchmark workloads of `perfbench/workloads.py` at the default seed and at
seeds 101-105, each subcommand at its defaults, a two-angle ``omega-scan``,
``oracle-check`` at the largest ``--max-level`` its default gammas fit in
the size budget and one at ``--gamma-list 1e-299``, whose box is narrower
than 2/DBL_MAX, two whose ``--quad-tol`` is below the quadrature error
that the doubles can state (``1e-17``, and ``5e-324``, the smallest
subnormal), which exit 1 after the table, a ``force-scan`` with one-sided
stencils on both sides of integers, a ``threshold`` that finds no frozen
onset, a ``coeffs`` longer
than one chunk of rows, an ``omega-scan`` whose ratios hold exact decimal
ties, a ``coeffs`` at ``--gamma 1e-100`` whose b_n alternate in sign and
whose reals all have 3-digit exponents, two ``symmetry-check`` runs
whose draws span many blocks (``--draws 100000 --seed 7``) and end one draw
past a block edge (``--draws 4097``), a two-angle ``omega-scan`` and a
``threshold`` whose curves each take two blocks of `spin.OMEGA_BLOCK`
ratios and one ratio past them (``--points 65537``), a ``threshold``
that folds 62 such blocks (``--points 2000000``), a ``return-prob``
whose fractions end one past a chunk edge (``--points 8193``), and an
``energy-scan`` whose captured probability underflows in the blocks of
both threads (``--gamma 1e108:1e109``), which exits 2 naming the first
such gamma, and a ``force-scan`` whose first stencil reaches below zero
(``--gamma 5e-5:1 --points 3``), which exits 2 naming that gamma, and a
``return-prob`` (``--ratio 1e150 --points 3``) and an ``ode-check``
(``--ratio-list 1e150 --alpha 0.3``) at the largest drive ratio, and an
``ode-check`` at the smallest (``--ratio-list 1e-150``), which exits 2
naming its step count past the RK4 budget, and two ``threshold`` runs
(``--alpha 0`` and ``--alpha pi``) and a ``return-prob`` (``--alpha 0
--ratio 0.7``) with no drive, whose every probability is exactly 1, and
three expansion runs whose rows take their sines from tables of strides of
`kernels.LEVEL_STRIDE` levels: a ``coeffs`` one level past one stride
(``--gamma 2.5 --levels 41``), a ``pop-scan`` whose last stride holds one
level (``--gamma 1234.567 --levels 1001``) and an ``energy-scan`` whose last
stride is one level short (``--gamma 1:1e4 --points 2000 --levels 999``).  A
workload's ``-o`` files go to a temporary directory, printed
as ``$OUT`` so that the lines do not depend on where it is.

Every command runs with ``PYTHONDONTWRITEBYTECODE=1``, whatever the caller's
environment, so a digest never leaves ``__pycache__`` bytecode in the tree it
runs, which would make that tree start faster than a clean one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 101, 102, 103, 104, 105)
DEFAULTS = [
    ["well", name]
    for name in ("coeffs", "pop-scan", "captured", "energy-scan", "force-scan", "oracle-check")
] + [
    ["spin", name]
    for name in ("return-prob", "omega-scan", "threshold", "ode-check", "symmetry-check")
]
EXTRA = [
    ["spin", "omega-scan", "--alpha", "pi/4,pi/3"],
    ["well", "oracle-check", "--max-level", "1413"],
    # a box of gamma 1e-9 m narrower than 2 / DBL_MAX: sqrt(2 / W) would be inf
    ["well", "oracle-check", "--gamma-list", "1e-299", "--max-level", "1"],
    # bounds below every level's quadrature error: exit 1 after the table
    ["well", "oracle-check", "--quad-tol", "1e-17"],
    ["well", "oracle-check", "--quad-tol", "5e-324"],
    # 4 left and 5 right one-sided stencil points, within 2 step of 1..4
    ["well", "force-scan", "--gamma", "0.5:4.5", "--points", "401", "--levels", "12",
     "--step", "0.01"],
    # no frozen onset in the range: a nan row, exit 1
    ["spin", "threshold", "--ratio", "0.05:5"],
    # an integer column over more than one chunk of rows
    ["well", "coeffs", "--levels", "10000"],
    # 139 ratios are exact 17-digit decimal ties, written by the exact fallback
    ["spin", "omega-scan", "--ratio", "1e14:2e14", "--points", "1000"],
    # every b_n alternates in sign and every real has a 3-digit exponent
    ["well", "coeffs", "--gamma", "1e-100", "--levels", "5000"],
    # draws in 25 blocks of EMIT_CHUNK_ROWS, and one draw past a block edge
    ["spin", "symmetry-check", "--draws", "100000", "--seed", "7"],
    ["spin", "symmetry-check", "--draws", "4097"],
    # curves each computed as two blocks of spin.OMEGA_BLOCK ratios and a
    # block of the one ratio past their edge: two written, one read
    ["spin", "omega-scan", "--alpha", "pi/12,pi/4", "--points", "65537"],
    ["spin", "threshold", "--points", "65537"],
    # 62 blocks of spin.OMEGA_BLOCK ratios, the last one short, read as they come
    ["spin", "threshold", "--points", "2000000"],
    # two blocks of EMIT_CHUNK_ROWS fractions, and one fraction past their edge
    ["spin", "return-prob", "--points", "8193"],
    # underflows from grid index 4,945 on, in blocks of both threads of
    # well._energies: exit 2 naming that gamma
    ["well", "energy-scan", "--gamma", "1e108:1e109", "--points", "10000"],
    # gamma - step < 0 at grid point 0: exit 2 naming gamma = 5e-05
    ["well", "force-scan", "--gamma", "5e-5:1", "--points", "3"],
    # the largest drive ratio through the time-domain closed form and RK4
    ["spin", "return-prob", "--ratio", "1e150", "--points", "3"],
    ["spin", "ode-check", "--ratio-list", "1e150", "--alpha", "0.3"],
    # 6e+152 steps past the RK4 budget: exit 2
    ["spin", "ode-check", "--ratio-list", "1e-150"],
    # no drive: every return probability is exactly 1, none rounds above it
    ["spin", "threshold", "--alpha", "0"],
    ["spin", "threshold", "--alpha", "pi"],
    ["spin", "return-prob", "--alpha", "0", "--ratio", "0.7"],
    # expansion rows one level past a stride of kernels.LEVEL_STRIDE = 40
    # levels, with a partial last stride, and with none short of a whole one
    ["well", "coeffs", "--gamma", "2.5", "--levels", "41"],
    ["well", "pop-scan", "--gamma", "1234.567", "--levels", "1001"],
    ["well", "energy-scan", "--gamma", "1:1e4", "--points", "2000", "--levels", "999"],
]


def commands(out_dir: str) -> list[tuple[list[str], str | None]]:
    """(argv, -o file or None) of each command of the reference set."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for cmd in workloads.generate(workload, seed, out_dir):
                out.append((cmd.argv, cmd.output))
    out += [(argv, None) for argv in DEFAULTS + EXTRA]
    return out


def digest(argv: list[str], output: str | None, src: Path) -> tuple[int, str, str]:
    """Exit code and sha256 of the output and of stderr of one command."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-m", "quenchkit", *argv], env=env,
                           capture_output=True, check=False)
    stdout = child.stdout
    if output is not None:
        path = Path(output)
        stdout = path.read_bytes() if path.is_file() else b""
        path.unlink(missing_ok=True)
    return (child.returncode, hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(child.stderr).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="tree whose src/quenchkit runs the commands (default: this one)")
    args = parser.parse_args(argv)
    src = args.repo.resolve() / "src"
    if not (src / "quenchkit" / "cli.py").is_file():
        parser.error(f"no quenchkit sources under {src}")
    with tempfile.TemporaryDirectory() as out_dir:
        for cmd, output in commands(out_dir):
            code, out_sha, err_sha = digest(cmd, output, src)
            shown = " ".join(cmd).replace(out_dir, "$OUT")
            print(f"{code} {out_sha} {err_sha} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
