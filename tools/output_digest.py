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
the size budget, a ``force-scan`` with one-sided stencils on both sides of
integers, a ``threshold`` that finds no frozen onset, a ``coeffs`` longer
than one chunk of rows, an ``omega-scan`` whose ratios hold exact decimal
ties, and two ``symmetry-check`` runs whose draws span many blocks
(``--draws 100000 --seed 7``) and end one draw past a block edge
(``--draws 4097``).  A workload's ``-o`` files go to a temporary directory, printed as
``$OUT`` so that the lines do not depend on where it is.
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
    # 4 left and 5 right one-sided stencil points, within 2 step of 1..4
    ["well", "force-scan", "--gamma", "0.5:4.5", "--points", "401", "--levels", "12",
     "--step", "0.01"],
    # no frozen onset in the range: a nan row, exit 1
    ["spin", "threshold", "--ratio", "0.05:5"],
    # an integer column over more than one chunk of rows
    ["well", "coeffs", "--levels", "10000"],
    # 139 ratios are exact 17-digit decimal ties, written by the exact fallback
    ["spin", "omega-scan", "--ratio", "1e14:2e14", "--points", "1000"],
    # draws in 25 blocks of EMIT_CHUNK_ROWS, and one draw past a block edge
    ["spin", "symmetry-check", "--draws", "100000", "--seed", "7"],
    ["spin", "symmetry-check", "--draws", "4097"],
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
    env = dict(os.environ, PYTHONPATH=str(src))
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
