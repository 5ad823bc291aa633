#!/usr/bin/env python3
"""Layered benchmark of the quenchkit command line.

    python3 perfbench/run.py --workload well-scan [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, round-robin

End-to-end (``--trace 0``): one client in a closed loop runs the workload's
commands as fresh ``python -m quenchkit`` children, one at a time, pass after
pass for ``--seconds``.  This process imports neither numpy nor quenchkit and
starts one child at a time, so the benchmark never holds more than two
processes, and no child inherits a large address space (``ru_maxrss`` of a
child counts its parent's peak up to ``exec``).  Each pass is followed by the
host-speed probe (`probe.py`) and two set-up samples; the checker runs in its
own child between passes and is not timed.

Times are reported in reference-host seconds.  On a shared host the same
pass drifts by tens of percent within minutes; the probe, a fixed job run
before the first pass and after every pass, drifts with it.  A pass that
took T seconds between probes of P1 and P2 seconds is reported as
T * PROBE_REF_S / ((P1 + P2) / 2), and a set-up sample as its time times
PROBE_REF_S / P2.  The raw times are kept in the record.  Metrics:

* ``wall_s``: median over passes of one pass's time, from spawning its first
  command to the exit of its last.  A run has far fewer than ~110 passes, so
  the median is the highest percentile with ten samples beyond it; no tail
  is reported.
* ``cpu_s``: median child user+sys time per pass, from ``os.wait4``.
* ``setup_s``: median time for a fresh interpreter to import ``quenchkit.cli``
  and parse one of the workload's argv without computing.
* ``peak_rss_mb``: median over passes of the largest child max-RSS in a pass.
* ``fail_ratio``: commands that exited nonzero or failed the checker, over
  commands attempted.  It is 0 when all is well, so it is printed in the
  summary and carried by the ``attempted``/``failed`` fields of the result
  line rather than declared as a metric.

Traced (``--trace 1``): `tracer` wraps the layer functions and runs
``quenchkit.cli.main(argv)`` in this process, alternating untraced and traced
passes; the per-layer metrics are medians over the traced passes, in raw
seconds.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, per-pass raw and
scaled times and their spread, per-command sha256 and check failures) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import os
import platform
import re
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PROBE_REF_S = 0.6  # probe time on the reference host that reported times assume
SETUP_PER_PASS = 2
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = "import sys\nfrom quenchkit import cli\ncli.build_parser().parse_args(sys.argv[1:])"
ENV_CODE = """import importlib.util, json, numpy, quenchkit, quenchkit.kernels as k
print(json.dumps({"numpy": numpy.__version__, "backend": k.BACKEND,
    "numba": importlib.util.find_spec("numba") is not None, "quenchkit": quenchkit.__file__}))"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclasses.dataclass
class Child:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def run_child(args: list[str]) -> Child:
    """Run one child to completion, draining its pipes, with wait4 rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    with selectors.DefaultSelector() as sel:
        sel.register(out_fd, selectors.EVENT_READ)
        sel.register(err_fd, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, start + CHILD_TIMEOUT_S - time.perf_counter()))
            if not ready:
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
                 end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_probe() -> float:
    child = run_child([sys.executable, str(HERE / "probe.py"), str(OUT / "probe.csv")])
    if child.exit_code != 0:
        raise RuntimeError(f"probe failed: {child.stderr.decode()[-500:]}")
    return child.wall_s


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "iqr_over_median": (q3 - q1) / med if med else 0.0}


def environment() -> dict:
    child = run_child([sys.executable, "-c", ENV_CODE])
    if child.exit_code != 0:
        raise RuntimeError(f"cannot import quenchkit from {SRC}: {child.stderr.decode()[-500:]}")
    env = json.loads(child.stdout)
    cpu = ""
    with contextlib.suppress(OSError):
        match = re.search(r"^model name\s*:\s*(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1) if match else ""
    env.update(
        nproc=os.cpu_count(),
        cpu_model=cpu or platform.processor(),
        python=platform.python_version(),
        blas_threads={v: os.environ.get(v) for v in BLAS_VARS},
        loadavg_at_start=os.getloadavg(),
    )
    return env


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


class Grader:
    """Grades each command's output; the checker runs in a child process.

    Verdicts are cached by (command, sha256), so identical bytes are checked
    once; bytes that differ from the first pass for the same argv fail.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.verdicts: dict[tuple[str, str], str | None] = {}
        self.hashes: dict[str, str] = {}  # command key -> sha256 of its output
        self.attempted = 0
        self.failures: list[str] = []
        self._graded: list[tuple[workloads.Command, str]] = []
        self._pending: dict[tuple[str, str], dict] = {}

    def grade(self, cmd: workloads.Command, exit_code: int, stdout: bytes,
              stderr: bytes) -> None:
        """Hash one output now; `flush` checks new outputs and counts failures."""
        self.attempted += 1
        if cmd.output is not None:
            path = Path(cmd.output)
            digest = _sha256_file(path) if exit_code == 0 and path.exists() else ""
        else:
            path = OUT / f"{self.name}-{len(self._pending)}.out"
            digest = hashlib.sha256(stdout).hexdigest()
        if exit_code != 0:
            self.failures.append(f"{cmd.key}: exit {exit_code}: {stderr.decode()[-300:]}")
            return
        if self.hashes.setdefault(cmd.key, digest) != digest:
            self.failures.append(f"{cmd.key}: output bytes differ between identical runs")
            return
        key = (cmd.key, digest)
        if key not in self.verdicts and key not in self._pending:
            if cmd.output is None:
                path.write_bytes(stdout)
            self._pending[key] = {"command": dataclasses.asdict(cmd), "path": str(path)}
        self._graded.append((cmd, digest))

    def flush(self) -> None:
        if self._pending:
            jobs = OUT / f"{self.name}-checks.json"
            jobs.write_text(json.dumps({"seed": self.seed, "jobs": list(self._pending.values())}))
            child = run_child([sys.executable, str(HERE / "checker.py"), str(jobs)])
            if child.exit_code != 0:
                raise RuntimeError(f"checker crashed: {child.stderr.decode()[-1000:]}")
            for (key, job), verdict in zip(self._pending.items(), json.loads(child.stdout)):
                self.verdicts[key] = verdict
                Path(job["path"]).unlink(missing_ok=True)
            jobs.unlink()
            self._pending = {}
        for cmd, digest in self._graded:
            verdict = self.verdicts[(cmd.key, digest)]
            if verdict is not None:
                self.failures.append(f"{cmd.key}: {verdict}")
        self._graded = []

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "fail_ratio": len(self.failures) / max(self.attempted, 1),
                "sha256": self.hashes, "failures": self.failures[:20]}


class EndToEnd:
    """Closed-loop passes of one workload, each command a fresh child."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.commands = workloads.generate(name, seed, str(OUT))
        self.grader = Grader(name, seed)
        self.passes: list[dict] = []
        self.probe = 0.0  # the latest probe time

    def setup_args(self, i: int) -> list[str]:
        return [sys.executable, "-c", SETUP_CODE, *self.commands[i % len(self.commands)].argv]

    def run_pass(self) -> None:
        for cmd in self.commands:
            if cmd.output is not None:
                Path(cmd.output).unlink(missing_ok=True)
        children = []
        start = time.perf_counter()
        for cmd in self.commands:
            children.append(run_child([sys.executable, "-m", "quenchkit", *cmd.argv]))
        wall = time.perf_counter() - start
        before, after = self.probe, run_probe()
        self.probe = after
        setup = []
        for i in range(SETUP_PER_PASS):
            child = run_child(self.setup_args(len(self.passes) * SETUP_PER_PASS + i))
            if child.exit_code != 0:
                raise RuntimeError(f"set-up failed: {child.stderr.decode()[-500:]}")
            setup.append(child.wall_s)
        for cmd, child in zip(self.commands, children):
            self.grader.grade(cmd, child.exit_code, child.stdout, child.stderr)
        self.grader.flush()
        scale = 2.0 * PROBE_REF_S / (before + after)
        cpu = sum(c.cpu_s for c in children)
        self.passes.append({
            "wall_s": wall * scale,
            "cpu_s": cpu * scale,
            "setup_s": [s * PROBE_REF_S / after for s in setup],
            "peak_rss_mb": max(c.maxrss_mib for c in children),
            "raw": {"wall_s": wall, "cpu_s": cpu, "setup_s": setup,
                    "probe_before_s": before, "probe_after_s": after,
                    "command_wall_s": [c.wall_s for c in children]},
        })

    def metrics(self) -> dict[str, float]:
        out = {m: statistics.median(p[m] for p in self.passes)
               for m in ("wall_s", "cpu_s", "peak_rss_mb")}
        out["setup_s"] = statistics.median(s for p in self.passes for s in p["setup_s"])
        return {m: out[m] for m in END_TO_END}

    def record(self) -> dict:
        raw = [p["raw"] for p in self.passes]
        return {
            "workload": self.name,
            "commands": [c.argv for c in self.commands],
            "metrics": self.metrics(),
            "spread": {m: spread([p[m] for p in self.passes])
                       for m in ("wall_s", "cpu_s", "peak_rss_mb")},
            "raw_spread": {m: spread([r[m] for r in raw]) for m in ("wall_s", "cpu_s")},
            "passes": self.passes,
            **self.grader.summary(),
        }


def run_end_to_end(names: list[str], seed: int, seconds: float) -> list[EndToEnd]:
    runs = [EndToEnd(name, seed) for name in names]
    for run in runs:
        run_child(run.setup_args(0))  # fills the file cache and writes bytecode
        run.probe = run_probe()
    deadline = time.perf_counter() + seconds
    # Round-robin, so that drift of the host hits every workload alike.
    while True:
        for run in runs:
            run.run_pass()
        if time.perf_counter() >= deadline:
            return runs


def import_times(samples: int) -> dict[str, list[float]]:
    """Cumulative import time of numpy and of quenchkit's own modules, in s."""
    out = {"import.numpy_s": [], "import.quenchkit_s": []}
    for _ in range(samples):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import quenchkit.cli"])
        top = numpy_us = 0
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name, us = parts[2][1:].rstrip(), int(parts[1])
            if name.startswith("quenchkit"):  # top level: the statement's own imports
                top += us
            elif name.strip() == "numpy" and not numpy_us:
                numpy_us = us
        out["import.numpy_s"].append(numpy_us / 1e6)
        out["import.quenchkit_s"].append((top - numpy_us) / 1e6)
    return out


def import_quenchkit() -> dict:
    sys.path.insert(0, str(SRC))
    import quenchkit.cli
    import quenchkit.kernels
    import quenchkit.spin
    import quenchkit.well

    if not Path(quenchkit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported quenchkit from {quenchkit.__file__}, not {SRC}")
    return {"cli": quenchkit.cli, "well": quenchkit.well, "spin": quenchkit.spin,
            "kernels": quenchkit.kernels}


def call_main(main, argv) -> tuple[int, bytes, bytes]:
    """``main(argv)`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command; keep the run going
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


class Traced:
    """Untraced and traced in-process passes of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.commands = workloads.generate(name, seed, str(OUT))
        self.grader = Grader(name, seed)
        self.untraced: list[float] = []
        self.traced: list[dict[str, float]] = []
        self.spans: list[tracer.Span] = []
        self.unwrapped: list[str] = []

    def _grade(self, results) -> list[bytes]:
        outputs = []
        for cmd, (code, out, err) in zip(self.commands, results):
            path = Path(cmd.output) if cmd.output else None
            outputs.append(path.read_bytes() if path and path.exists() else out)
            self.grader.grade(cmd, code, out, err)
        self.grader.flush()
        return outputs

    def run_pair(self, qk) -> None:
        cli = qk["cli"]
        start = time.perf_counter()
        results = [call_main(cli.main, cmd.argv) for cmd in self.commands]
        self.untraced.append(time.perf_counter() - start)
        self._grade(results)

        tr = tracer.Tracer()
        with tr.installed(cli, qk["well"], qk["spin"], qk["kernels"]):
            results = [call_main(lambda argv: tr.run_command(cli.main, argv), cmd.argv)
                       for cmd in self.commands]
        outputs = self._grade(results)
        metrics = tracer.layer_metrics(tr.spans, tr.counts)
        metrics["cli.emit_rows"] = sum(max(o.count(b"\n") - 1, 0) for o in outputs)
        metrics["cli.emit_bytes"] = sum(len(o) for o in outputs)
        metrics["pass_s"] = sum(s.end - s.start for s in tr.spans if s.parent is None)
        self.traced.append(metrics)
        self.spans, self.unwrapped = tr.spans, tr.unwrapped

    def metrics(self, imports: dict[str, list[float]]) -> dict[str, float]:
        out = {k: statistics.median(m[k] for m in self.traced) for k in self.traced[0]}
        out["trace.overhead_s"] = out.pop("pass_s") - statistics.median(self.untraced)
        out.update({k: statistics.median(v) for k, v in imports.items()})
        return {k: out[k] for k in tracer.LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,command\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.name},{s.start!r},{s.end!r},{parent},{s.command}\n")


def run_traced(names: list[str], seed: int, seconds: float) -> tuple[list[Traced], dict]:
    imports = import_times(IMPORT_SAMPLES)
    qk = import_quenchkit()
    runs = [Traced(name, seed) for name in names]
    deadline = time.perf_counter() + seconds
    while True:
        for run in runs:
            run.run_pair(qk)
        if time.perf_counter() >= deadline:
            return runs, imports


def _metric_json(values: dict[str, float], units: dict[str, str], prefix: str) -> dict:
    return {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; passes continue until it has elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quenchkit" / "cli.py").is_file():
        print(f"perfbench: no quenchkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment()
    metrics, records, graders = {}, [], []

    if args.trace:
        runs, imports = run_traced(names, args.seed, args.seconds)
        units = {k: v[0] for k, v in tracer.LAYER_METRICS.items()}
        for run in runs:
            values = run.metrics(imports)
            metrics.update(_metric_json(values, units, f"{run.name}." if len(names) > 1 else ""))
            spans_path = OUT / f"{run.name}-seed{args.seed}-spans.csv.gz"
            run.write_spans(spans_path)
            graders.append(run.grader)
            records.append({"workload": run.name, "metrics": values,
                            "untraced_pass_s": run.untraced, "traced": run.traced,
                            "unwrapped": run.unwrapped, "spans": spans_path.name,
                            **run.grader.summary()})
            print(f"{run.name}: {len(run.traced)} traced passes")
            for k, v in values.items():
                unit, moves, on = tracer.LAYER_METRICS[k]
                print(f"  {k:40s} {v:14.6g} {unit:6s} moves {moves} on {on}")
    else:
        runs = run_end_to_end(names, args.seed, args.seconds)
        for run in runs:
            values = run.metrics()
            metrics.update(_metric_json(values, END_TO_END,
                                        f"{run.name}." if len(names) > 1 else ""))
            graders.append(run.grader)
            rec = run.record()
            records.append(rec)
            print(f"{run.name}: {len(run.passes)} passes of {len(run.commands)} commands")
            for k, v in values.items():
                print(f"  {k:12s} {v:12.6g} {END_TO_END[k]}")
            g = run.grader.summary()
            print(f"  {'fail_ratio':12s} {g['fail_ratio']:12.6g} 1 "
                  f"({g['failed']} of {g['attempted']} commands)")
            for label, sp in (("wall_s", rec["spread"]["wall_s"]),
                              ("raw wall", rec["raw_spread"]["wall_s"])):
                print(f"  {label} over passes: median {sp['median']:.4f} q1 {sp['q1']:.4f} "
                      f"q3 {sp['q3']:.4f} (q3-q1)/median {sp['iqr_over_median']:.2%}")

    attempted = sum(g.attempted for g in graders)
    failed = sum(len(g.failures) for g in graders)
    for g in graders:
        for failure in g.failures[:5]:
            print(f"FAILED {failure}", file=sys.stderr)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "workloads": records}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
