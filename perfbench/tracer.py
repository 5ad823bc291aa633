"""In-process traced run: spans around the calls into each quenchkit layer.

The program is left untouched.  `Tracer.installed` replaces layer functions
by wrappers as module attributes and restores the originals on exit.  This
reaches every call across modules because quenchkit makes those calls
through module attributes (``kernels.spin_rk4``, ``well.decompose``) or
module globals (``write_table`` inside ``cli``, ``integrate`` inside
``well``).

Spans stay in memory as (name, start, end, parent, command) and are written
out at the end of the run.  A span's self time is its duration minus that of
its child spans; the root span of each command is ``cli.main``, whose self
time is the code no wrapper covers, so the self times of one pass add up to
the pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Per-layer metrics: name -> (unit, end-to-end metric it should move, workloads).
LAYER_METRICS = {
    "import.numpy_s": ("s", "setup_s", "all"),
    "import.quenchkit_s": ("s", "setup_s", "all"),
    "cli.parse_s": ("s", "setup_s", "all"),
    "cli.emit_s": ("s", "wall_s, peak_rss_mb", "bulk-emit, well-scan"),
    "cli.emit_rows": ("count", "wall_s, peak_rss_mb", "bulk-emit, well-scan"),
    "cli.emit_bytes": ("bytes", "wall_s, peak_rss_mb", "bulk-emit, well-scan"),
    "cli.self_s": ("s", "wall_s", "all (code no wrapper covers)"),
    "well.self_s": ("s", "wall_s", "well-scan"),
    "well.quench_energy_calls": ("count", "wall_s", "well-scan"),
    "well.decompose_calls": ("count", "wall_s", "well-scan"),
    "well.eigen_wavefunction_calls": ("count", "wall_s", "crosscheck"),
    "kernels.expansion_coefficients_s": ("s", "wall_s", "well-scan"),
    "kernels.expansion_coefficients_calls": ("count", "wall_s", "well-scan"),
    "kernels.expansion_coefficients_elements": ("count", "wall_s", "well-scan"),
    "kernels.spin_rk4_s": ("s", "wall_s", "crosscheck"),
    "kernels.spin_rk4_steps": ("count", "wall_s", "crosscheck"),
    "kernels.cycle_return_curve_s": ("s", "none expected (<=3%)", "bulk-emit"),
    "kernels.cycle_return_curve_points": ("count", "none expected", "bulk-emit"),
    "numerics.integrate_s": ("s", "wall_s", "crosscheck"),
    "numerics.integrate_calls": ("count", "wall_s", "crosscheck"),
    "numerics.integrand_evals": ("count", "wall_s", "crosscheck"),
    "numerics.central_difference_calls": ("count", "wall_s", "well-scan"),
    "spin.self_s": ("s", "wall_s", "crosscheck"),
    "spin.evolve_closed_form_calls": ("count", "wall_s", "crosscheck"),
    "trace.overhead_s": ("s", "n/a", "all"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    command: int


class Tracer:
    """Collects spans and counters for one or more traced passes."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._counts: Counter = Counter()
        self._tallies: dict[str, list[int]] = {}
        self.command = -1
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    @property
    def counts(self) -> Counter:
        """Counter totals: work sizes from call arguments and call tallies."""
        return self._counts + Counter({k: v[0] for k, v in self._tallies.items()})

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs)`` returns a
        (counter, amount) pair to add, for work sizes read off the arguments."""
        spans, stack, counts = self.spans, self._stack, self._counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counter, amount = count(args, kwargs)
                counts[counter] += amount
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.command)

        return traced

    def _tally(self, name: str) -> list[int]:
        # A one-element list: the cheapest counter to bump millions of times.
        return self._tallies.setdefault(name, [0])

    def counter(self, name: str, fn):
        tally = self._tally(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _integrate(self, fn):
        tally = self._tally("numerics.integrand_evals")

        def integrate(f, *args, **kwargs):
            def integrand(q):
                tally[0] += 1
                return f(q)

            return fn(integrand, *args, **kwargs)

        return self.wrap("numerics.integrate", functools.wraps(fn)(integrate))

    def _build_parser(self, fn):
        wrap = self.wrap

        def build_parser(*args, **kwargs):
            parser = fn(*args, **kwargs)
            parser.parse_args = wrap("cli.parse_args", parser.parse_args)
            return parser

        return self.wrap("cli.build_parser", functools.wraps(fn)(build_parser))

    def replacements(self, cli, well, spin, kernels) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every traced layer function."""
        out = []

        def put(module, attr, make):
            fn = getattr(module, attr, None)
            if fn is None:
                self.unwrapped.append(f"{module.__name__}.{attr}")
            else:
                out.append((module, attr, make(fn)))

        put(kernels, "expansion_coefficients", lambda fn: self.wrap(
            "kernels.expansion_coefficients", fn,
            lambda a, k: ("kernels.expansion_coefficients_elements", int(a[1]))))
        put(kernels, "spin_rk4", lambda fn: self.wrap(
            "kernels.spin_rk4", fn, lambda a, k: ("kernels.spin_rk4_steps", int(a[4]))))
        put(kernels, "cycle_return_curve", lambda fn: self.wrap(
            "kernels.cycle_return_curve", fn,
            lambda a, k: ("kernels.cycle_return_curve_points", len(a[0]))))
        put(well, "integrate", self._integrate)
        put(well, "central_difference",
            lambda fn: self.wrap("numerics.central_difference", fn))
        put(well, "eigen_wavefunction",
            lambda fn: self.counter("well.eigen_wavefunction_calls", fn))
        for module in (well, spin):
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if (attr.startswith("_") or fn.__module__ != module.__name__
                        or attr == "eigen_wavefunction"):
                    continue
                out.append((module, attr, self.wrap(f"{layer}.{attr}", fn)))
        put(cli, "write_table", lambda fn: self.wrap("cli.write_table", fn))
        put(cli, "build_parser", self._build_parser)
        return out

    @contextlib.contextmanager
    def installed(self, cli, well, spin, kernels):
        """Wrap the layer functions for the duration of the block."""
        saved = []
        try:
            for module, attr, wrapper in self.replacements(cli, well, spin, kernels):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_command(self, main, argv: list[str]) -> int:
        """Run ``main(argv)`` as one command under a root ``cli.main`` span."""
        self.command += 1
        return self.wrap("cli.main", main)(argv)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def self_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer, the part of a span name before the dot.

    The layers partition the pass: their sum is the total duration of the
    root spans.
    """
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.name.split(".", 1)[0]] += own
    return dict(out)


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed as in `LAYER_METRICS`."""
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, own in zip(spans, self_times(spans)):
        self_by_name[s.name] += own
        total_by_name[s.name] += s.end - s.start
        calls[s.name] += 1
    layers = self_by_layer(spans)

    return {
        "cli.parse_s": total_by_name["cli.build_parser"] + total_by_name["cli.parse_args"],
        "cli.emit_s": self_by_name["cli.write_table"],
        "cli.self_s": self_by_name["cli.main"],
        "well.self_s": layers.get("well", 0.0),
        "well.quench_energy_calls": calls["well.quench_energy"],
        "well.decompose_calls": calls["well.decompose"],
        "well.eigen_wavefunction_calls": counts["well.eigen_wavefunction_calls"],
        "kernels.expansion_coefficients_s": self_by_name["kernels.expansion_coefficients"],
        "kernels.expansion_coefficients_calls": calls["kernels.expansion_coefficients"],
        "kernels.expansion_coefficients_elements":
            counts["kernels.expansion_coefficients_elements"],
        "kernels.spin_rk4_s": self_by_name["kernels.spin_rk4"],
        "kernels.spin_rk4_steps": counts["kernels.spin_rk4_steps"],
        "kernels.cycle_return_curve_s": self_by_name["kernels.cycle_return_curve"],
        "kernels.cycle_return_curve_points": counts["kernels.cycle_return_curve_points"],
        "numerics.integrate_s": self_by_name["numerics.integrate"],
        "numerics.integrate_calls": calls["numerics.integrate"],
        "numerics.integrand_evals": counts["numerics.integrand_evals"],
        "numerics.central_difference_calls": calls["numerics.central_difference"],
        "spin.self_s": layers.get("spin", 0.0),
        "spin.evolve_closed_form_calls": calls["spin.evolve_closed_form"],
    }
