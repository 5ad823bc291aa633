"""Seeded generator, traced run and the declared metric set."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

import run
import tracer
import workloads
from quenchkit import cli, kernels, spin, well
from workloads import Command

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seed_dependent(name):
    first = [c.argv for c in workloads.generate(name, 11, "out")]
    again = [c.argv for c in workloads.generate(name, 11, "out")]
    other = [c.argv for c in workloads.generate(name, 12, "out")]
    assert first == again
    assert first != other


SMALL = [
    Command("well", "force-scan", {"gamma": "1.5:2.5", "points": 9, "levels": 20}),
    Command("well", "oracle-check", {"gamma-list": "0.5,2.5", "max-level": 3}),
    Command("spin", "ode-check", {"alpha": "0.5", "ratio-list": "2"}),
    Command("spin", "omega-scan", {"alpha": "0.5", "points": 100}),
]


def traced_pass(tr: tracer.Tracer) -> None:
    with tr.installed(cli, well, spin, kernels), contextlib.redirect_stdout(io.StringIO()):
        for cmd in SMALL:
            assert tr.run_command(cli.main, cmd.argv) == 0


def module_state():
    return {m.__name__: dict(vars(m)) for m in (cli, well, spin, kernels)}


def test_traced_run_restores_every_wrapped_attribute():
    before = module_state()
    tr = tracer.Tracer()
    replaced = tr.replacements(cli, well, spin, kernels)
    assert {f"{m.__name__}.{a}" for m, a, _ in replaced} >= {
        "quenchkit.kernels.expansion_coefficients", "quenchkit.kernels.spin_rk4",
        "quenchkit.kernels.cycle_return_curve", "quenchkit.well.integrate",
        "quenchkit.well.central_difference", "quenchkit.well.eigen_wavefunction",
        "quenchkit.well.decompose", "quenchkit.spin.evolve_closed_form",
        "quenchkit.cli.write_table", "quenchkit.cli.build_parser"}
    traced_pass(tr)
    assert module_state() == before
    with pytest.raises(RuntimeError), tr.installed(cli, well, spin, kernels):
        assert kernels.spin_rk4 is not before["quenchkit.kernels"]["spin_rk4"]
        raise RuntimeError
    assert module_state() == before


def test_layer_self_times_add_up_to_the_traced_pass():
    tr = tracer.Tracer()
    traced_pass(tr)
    roots = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * len(SMALL)
    pass_s = sum(s.end - s.start for s in roots)
    layers = tracer.self_by_layer(tr.spans)
    assert set(layers) == {"cli", "well", "spin", "kernels", "numerics"}
    assert math.isclose(sum(layers.values()), pass_s, rel_tol=1e-9)

    m = tracer.layer_metrics(tr.spans, tr.counts)
    cli_s = m["cli.self_s"] + m["cli.parse_s"] + m["cli.emit_s"]
    assert math.isclose(cli_s, layers["cli"], rel_tol=1e-9)
    kernels_s = sum(v for k, v in m.items() if k.startswith("kernels.") and k.endswith("_s"))
    assert math.isclose(kernels_s, layers["kernels"], rel_tol=1e-9)
    assert m["kernels.spin_rk4_steps"] == 10_000
    assert m["numerics.integrand_evals"] > 0
    assert m["well.eigen_wavefunction_calls"] == 2 * m["numerics.integrand_evals"]
    assert m["kernels.cycle_return_curve_points"] >= 100


def test_declared_metrics_match_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in tracer.LAYER_METRICS.items()}
