"""The benchmark's per-layer tracer still finds every span it reports.

``perfbench/run.py --trace 1`` fails when a span named in its metric table is
not among the functions its tracer wraps, so renaming a traced library
function breaks the benchmark; this test catches that in the unit suite.
A layer that the CLI imports only when a subcommand runs it must still be
reached through the tracer's wrappers.
"""
import importlib
import json
import os
import sys

import polyflow
from polyflow import circulant, cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_tracer_wraps_every_span_the_benchmark_reports():
    original = circulant.power_of_m
    trace = tracer.Tracer()
    try:
        installed = set(trace.install())
        spans = {name.rsplit(".", 1)[0] for name, _, how in run.PER_LAYER
                 if how in ("calls", "busy", "self")}
        assert spans <= installed, sorted(spans - installed)
        counters = {name for name, _, how in run.PER_LAYER if how == "counter"}
        for workload, required in run.REQUIRED_SPANS.items():
            unknown = [s for s in required if s not in installed and s not in counters]
            assert not unknown, (workload, unknown)
        assert circulant.power_of_m is not original
    finally:
        trace.remove()
    assert circulant.power_of_m is original
    assert polyflow.power_of_m is original


def _bindings():
    """Every name bound in the traced layers, the package and the CLI's
    handler table, and the attributes of the classes the tracer patches."""
    owners = [polyflow] + [importlib.import_module(f"polyflow.{layer}") for layer in tracer.LAYERS]
    owners += [polyflow.Polygon, polyflow.FlowSolution]
    bound = {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}
    bound.update({("cli._HANDLERS", name): value for name, value in cli._HANDLERS.items()})
    return bound


def test_traced_cli_runs_reach_the_layers_it_imports_on_first_use(tmp_path, capsys):
    pentagon, triangle = tmp_path / "pentagon.json", tmp_path / "triangle.json"
    pentagon.write_text(json.dumps(
        {"dim": 2, "vertices": [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]}))
    triangle.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [2, 0], [1, 1.6]]}))
    before = _bindings()
    trace = tracer.Tracer()
    try:
        trace.install()
        runs = (
            ["integrate", "--input", str(pentagon), "--m", "1", "--dt", "0.01", "--T", "0.1"],
            ["yau", "--input", str(pentagon), "--target", str(triangle), "--m", "1",
             "--svg", str(tmp_path / "yau.svg")],
            ["flow", "--input", str(pentagon), "--m", "1", "--csv", str(tmp_path / "flow.csv")],
        )
        for argv in runs:
            assert cli.main(argv) == 0, argv
    finally:
        trace.remove()
    capsys.readouterr()
    for span in ("integrate.integrate", "yau_flow.yau_flow_between", "svg.write", "cli.write_trajectory_csv"):
        assert trace.calls[span] > 0, span
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
