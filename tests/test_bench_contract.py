"""The benchmark's per-layer tracer still finds every span it reports.

``perfbench/run.py --trace 1`` fails when a span named in its metric table is
not among the functions its tracer wraps, so renaming a traced library
function breaks the benchmark; this test catches that in the unit suite.
"""
import os
import sys

import polyflow
from polyflow import circulant

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
