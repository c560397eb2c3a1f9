"""Run one job list in this process through ``polyflow.cli.main`` and check it.

One closed-loop client: each job starts when the previous one returns.  Only
the ``main`` call is timed, inside a ``calibration.Interval`` that also gives
the job's time at reference speed.  Output checks run after the loop and
after peak memory is read, so neither counts against the program.  With ``--trace 1``
the layers are wrapped for the loop, then unwrapped, and a fixed-input probe
measures per-call time at n = 256 and n = 1024.  Span times include the
speed samples taken inside them (about 2%).

    python3 perfbench/worker.py --src SRC --jobs JOBS.json --out RESULT.json --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback

import numpy as np

import oracle
from calibration import Interval
from tracer import Tracer
from workloads import blob

MAX_REASONS = 10  # distinct failure reasons kept per pass
PROBE_SEED = 20260810


def run_jobs(cli, jobs, tracer=None):
    """Per job: (wall s, reference-speed s, exit code, stdout, stderr)."""
    results = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with Interval() as interval, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a traceback where an exit code is documented
                code = f"raised {type(exc).__name__}: {exc}"
        results.append((interval.wall, interval.scaled, code, out.getvalue(), err.getvalue()))
        if tracer:
            tracer.fold(interval.speed)
    return results


def verify(jobs, results):
    """Count failed jobs and wrong outputs; a job fails at most once."""
    failed, wrong, reasons = 0, 0, {}
    svg_digest = {}

    def fail(job, reason, is_wrong):
        nonlocal failed, wrong
        failed += 1
        wrong += is_wrong
        reason = f"{job['argv'][0]}: {reason}"
        if reason in reasons or len(reasons) < MAX_REASONS:
            reasons[reason] = reasons.get(reason, 0) + 1

    for job, (_, _, code, stdout, stderr) in zip(jobs, results):
        if code != job["expect"]:
            # A well-formed job (expected exit 0) that exits otherwise or raises
            # produced wrong output.  A malformed request with the wrong code
            # only failed: its documented exit code is all it is checked for.
            fail(job, f"exit {code!r}, expected {job['expect']} {stderr.strip()[-200:]}",
                 job["expect"] == 0)
            continue
        check = job["check"]
        if not check:
            continue
        try:
            reason = oracle.CHECKS[check["kind"]](check, stdout)
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        if reason is None and check.get("svg"):
            with open(check["svg"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if svg_digest.setdefault(job["group"], digest) != digest:
                reason = "SVG bytes differ from an identical earlier job"
        if reason:
            fail(job, reason, True)
    return failed, wrong, reasons


def _clear_caches():
    """Empty every functools cache in the loaded polyflow modules."""
    for name, module in list(sys.modules.items()):
        if name == "polyflow" or name.startswith("polyflow."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _per_call(fn, reps):
    """Median time at reference speed, each call starting from empty caches."""
    times = []
    for _ in range(reps):
        _clear_caches()
        with Interval() as interval:
            fn()
        times.append(interval.scaled)
    return statistics.median(times)


def scale_probe():
    """time(4n) / time(n) per call, on fixed planar inputs at n = 256 and 1024.

    Planar (p = 2) inputs, as in large-n's tail and half its body, take the
    planar transform as well as the real-basis projection.  Caches are
    emptied before every call, as a CLI call on a new n finds them.
    """
    from polyflow import polygon, spectral_flow

    rng = np.random.default_rng(PROBE_SEED)
    times = {}
    for n, reps in ((256, 3), (1024, 1)):
        x = polygon.Polygon(blob(rng, n, 2))
        start = polygon.Polygon(blob(rng, 6, 2))
        solution = spectral_flow.flow_solution(x, 1)
        times[n] = {
            "spectral_flow.decompose": _per_call(lambda: spectral_flow.decompose(x), reps),
            "spectral_flow.FlowSolution.polygon_at": _per_call(lambda: solution.polygon_at(0.5), 8),
            "polygon.reconcile_vertex_counts": _per_call(
                lambda: polygon.reconcile_vertex_counts(start, x, "midpoint"), reps),
        }
    return {f"{name}.scale_4x": times[1024][name] / times[256][name] for name in times[256]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the polyflow package")
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from polyflow import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"polyflow was imported from {cli.__file__}, not from {args.src}")

    with open(args.jobs) as fh:
        jobs = json.load(fh)
    tracer = Tracer() if args.trace else None
    installed = tracer.install() if tracer else []
    try:
        results = run_jobs(cli, jobs, tracer)
    finally:
        if tracer:
            tracer.remove()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, wrong, reasons = verify(jobs, results)
    doc = {
        "attempted": len(jobs),
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons,
        "wall_s": [r[0] for r in results],
        "scaled_s": [r[1] for r in results],
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if tracer:
        doc["installed"] = installed
        doc["calls"] = dict(tracer.calls)
        doc["busy_s"] = dict(tracer.busy)
        doc["self_s"] = dict(tracer.self_time)
        doc["counters"] = dict(tracer.counters)
        doc["scale_4x"] = scale_probe()
    with open(args.out, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
