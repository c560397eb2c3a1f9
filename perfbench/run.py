#!/usr/bin/env python3
"""The polyflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gallery --seed 20260810 --seconds 15 --trace 0

Set-up writes the workload's input polygons and job list under
``.perfbench_work/`` in the checkout (removed again at the end).  Every job
is one ``polyflow`` command run in-process through ``polyflow.cli.main`` by a
single closed-loop client in a fresh worker process, and every job's output
is checked against the benchmark's own closed forms (``oracle.py``).

``--trace 0`` runs the job list once and reports the end-to-end metrics:
throughput (jobs over their summed latencies), job latency p50 and p90, the
worker's peak resident memory, and set-up time (the median over fresh
processes that import polyflow and run the first job, before and after the
pass).  Times are given at reference machine speed: a fixed kernel timed
around every job and set-up run measures how fast the shared host is running
just then (``calibration.py``).  The raw wall-clock figures are printed too.

``--trace 1`` runs the job list once untraced and once traced, each in a
fresh worker, and reports the per-layer metrics (also at reference speed)
and the tracing overhead.  It fails if a layer the workload exists to
exercise recorded no spans.

Every metric is printed by name with its unit on ``#`` lines, then the run
metadata; the last line is the JSON result.  The exit code is 0 when a result
is printed.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 20260810
SETUP_RUNS_PER_SIDE = 3  # before and after the pass
# Every child is killed at this many seconds after start; runs must end by 180.
DEADLINE_S = 170.0
# One BLAS thread: the client is single-threaded, and on a small shared
# machine BLAS helper threads only add run-to-run noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (  # name, unit
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# name, unit, how it is read from the traced worker
PER_LAYER = (
    ("spectral_flow.decompose.calls", "count", "calls"),
    ("spectral_flow.decompose.busy_ms", "ms", "busy"),
    ("spectral_flow.decompose.scale_4x", "ratio", "scale"),
    ("spectral_flow.FlowSolution.from_decomposition.busy_ms", "ms", "busy"),
    ("spectral_flow.FlowSolution.polygon_at.calls", "count", "calls"),
    ("spectral_flow.FlowSolution.polygon_at.busy_ms", "ms", "busy"),
    ("spectral_flow.FlowSolution.polygon_at.scale_4x", "ratio", "scale"),
    ("spectral_flow.classify_self_similar.busy_ms", "ms", "busy"),
    ("spectral_flow.rescaled_limit.busy_ms", "ms", "busy"),
    ("spectral_flow.solve.busy_ms", "ms", "busy"),
    ("circulant.fourier_matrix.calls", "count", "calls"),
    ("circulant.fourier_matrix.busy_ms", "ms", "busy"),
    ("circulant.idft.busy_ms", "ms", "busy"),
    ("circulant.power_of_m.calls", "count", "calls"),
    ("circulant.power_of_m.busy_ms", "ms", "busy"),
    ("circulant.eigen_system.busy_ms", "ms", "busy"),
    ("polygon.real_basis.calls", "count", "calls"),
    ("polygon.real_basis.busy_ms", "ms", "busy"),
    ("polygon.reconcile_vertex_counts.busy_ms", "ms", "busy"),
    ("polygon.reconcile_vertex_counts.inserted", "count", "counter"),
    ("polygon.reconcile_vertex_counts.scale_4x", "ratio", "scale"),
    ("polygon.load_polygon.busy_ms", "ms", "busy"),
    ("polygon.Polygon.constructed", "count", "counter"),
    ("yau_flow.yau_flow_between.self_ms", "ms", "self"),
    ("integrate.integrate.busy_ms", "ms", "busy"),
    ("integrate.steps", "count", "counter"),
    ("integrate.step_us", "us", "step"),
    ("integrate.retained_states", "count", "counter"),
    ("svg.write.busy_ms", "ms", "busy"),
    ("svg.bytes_out", "bytes", "counter"),
    ("cli.write_trajectory_csv.busy_ms", "ms", "busy"),
    ("cli.csv_bytes", "bytes", "counter"),
    ("cli.main.self_ms", "ms", "self"),
    ("tracing_overhead", "ratio", "overhead"),
)

# Spans each workload must record: the layers whose metrics it is there to move.
REQUIRED_SPANS = {
    "gallery": (
        "circulant.power_of_m", "circulant.eigen_system", "polygon.load_polygon",
        "yau_flow.yau_flow_between", "svg.write", "cli.write_trajectory_csv", "cli.main",
    ),
    "large-n": (
        "spectral_flow.decompose", "spectral_flow.FlowSolution.from_decomposition",
        "spectral_flow.FlowSolution.polygon_at", "spectral_flow.classify_self_similar",
        "spectral_flow.rescaled_limit", "circulant.fourier_matrix", "circulant.idft",
        "polygon.real_basis", "polygon.reconcile_vertex_counts", "polygon.load_polygon",
    ),
    "rk4-oracle": (
        "spectral_flow.solve", "integrate.integrate", "cli.write_trajectory_csv",
        "circulant.power_of_m", "polygon.Polygon.constructed",
    ),
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid result."""


def _child(argv, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting " + os.path.basename(argv[1]))
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining, env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{os.path.basename(argv[1])} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{os.path.basename(argv[1])} exited {proc.returncode}: "
                             + proc.stderr.strip()[-500:])
    return proc.stdout


def run_worker(jobs_path, work, trace, deadline, tag) -> dict:
    out = os.path.join(work, f"result-{tag}.json")
    _child([os.path.join(HERE, "worker.py"), "--src", SRC, "--jobs", jobs_path,
            "--out", out, "--trace", str(trace)], deadline)
    with open(out) as fh:
        return json.load(fh)


def measure_setup(first_job, deadline) -> list[dict]:
    return [json.loads(_child([os.path.join(HERE, "first_job.py"), SRC,
                               json.dumps(first_job["argv"])], deadline))
            for _ in range(SETUP_RUNS_PER_SIDE)]


def jobs_per_s(result, key="scaled_s") -> float:
    return result["attempted"] / sum(result[key])


def latency_ms(result, key) -> tuple[float, float, int]:
    """p50, p90 and the number of samples beyond p90."""
    lat = sorted(1000.0 * s for s in result[key])
    p90 = statistics.quantiles(lat, n=10)[8]
    return statistics.median(lat), p90, sum(x > p90 for x in lat)


def end_to_end(result, setups) -> tuple[dict, list[str]]:
    p50, p90, beyond = latency_ms(result, "scaled_s")
    values = {
        "jobs_per_s": jobs_per_s(result),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    raw_p50, raw_p90, _ = latency_ms(result, "wall_s")
    notes = [
        f"latency samples = {result['attempted']}, beyond p90 = {beyond}",
        f"wall clock: jobs_per_s = {jobs_per_s(result, 'wall_s'):.6g}, job_p50_ms = "
        f"{raw_p50:.6g}, job_p90_ms = {raw_p90:.6g}, setup_s = "
        f"{statistics.median(s['wall_s'] for s in setups):.6g}",
    ]
    return values, notes


def per_layer(workload, plain, traced) -> tuple[dict, list[str]]:
    missing = sorted({name.rsplit(".", 1)[0] for name, _, how in PER_LAYER
                      if how in ("calls", "busy", "self")} - set(traced["installed"]))
    if missing:
        raise BenchmarkError("tracer did not wrap " + ", ".join(missing))
    idle = [s for s in REQUIRED_SPANS[workload]
            if not (traced["calls"].get(s) or traced["counters"].get(s))]
    if idle:
        raise BenchmarkError(f"no spans recorded on {workload} for " + ", ".join(idle))
    counters = traced["counters"]
    values = {}
    for name, _, how in PER_LAYER:
        span = name.rsplit(".", 1)[0]
        if how == "calls":
            values[name] = traced["calls"].get(span, 0)
        elif how == "busy":
            values[name] = 1000.0 * traced["busy_s"].get(span, 0.0)
        elif how == "self":
            values[name] = 1000.0 * traced["self_s"].get(span, 0.0)
        elif how == "scale":
            values[name] = traced["scale_4x"][name]
        elif how == "counter":
            values[name] = counters.get(name, 0)
        elif how == "step":
            steps = counters.get("integrate.steps", 0)
            busy = traced["busy_s"].get("integrate.integrate", 0.0)
            values[name] = 1e6 * busy / steps if steps else 0.0
        else:
            values[name] = jobs_per_s(traced) / jobs_per_s(plain)
    notes = [f"tracing overhead = traced {jobs_per_s(traced):.6g} jobs/s / "
             f"untraced {jobs_per_s(plain):.6g} jobs/s (reference speed)"]
    if counters.get("tracer.hook_errors"):
        notes.append(f"{counters['tracer.hook_errors']} per-layer counter updates failed")
    return values, notes


def metadata(args) -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_sha": sha,
    }


def run(args, work) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs = make_jobs(args.workload, args.seed, args.seconds, work)
    jobs_path = os.path.join(work, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(jobs, fh)

    units = dict(END_TO_END)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        workers = [run_worker(jobs_path, work, trace, deadline, f"trace{trace}") for trace in (0, 1)]
        values, notes = per_layer(args.workload, *workers)
        attempted = failed = wrong = 0
    else:
        setups = measure_setup(jobs[0], deadline)
        workers = [run_worker(jobs_path, work, 0, deadline, "trace0")]
        setups += measure_setup(jobs[0], deadline)
        values, notes = end_to_end(workers[0], setups)
        attempted = len(setups)
        # The first job is well-formed, so a wrong exit code is a wrong output.
        failed = wrong = sum(s["code"] != jobs[0]["expect"] for s in setups)
        if failed:
            notes.append(f"{failed} set-up runs of the first job exited wrongly")
    attempted += sum(w["attempted"] for w in workers)
    failed += sum(w["failed"] for w in workers)
    wrong += sum(w["wrong"] for w in workers)

    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} jobs, "
          f"{wrong} with wrong output)")
    for note in notes:
        print(f"# {note}")
    reasons = collections.Counter()
    for w in workers:
        reasons.update(w["reasons"])
    for reason, count in reasons.items():
        print(f"# failed {count}x: {reason}")
    print("# meta " + json.dumps(metadata(args)))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("POLYFLOW_SEED", DEFAULT_SEED)))
    parser.add_argument("--seconds", type=int, default=15,
                        help="sets the job counts: about this many seconds of jobs at the "
                        "commit that introduced the benchmark (with a floor of 103 jobs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polyflow", "cli.py")):
        print(f"error: no polyflow sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = run(args, work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
