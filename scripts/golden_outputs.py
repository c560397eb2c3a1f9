#!/usr/bin/env python3
"""Golden outputs: decide whether every output bit of a benchmark job list
is unchanged.

    python3 scripts/golden_outputs.py --workload gallery --seed 7 --seconds 3 \\
        --src ../parent/src --write gallery.json
    python3 scripts/golden_outputs.py --workload gallery --seed 7 --seconds 3 \\
        --check gallery.json

The job list is the benchmark's own, built by ``perfbench/workloads.py``'s
``make_jobs`` in a temporary directory, and run in this process by the
benchmark's ``worker.run_jobs`` through ``polyflow.cli.main``, imported from
``--src`` (default: this checkout's ``src``).  Per job the manifest holds
the argv and a SHA-256 of the exit code, of stdout, of stderr and of the
bytes of every ``--csv``, ``--svg`` and ``--json`` output, with the
temporary directory replaced by a fixed token first.

The manifest also records the Python, numpy and orjson versions.  ``--check``
exits 2 when they differ from the running ones, or when the manifest was
written for another job list; else it lists each job that differs, with its
argv and the parts that differ, and exits 1 if there is one.  numpy's SIMD
``exp`` and FFT kernels can differ in the last bit between CPUs, so a
manifest is only to be compared on the machine that wrote it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from worker import run_jobs  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

TOKEN = "<work>"  # stands for the temporary directory in argv and outputs
OUTPUT_FLAGS = ("--csv", "--svg", "--json")


class GoldenError(Exception):
    """The run cannot be compared: a wrong import or a foreign manifest."""


def import_cli(src: str):
    """``polyflow.cli`` as imported from ``src``; GoldenError if polyflow
    is, or would be, loaded from anywhere else."""
    package = os.path.realpath(os.path.join(src, "polyflow"))
    sys.path.insert(0, src)
    import polyflow.cli

    found = os.path.realpath(os.path.dirname(polyflow.cli.__file__))
    if found != package:
        raise GoldenError(f"polyflow was imported from {found}, not from {package}")
    return polyflow.cli


def versions() -> dict:
    import numpy
    import orjson

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "orjson": orjson.__version__}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hashed_parts(argv: list[str], code, stdout: str, stderr: str, work: str) -> dict:
    """The hashed parts of one finished job: its exit code, stdout, stderr
    and each output file, the work directory replaced by TOKEN."""
    parts = {
        "exit": _digest(str(code).encode()),
        "stdout": _digest(stdout.replace(work, TOKEN).encode()),
        "stderr": _digest(stderr.replace(work, TOKEN).encode()),
    }
    for flag, path in zip(argv, argv[1:]):
        if flag in OUTPUT_FLAGS:
            try:
                with open(path, "rb") as fh:
                    parts[flag] = _digest(fh.read().replace(work.encode(), TOKEN.encode()))
            except OSError:
                parts[flag] = "absent"
    return parts


def manifest(workload: str, seed: int, seconds: int, src: str) -> dict:
    cli = import_cli(src)
    work = tempfile.mkdtemp(prefix="golden-")
    try:
        jobs = make_jobs(workload, seed, seconds, work)
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # as in a fresh interpreter, whoever calls
            results = run_jobs(cli, jobs)
        hashed = [
            {"argv": [a.replace(work, TOKEN) for a in job["argv"]],
             "parts": hashed_parts(job["argv"], code, out, err, work)}
            for job, (_, _, code, out, err) in zip(jobs, results)
        ]
    finally:
        shutil.rmtree(work)
    return {"workload": workload, "seed": seed, "seconds": seconds, "versions": versions(),
            "jobs": hashed}


def check(old: dict, new: dict) -> int:
    """Print how ``new`` departs from the manifest ``old``, one line per
    job whose parts differ; the exit code."""
    if old["versions"] != new["versions"]:
        print(f"versions differ: manifest {old['versions']}, here {new['versions']}",
              file=sys.stderr)
        return 2
    if [job["argv"] for job in old["jobs"]] != [job["argv"] for job in new["jobs"]]:
        print("the manifest was written for another job list", file=sys.stderr)
        return 2
    moved = 0
    for index, (a, b) in enumerate(zip(old["jobs"], new["jobs"])):
        parts = sorted(part for part in a["parts"].keys() | b["parts"].keys()
                       if a["parts"].get(part) != b["parts"].get(part))
        if parts:
            moved += 1
            print(f"job {index}: {' '.join(a['argv'])}: {', '.join(parts)}")
    print(f"{moved} of {len(new['jobs'])} jobs differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to import polyflow from")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="write the manifest here")
    mode.add_argument("--check", metavar="FILE", help="compare against this manifest")
    args = parser.parse_args(argv)
    try:
        if args.check:
            with open(args.check) as fh:
                old = json.load(fh)
            if (old["workload"], old["seed"], old["seconds"]) != (
                    args.workload, args.seed, args.seconds):
                raise GoldenError(
                    f"the manifest is of {old['workload']} at seed {old['seed']}, "
                    f"--seconds {old['seconds']}")
        new = manifest(args.workload, args.seed, args.seconds, args.src)
    except GoldenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check:
        return check(old, new)
    with open(args.write, "w") as fh:
        json.dump(new, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(new['jobs'])} jobs to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
