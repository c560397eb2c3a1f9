"""Seeded job lists for the three workloads, and the input files they read.

A job is one ``polyflow`` command line, the exit code it must return, and
the facts the output check needs.  The same (workload, seed, seconds) always
gives the same jobs and byte-identical input files, so per-layer counts
repeat exactly.  Job counts follow ``seconds`` at the rates measured at the
commit that introduced this benchmark, with a floor of 103 jobs so that at
least ten latency samples lie beyond p90.  ``large-n`` stays at that floor,
which takes ~28 s there, until ``seconds`` passes 28.

Why each workload exists:

* ``gallery``: the common use.  Small figure and report jobs on a few
  repeated n, so the CLI, polygon I/O, SVG/CSV emission and per-call
  overhead dominate and first-call caches stay warm.  A small fixed share of
  malformed requests checks the documented exit codes.
* ``large-n``: heavy-tailed n = 128..512 body with an n ~ 1024 tail and a
  6 -> ~1000 vertex midpoint Yau job.  Every n is distinct, so each job pays
  cold spectral set-up as a separate CLI call would.
* ``rk4-oracle``: ``integrate`` jobs at dt = 0.1/|rate_max|, ~800 steps
  each plus a few 20 000-step jobs, so the RK4 stencil, per-step state and
  memory growth with step count are what is measured.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("gallery", "large-n", "rk4-oracle")

# Jobs per second of --seconds (body jobs for large-n and rk4-oracle), as
# measured at the introducing commit.
GALLERY_JOBS_PER_S = 210
LARGE_N_BODY_PER_S = 3.6
RK4_BODY_PER_S = 8

# Job shares.  Nothing in the repository weighs the subcommands against each
# other beyond scripts/make_figures.py (as many flow as yau figures) and the
# README (an example of each), so every subcommand of a mix gets the same
# share.  The malformed share is a chosen small constant.
MALFORMED_SHARE = 0.02
GALLERY_SHARE = (1.0 - MALFORMED_SHARE) / 4  # flow, yau, analyze, matrix

# With the tail jobs this gives at least 103 jobs, so at least ten latency
# samples lie beyond p90.
MIN_BODY = 101

T0, RATIO = 0.05, 1.6  # the CLI's documented default time schedule


def schedule(count: int) -> list[float]:
    return [T0 * RATIO**j for j in range(count)]


def rate_max(n: int, m: int) -> float:
    """|fastest flow eigenvalue| = (4 sin^2(pi floor(n/2) / n))^m."""
    return (4.0 * math.sin(math.pi * (n // 2) / n) ** 2) ** m


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(math.isqrt(k)) + 1))


class InputStore:
    """Writes polygon files under ``root/inputs`` and names outputs under ``root/out``."""

    def __init__(self, root: str):
        self.inputs = os.path.join(root, "inputs")
        self.out = os.path.join(root, "out")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)
        self._count = 0

    def _path(self, ext: str) -> str:
        self._count += 1
        return os.path.join(self.inputs, f"in{self._count}.{ext}")

    def polygon(self, vertices: np.ndarray, fmt: str = "json") -> str:
        path = self._path(fmt)
        with open(path, "w") as fh:
            if fmt == "json":
                rows = [[float(c) for c in row] for row in vertices]
                json.dump({"dim": int(vertices.shape[1]), "vertices": rows}, fh)
                fh.write("\n")
            else:
                p = vertices.shape[1]
                fh.write(",".join(f"x{i + 1}" for i in range(p)) + "\n")
                for row in vertices:
                    fh.write(",".join(repr(float(c)) for c in row) + "\n")
        return path

    def raw(self, text: str, ext: str) -> str:
        path = self._path(ext)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def output(self, index: int, ext: str) -> str:
        return os.path.join(self.out, f"job{index}.{ext}")


def blob(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """An irregular n-gon in R^p: a perturbed circle, scaled and moved off the origin."""
    radius = rng.uniform(0.5, 3.0)
    theta = 2.0 * np.pi * np.arange(n) / n + rng.uniform(0.0, 2.0 * np.pi)
    v = np.zeros((n, p))
    v[:, 0] = np.cos(theta)
    v[:, 1] = np.sin(theta)
    if p > 2:
        v[:, 2] = 0.3 * np.sin(2.0 * theta + rng.uniform(0.0, 2.0 * np.pi))
    v += rng.uniform(-0.25, 0.25, size=v.shape)
    return radius * v + rng.uniform(-2.0, 2.0, size=p)


def stratified(count: int, lo: float, hi: float, skew: float = 1.0) -> list[int]:
    """``count`` sizes in [lo, hi], one at the middle of each equal-probability stratum.

    ``skew`` = 1 is log-uniform; larger values put more of the sizes near
    ``lo``.  The sizes are the same in every seed, which keeps the latency
    percentiles steady; the seed varies the polygons, orders and flow orders.
    """
    u = ((np.arange(count) + 0.5) / count) ** skew
    return [int(round(lo * (hi / lo) ** x)) for x in u]


def _distinct(values: list[int], used: set[int], lo: int, hi: int) -> list[int]:
    out = []
    for v in values:
        cand = next(c for step in range(hi - lo + 1) for c in (v + step, v - step)
                    if lo <= c <= hi and c not in used)
        used.add(cand)
        out.append(cand)
    return out


def _job(argv, expect=0, check=None, group=None) -> dict:
    return {"argv": [str(a) for a in argv], "expect": expect, "check": check, "group": group}


def _first_of_kind(jobs: list[dict], kind: str) -> list[dict]:
    """Move the first job of ``kind`` to the front: it is the set-up job."""
    i = next(i for i, j in enumerate(jobs) if j["check"] and j["check"]["kind"] == kind)
    return [jobs[i]] + jobs[:i] + jobs[i + 1:]


def _quotas(total: int, shares: dict[str, float]) -> dict[str, int]:
    counts = {k: int(round(total * s)) for k, s in shares.items()}
    first = next(iter(shares))
    counts[first] += total - sum(counts.values())
    return counts


def gallery(rng, seconds, store: InputStore) -> list[dict]:
    total = max(600, int(round(seconds * GALLERY_JOBS_PER_S)))
    bins = [(5, 6), (9, 11), (15, 17), (24, 27), (38, 42), (59, 64)]
    ns = [int(rng.integers(lo, hi + 1)) for lo, hi in bins]
    polys = {}  # (bin index, p, format) -> path
    for i, n in enumerate(ns):
        for p, fmt in ((2, "json"), (2, "csv"), (3, "json")):
            polys[i, p, fmt] = store.polygon(blob(rng, n, p), fmt)

    # Fixed pairings and orders keep the mix of job costs the same in every seed.
    templates = {"flow": [], "yau": [], "analyze": [], "matrix": []}
    for (i, p, fmt), path in polys.items():
        for m in (1, 2, 3):
            templates["flow"].append({"input": path, "m": m, "p": p})
        for m in (1 + i % 3, 1 + (i + 1) % 3):
            templates["analyze"].append({"input": path, "m": m})
        for step, strategy in ((1, "midpoint"), (3, "duplicate")):
            target = polys[(i + step) % len(ns), p, "json"]
            templates["yau"].append({"input": path, "target": target, "strategy": strategy,
                                     "m": 1 + (i + step) % 3, "p": p})
    for n in ns:
        for m in (1, 2, 3):
            templates["matrix"].append({"n": n, "m": m})

    malformed = _malformed_templates(rng, store)
    quotas = _quotas(total, {**{kind: GALLERY_SHARE for kind in templates},
                             "malformed": MALFORMED_SHARE})
    picks = []  # (kind, template index); every template recurs, so SVG output can be compared
    for kind, count in quotas.items():
        pool = malformed if kind == "malformed" else templates[kind]
        order = rng.permutation(len(pool))
        picks += [(kind, int(order[i % len(pool)])) for i in range(count)]

    jobs = []
    for index, j in enumerate(rng.permutation(len(picks))):
        kind, t = picks[j]
        if kind == "malformed":
            argv, expect = malformed[t]
            jobs.append(_job([a.replace("{out}", store.output(index, "svg")) for a in argv], expect))
        else:
            jobs.append(_gallery_job(kind, templates[kind][t], store.output, index, f"{kind}:{t}"))
    return _first_of_kind(jobs, "flow")


def _gallery_job(kind: str, t: dict, output, index: int, group: str) -> dict:
    if kind == "matrix":
        return _job(["matrix", "--n", t["n"], "--m", t["m"]], 0, {"kind": kind, **t}, group)
    if kind == "analyze":
        out = output(index, "json")
        return _job(["analyze", "--input", t["input"], "--m", t["m"], "--json", out], 0,
                    {"kind": kind, **t, "json": out}, group)
    check = {"kind": kind, **t, "times": schedule(8), "csv": output(index, "csv"),
             "svg": output(index, "svg") if t["p"] == 2 else None}
    argv = [kind, "--input", t["input"]]
    if kind == "yau":
        argv += ["--target", t["target"], "--strategy", t["strategy"]]
    argv += ["--m", t["m"], "--csv", check["csv"]] + (["--svg", check["svg"]] if check["svg"] else [])
    return _job(argv, 0, check, group)


def _malformed_templates(rng, store: InputStore) -> list[tuple[list[str], int]]:
    """Requests with their documented exit codes: 2 argument error, 3 input error."""
    ragged = store.raw("x1,x2\n0.0,0.0\n1.0,0.5,2.0\n0.0,1.0\n", "csv")
    non_finite = store.raw('{"dim": 2, "vertices": [[0.0, 0.0], [1.0, NaN], [0.0, 1.0]]}\n', "json")
    two_vertices = store.polygon(blob(rng, 2, 2))
    spatial = store.polygon(blob(rng, 7, 3))
    planar = store.polygon(blob(rng, 7, 2))
    return [
        (["flow", "--input", ragged, "--m", "1"], 3),
        (["analyze", "--input", non_finite, "--m", "2"], 3),
        (["flow", "--input", two_vertices, "--m", "1"], 3),
        # No SVG exists for p = 3: an argument error.
        (["flow", "--input", spatial, "--m", "1", "--svg", "{out}"], 2),
        (["flow", "--input", planar, "--m", "0"], 2),
    ]


def _ordered(rng, plan: list, lead: list[int]) -> list[int]:
    """Plan indices: ``lead`` (the set-up job first), then the rest in seeded random order."""
    return lead + [int(j) for j in rng.permutation(len(plan)) if j not in lead]


def large_n(rng, seconds, store: InputStore) -> list[dict]:
    body = max(MIN_BODY, int(round(seconds * LARGE_N_BODY_PER_S)))
    counts = _quotas(body, {kind: 1.0 / 3.0 for kind in ("flow", "analyze", "yau")})
    tail_rounds = max(1, int(round(body / 100)))

    used: set[int] = set()
    plan = []  # (kind, n, p)
    for kind, count in counts.items():
        ns = _distinct(stratified(count, 128, 512, skew=1.5), used, 128, 512)
        # Every other size is spatial, starting above the smallest.
        plan += [(kind, n, 3 if i % 2 else 2) for i, n in enumerate(sorted(ns))]
    # Powers of two and primes among the body sizes.
    for special in (128, 256, 512):
        if special not in used:
            i = min(range(len(plan)), key=lambda i: abs(plan[i][1] - special))
            used.discard(plan[i][1])
            plan[i] = (plan[i][0], special, plan[i][2])
            used.add(special)
    for i in range(0, len(plan), 3):
        kind, n, p = plan[i]
        if n in (128, 256, 512) or _is_prime(n):
            continue
        prime = min((k for k in range(128, 513) if k not in used and _is_prime(k)),
                    key=lambda k: abs(k - n))
        used.discard(n)
        used.add(prime)
        plan[i] = (kind, prime, p)

    # The set-up job is the smallest planar flow: the body's common case.
    first = min((i for i, e in enumerate(plan) if e[0] == "flow" and e[2] == 2),
                key=lambda i: plan[i][1])
    # The tail runs last, when the spectral cache already holds the body's
    # matrices, so its large transients set peak memory the same way in every seed.
    tail_sizes = [1024] + [int(k) for k in rng.permutation([1009, 1013, 1019, 1021, 1031, 1033, 1039])]
    yau_sizes = [int(k) for k in rng.permutation([983, 991, 997, 1000])]
    body_order = _ordered(rng, plan, [first])
    for r in range(tail_rounds):
        plan += [("flow", tail_sizes[2 * r % 8], 2), ("analyze", tail_sizes[(2 * r + 1) % 8], 2),
                 ("yau-tail", yau_sizes[r % 4], 2)]

    jobs = []
    for index, j in enumerate(body_order + list(range(len(body_order), len(plan)))):
        kind, n, p = plan[j]
        m = int(rng.integers(1, 4))
        path = store.polygon(blob(rng, n, p))
        if kind == "flow":
            out = store.output(index, "csv")
            jobs.append(_job(["flow", "--input", path, "--m", m, "--count", 32, "--csv", out], 0, {
                "kind": "flow", "input": path, "m": m, "times": schedule(32), "csv": out,
            }))
        elif kind == "analyze":
            out = store.output(index, "json")
            jobs.append(_job(["analyze", "--input", path, "--m", m, "--json", out], 0,
                             {"kind": "analyze", "input": path, "m": m, "json": out}))
        else:
            start_n = 6 if kind == "yau-tail" else int(rng.integers(6, 25))
            start = store.polygon(blob(rng, start_n, p))
            out = store.output(index, "csv")
            argv = ["yau", "--input", start, "--target", path, "--m", m,
                    "--strategy", "midpoint", "--csv", out]
            jobs.append(_job(argv, 0, {
                "kind": "yau", "input": start, "target": path, "strategy": "midpoint",
                "m": m, "times": schedule(8), "csv": out,
            }))
    return jobs


def rk4_oracle(rng, seconds, store: InputStore) -> list[dict]:
    body = max(MIN_BODY, int(round(seconds * RK4_BODY_PER_S)))
    heavy_rounds = max(1, int(round(body / 100)))
    # Fixed patterns over the sorted sizes keep the mix the same in every seed.
    m_odd, target_at, p3_at = (int(k) for k in rng.integers(0, [2, 4, 4]))
    plan = []  # (n, m, steps, with_target, with_csv, p)
    for i, n in enumerate(stratified(body, 16, 256)):
        plan.append((n, 3 if i % 2 == m_odd else 1, int(rng.integers(750, 851)),
                     i % 4 == target_at, n <= 32 and i % 2 == 0, 3 if i % 4 == p3_at else 2))
    # The set-up job is the smallest: planar, first order, no target or CSV.
    first = 0
    plan[first] = (plan[first][0], 1, plan[first][2], False, False, 2)
    # Fixed heavy jobs, run right after the set-up job: their state history
    # then sets peak memory the same way in every seed.
    for _ in range(heavy_rounds):
        plan += [(256, 1, 20000, False, False, 2), (192, 1, 20000, True, False, 2)]
    lead = [first] + list(range(body, len(plan)))

    jobs = []
    for index, j in enumerate(_ordered(rng, plan, lead)):
        n, m, steps, with_target, with_csv, p = plan[j]
        dt = 0.1 / rate_max(n, m)
        t_final = steps * dt
        path = store.polygon(blob(rng, n, p))
        argv = ["integrate", "--input", path, "--m", m, "--dt", repr(dt), "--T", repr(t_final)]
        check = {"kind": "integrate", "input": path, "m": m, "dt": dt, "T": t_final,
                 "target": None, "csv": None}
        if with_target:
            target_n = max(3, n - int(rng.integers(0, 4)))
            check["target"] = store.polygon(blob(rng, target_n, p))
            argv += ["--target", check["target"]]
        if with_csv:
            check["csv"] = store.output(index, "csv")
            argv += ["--csv", check["csv"]]
        jobs.append(_job(argv, 0, check))
    return jobs


_BUILDERS = {"gallery": gallery, "large-n": large_n, "rk4-oracle": rk4_oracle}


def make_jobs(workload: str, seed: int, seconds: int, root: str) -> list[dict]:
    """Write the workload's inputs under ``root`` and return its job list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, seconds, InputStore(root))
