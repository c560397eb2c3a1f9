"""Output checks that share no code with polyflow.

Closed forms come from numpy's real FFT: the flow matrix is circulant, so
mode k of X0 decays by exp(-(4 sin^2(pi k / n))^m t).  Vertex-count
reconciliation is re-implemented here from its documented rule.  Every
check returns None when the output is right and a one-line reason when not.
Accuracy is pass/fail only: a last-bit rounding change must not read as a
regression.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

# Closed-form outputs must match to this share of the polygon's scale.
CLOSED_FORM_TOL = 1e-9
# Modes below this share of the largest mode mass are numerical leakage.
PRESENCE = 1e-12


def read_polygon(path: str) -> np.ndarray:
    if path.endswith(".json"):
        with open(path) as fh:
            return np.array(json.load(fh)["vertices"], dtype=float)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def rates(n: int, m: int) -> np.ndarray:
    """Decay rates of the rfft modes k = 0..n//2 (all <= 0)."""
    k = np.arange(n // 2 + 1)
    return -((4.0 * np.sin(np.pi * k / n) ** 2) ** m)


def evolve(x0: np.ndarray, m: int, times) -> np.ndarray:
    """X(t) for each t, shape (len(times), n, p)."""
    n = x0.shape[0]
    spectrum = np.fft.rfft(x0, axis=0)
    lam = rates(n, m)
    return np.stack([np.fft.irfft(spectrum * np.exp(lam * t)[:, None], n, axis=0) for t in times])


def grow(v: np.ndarray, target: int, strategy: str) -> np.ndarray:
    """Pad to ``target`` vertices: repeat the last vertex, or bisect the
    longest edge (lowest index on ties) until the count is reached."""
    if strategy == "duplicate":
        return np.vstack([v, np.repeat(v[-1:], target - len(v), axis=0)])
    while len(v) < target:
        d = np.roll(v, -1, axis=0) - v
        i = int(np.argmax(np.sum(d * d, axis=1)))
        v = np.insert(v, i + 1, 0.5 * (v[i] + v[(i + 1) % len(v)]), axis=0)
    return v


def reconciled(check: dict) -> tuple[np.ndarray, np.ndarray]:
    x0, y = read_polygon(check["input"]), read_polygon(check["target"])
    size = max(len(x0), len(y))
    strategy = check.get("strategy") or "midpoint"
    return grow(x0, size, strategy), grow(y, size, strategy)


def trajectory_error(path: str, times, expected: np.ndarray) -> tuple[str | None, float]:
    """Compare a ``t,vertex_index,x1..xp`` table with expected states.

    Returns (reason, max abs error); the reason is set for a malformed table.
    """
    _, n, p = expected.shape
    with open(path) as fh:
        header = fh.readline().strip()
    want = ",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)])
    if header != want:
        return f"header {header!r}", math.inf
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (len(times) * n, 2 + p):
        return f"table shape {data.shape}, expected {(len(times) * n, 2 + p)}", math.inf
    if not np.allclose(data[:, 0], np.repeat(times, n), rtol=1e-12, atol=0.0):
        return "time column differs from the schedule", math.inf
    if not np.array_equal(data[:, 1], np.tile(np.arange(n), len(times))):
        return "vertex_index column is not 0..n-1 per sample", math.inf
    return None, float(np.max(np.abs(data[:, 2:] - expected.reshape(-1, p))))


def _closed_form_csv(path, times, expected, scale) -> str | None:
    reason, err = trajectory_error(path, times, expected)
    if reason:
        return reason
    if not err <= CLOSED_FORM_TOL * scale:
        return f"trajectory off the closed form by {err:.3g} (scale {scale:.3g})"
    return None


def _svg(path, polygons) -> str | None:
    if path is None:
        return None
    with open(path) as fh:
        text = fh.read()
    if not text.startswith("<?xml") or not text.rstrip().endswith("</svg>"):
        return "SVG is not a complete document"
    if text.count("<polygon ") != polygons:
        return f"SVG has {text.count('<polygon ')} polygons, expected {polygons}"
    return None


def check_flow(check, stdout) -> str | None:
    x0 = read_polygon(check["input"])
    expected = evolve(x0, check["m"], check["times"])
    scale = float(np.abs(x0).max())
    return _closed_form_csv(check["csv"], check["times"], expected, scale) or _svg(
        check.get("svg"), len(check["times"]) + 1
    )


def check_yau(check, stdout) -> str | None:
    x0, y = reconciled(check)
    expected = evolve(x0 - y, check["m"], check["times"]) + y[None]
    scale = max(float(np.abs(x0).max()), float(np.abs(y).max()))
    return _closed_form_csv(check["csv"], check["times"], expected, scale) or _svg(
        check.get("svg"), len(check["times"]) + 2
    )


def mode_masses(x0: np.ndarray) -> np.ndarray:
    """Norm of each cosine/sine mode-pair component, k = 0..n//2."""
    n = x0.shape[0]
    power = np.sum(np.abs(np.fft.rfft(x0, axis=0)) ** 2, axis=1)
    weight = np.full(power.shape, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    return np.sqrt(weight * power)


def check_analyze(check, stdout) -> str | None:
    x0 = read_polygon(check["input"])
    n, p = x0.shape
    m = check["m"]
    with open(check["json"]) as fh:
        report = json.load(fh)
    if (report["n"], report["p"], report["m"]) != (n, p, m):
        return f"report n, p, m = {report['n']}, {report['p']}, {report['m']}"
    scale = float(np.abs(x0).max())
    if not np.max(np.abs(np.array(report["centroid"]) - x0.mean(axis=0))) <= 1e-12 * scale:
        return "centroid differs from the vertex mean"
    spectrum = np.fft.fft(x0, axis=0)
    k = np.arange(n)
    energy = 0.5 / n * float(np.sum((4.0 * np.sin(np.pi * k / n) ** 2) ** m
                                    * np.sum(np.abs(spectrum) ** 2, axis=1)))
    if not abs(report["energy"] - energy) <= 1e-9 * energy:
        return f"energy {report['energy']!r}, closed form {energy!r}"
    masses = mode_masses(x0)
    cutoff = PRESENCE * masses.max()
    shape = masses[1:]
    if np.any((shape > cutoff / 1e3) & (shape < cutoff * 1e3)):
        return None  # a mode sits at the presence threshold: the verdict is rounding
    present = [int(i) + 1 for i in np.nonzero(shape > cutoff)[0]]
    want = (min(present), max(present)) if present else (None, None)
    got = (report["dominant_mode"], report["ancient_mode"])
    if got != want:
        return f"dominant/ancient modes {got}, expected {want}"
    return None


def check_matrix(check, stdout) -> str | None:
    n, m = check["n"], check["m"]
    lines = stdout.strip().splitlines()
    if len(lines) != 3:
        return f"expected 3 lines, got {len(lines)}"
    row = [0] * n
    for j in range(-m, m + 1):  # (z - 2 + 1/z)^m, wrapped mod n
        row[j % n] += (-1) ** (m + j) * math.comb(2 * m, m + j)
    sign = (-1) ** (m + 1)
    if [int(t) for t in lines[0].split()] != row:
        return "first row of M^m differs from the signed binomial sum"
    if sum(int(t) for t in lines[0].split()) != 0:
        return "row sum is not zero"
    if [int(t) for t in lines[1].split()] != [sign * b for b in row]:
        return "flow-matrix row has the wrong sign"
    eig = np.array([float(t) for t in lines[2].split()])
    want = -((4.0 * np.sin(np.pi * np.arange(n) / n) ** 2) ** m)
    if eig.shape != want.shape or not np.all(np.abs(eig - want) <= 1e-12 * np.maximum(1.0, -want)):
        return "eigenvalues differ from -(4 sin^2(pi k/n))^m"
    return None


_DEVIATION = re.compile(r"max \|rk4 - exact\| at T=\S+: (\S+)$")


def check_integrate(check, stdout) -> str | None:
    """RK4 at dt*|rate_max| = 0.1 has global error ~ (dt*|rate_max|)^4/120 of
    the amplitude; the bound leaves two orders of magnitude above that."""
    match = _DEVIATION.search(stdout.strip())
    if not match:
        return "no deviation line on stdout"
    deviation = float(match.group(1))
    x0 = read_polygon(check["input"])
    n = x0.shape[0]
    m, dt, t_final = check["m"], check["dt"], check["T"]
    if check["target"]:
        x0, y = reconciled(check)
    else:
        y = np.zeros_like(x0)
    scale = max(float(np.abs(x0).max()), float(np.abs(y).max()))
    bound = (dt * (4.0 * math.sin(math.pi * (n // 2) / n) ** 2) ** m) ** 4 * scale
    if not deviation <= bound:
        return f"deviation {deviation!r} above the dt bound {bound:.3g}"
    if check["csv"]:
        steps = int(round(t_final / dt))
        times = np.append(dt * np.arange(steps), t_final)
        with open(check["csv"]) as fh:
            fh.readline()
            first = np.loadtxt(fh, delimiter=",", max_rows=x0.shape[0], ndmin=2)
        if not np.array_equal(first[:, 2:], x0):
            return "trajectory does not start at the input polygon"
        expected = evolve(x0 - y, m, times) + y[None]
        reason, err = trajectory_error(check["csv"], times, expected)
        if reason:
            return reason
        if not err <= bound:
            return f"RK4 trajectory off the closed form by {err:.3g} (bound {bound:.3g})"
    return None


CHECKS = {
    "flow": check_flow,
    "yau": check_yau,
    "analyze": check_analyze,
    "matrix": check_matrix,
    "integrate": check_integrate,
}
