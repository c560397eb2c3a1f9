"""Shared independent oracles and fixtures for the test suite.

Everything here deliberately avoids the library's production code paths
where it serves as an oracle: dense matrices, per-vertex stencils, Procrustes
fits, and the Fourier-sandwich solution are implemented from scratch.
"""
import dataclasses
import json
import math

import numpy as np

from polyflow import FlowRangeError, Polygon, spectral_flow
from polyflow.circulant import flow_eigenvalue, flow_sign, fourier_matrix, idft, power_of_m
from polyflow.integrate import YauKind
from polyflow.polygon import energy, format_float


def save_polygon_json(x, path):
    """Write a polygon as the ``{"dim": p, "vertices": [...]}`` document that
    ``load_polygon`` reads back exactly."""
    with open(path, "w") as fh:
        json.dump({"dim": x.p, "vertices": x.vertices.tolist()}, fh)
        fh.write("\n")


def random_polygon(rng, n, p=2, scale=1.0):
    return Polygon(rng.uniform(-scale, scale, size=(n, p)))


def constant_polygon(point, n):
    point = np.asarray(point, dtype=float)
    return Polygon(np.tile(point, (n, 1)))


def dft(v):
    """Multiply by the Fourier matrix.  Direct O(n^2) summation, any length."""
    v = np.asarray(v, dtype=complex)
    return fourier_matrix(v.shape[0]) @ v


def root_of_unity(exponent: int, n: int) -> complex:
    """``exp(2*pi*i*exponent/n)`` one root at a time: exact (+-1, +-i) at
    quarter turns, ``cos`` and ``sin`` in the upper half plane and the
    conjugate of the mirrored root in the lower half."""
    a = exponent % n
    if 4 * a % n == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * a // n]
    if 2 * a > n:
        return root_of_unity(n - a, n).conjugate()
    theta = 2.0 * math.pi * a / n
    return complex(math.cos(theta), math.sin(theta))


def dense_circulant(first_row):
    """Dense matrix from a first row, built independently of the library."""
    n = len(first_row)
    return np.array([[first_row[(j - i) % n] for j in range(n)] for i in range(n)], dtype=float)


def minimal_r(m: int, n: int) -> int:
    """Smallest repetition count r with r*n >= 2m + 3.

    That width fits every binomial entry of both the order-m and order-(m+1)
    coefficient functions on the same cyclic domain.
    """
    if m < 1 or n < 3:
        raise ValueError(f"need m >= 1 and n >= 3, got m={m}, n={n}")
    return -((2 * m + 3) // -n)


def um_value(m: int, n: int, r: int, k: int) -> int:
    """Signed binomial coefficient function generating the entries of M^m.

    Over the cyclic index domain Z/(r*n): ``(-1)^(m+k) C(2m, m+k)`` on the
    leading band ``k <= m``, zero on the middle band, and the mirrored tail
    ``(-1)^(m+k-rn) C(2m, m+k-rn)`` for ``k >= rn - m``.
    """
    if m < 1 or n < 3:
        raise ValueError(f"need m >= 1 and n >= 3, got m={m}, n={n}")
    rn = r * n
    if rn - (2 * m + 1) < 2:
        raise ValueError(f"r={r} too small: need r*n - (2m+1) >= 2 for m={m}, n={n}")
    if not 0 <= k < rn:
        raise ValueError(f"index k={k} outside [0, {rn})")
    if k <= m:
        return (-1) ** (m + k) * math.comb(2 * m, m + k)
    if k <= rn - m - 1:
        return 0
    return (-1) ** (m + k - rn) * math.comb(2 * m, m + k - rn)


def power_from_um(n, m, r):
    """First row of M^m as the u_m window sum ``b_k = sum_j u_m(j*n + k)``
    over r copies of the size-n window; any admissible r gives the same row."""
    return tuple(sum(um_value(m, n, r, j * n + k) for j in range(r)) for k in range(n))


def gather_stencil(a):
    """The row map ``values -> a @ values`` as one index gather per nonzero
    entry, offsets folded to (-n/2, n/2] and accumulated in ascending signed
    order: the term order :func:`polyflow.circulant.stencil` must reproduce."""
    n = a.n
    base = np.arange(n)
    offsets = sorted((s if 2 * s <= n else s - n, c) for s, c in enumerate(a.first_row) if c)
    gathers = [((base + s) % n, float(c)) for s, c in offsets]

    def apply_rows(values):
        out = np.zeros(values.shape, dtype=np.promote_types(values.dtype, np.float64))
        for idx, coeff in gathers:
            out += coeff * values[idx]
        return out

    return apply_rows


def stagewise_rk4(x0, config):
    """Every state of the fixed-step RK4 run ``integrate`` makes, as arrays.

    The stage arithmetic is written out once per step on
    :func:`gather_stencil`, and the flow sign is an explicit ``sign *`` for
    every order, so a run must reproduce it bit for bit.
    """
    kind = config.kind
    apply_m = gather_stencil(power_of_m(x0.n, kind.m))
    sign = flow_sign(kind.m)
    target = kind.target.vertices if isinstance(kind, YauKind) else None

    def f(v):
        return sign * apply_m(v if target is None else v - target)

    dt, t_final = config.dt, config.t_final
    n_full = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_full * dt
    n_steps = n_full + (remainder > 1e-12 * max(1.0, abs(t_final)))
    states = [x0.vertices.copy()]
    for step_index in range(1, n_steps + 1):
        h = dt if step_index <= n_full else remainder
        v = states[-1]
        k1 = f(v)
        k2 = f(v + (0.5 * h) * k1)
        k3 = f(v + (0.5 * h) * k2)
        k4 = f(v + h * k3)
        states.append(v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    return states


def stencil_rhs(x, m):
    """Per-vertex flow velocity: (-1)^(m+1) sum_k (-1)^k C(2m,k) X_(j-m+k)."""
    n, p = x.n, x.p
    v = x.vertices
    sign = 1.0 if (m + 1) % 2 == 0 else -1.0
    out = np.zeros((n, p))
    for j in range(n):
        acc = np.zeros(p)
        for k in range(2 * m + 1):
            acc += ((-1) ** k * math.comb(2 * m, k)) * v[(j - m + k) % n]
        out[j] = sign * acc
    return out


def point_segment_distance(pt, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(pt - a))
    t = float(np.clip((pt - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(pt - (a + t * ab)))

def distance_to_polygon_edges(pt, poly):
    v = poly.vertices
    return min(
        point_segment_distance(pt, v[i], v[(i + 1) % poly.n]) for i in range(poly.n)
    )


def sup_distance(a, b):
    return float(np.abs(a.vertices - b.vertices).max())


def fit_slope(ts, values):
    """Least-squares slope of values against ts."""
    return float(np.polyfit(np.asarray(ts), np.asarray(values), 1)[0])


def rigid_fit_residual(source, target):
    """Residual of the best-fit rigid motion (rotation + translation) taking
    source onto target; Kabsch via SVD with a proper-rotation determinant fix."""
    a = source.vertices - source.vertices.mean(axis=0)
    b = target.vertices - target.vertices.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    d = np.sign(np.linalg.det(u @ vt))
    correction = np.ones(a.shape[1])
    correction[-1] = d
    rot = (u * correction) @ vt
    return float(np.linalg.norm(a @ rot - b))


def fourier_sandwich_yau(x0, y, m, t):
    """Direct evaluation of (1/n) F diag(exp(rate_k t)) conj(F) (X0 - Y) + Y,
    coordinate column by coordinate column."""
    n = x0.n
    f = fourier_matrix(n)
    rates = np.array([flow_eigenvalue(n, m, k) for k in range(n)])
    propagator = (f * np.exp(rates * t)) @ f.conjugate() / n
    z = x0.vertices - y.vertices
    return Polygon((propagator @ z).real + y.vertices)


def solve_planar_complex(x0, m, t):
    """Planar-only solution through the complex eigenpolygon coefficients:
    an independent route that must agree with the real-basis ``solve``."""
    if x0.n < 3:
        raise ValueError(f"flow needs n >= 3, got n = {x0.n}")
    exp_limit = math.log(np.finfo(float).max)
    coeffs = idft(x0.as_complex())
    factors = np.empty(x0.n)
    for k in range(x0.n):
        exponent = flow_eigenvalue(x0.n, m, k) * t
        if exponent > exp_limit and abs(coeffs[k]) != 0.0:
            raise FlowRangeError(
                f"exp({exponent:.6g}) overflows evaluating mode {k} at t={t!r}"
            )
        factors[k] = math.exp(min(exponent, exp_limit))
    out = Polygon.from_complex(dft(coeffs * factors))
    if not np.isfinite(out.vertices).all():
        raise FlowRangeError(f"evolution left floating range at t={t!r}")
    return out


def midpoint_grow(x, target):
    """Midpoint insertion by a full rescan per vertex: bisect the longest edge,
    ties to the lowest edge index, recomputing every edge length each time
    (the squared differences summed column by column, in order)."""
    verts = x.vertices
    while len(verts) < target:
        lengths = sum(d * d for d in (np.roll(verts, -1, axis=0) - verts).T)
        i = int(np.argmax(lengths))  # argmax takes the first maximum: lowest index
        mid = 0.5 * (verts[i] + verts[(i + 1) % len(verts)])
        verts = np.insert(verts, i + 1, mid, axis=0)
    return Polygon(verts)


def cell_csv_rows(fh, times, polygons):
    """The trajectory table one cell at a time: ``format_float`` of every
    time and coordinate, one ``write`` per row."""
    p = polygons[0].p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    for t, poly in zip(times, polygons):
        for j, row in enumerate(poly.vertices):
            cells = [format_float(t), str(j)] + [format_float(c) for c in row]
            fh.write(",".join(cells) + "\n")


def vertex_svg_points(polygon):
    """An SVG ``points`` attribute one vertex at a time, y flipped."""
    return " ".join(f"{format_float(x)},{format_float(-y)}" for x, y in polygon.vertices)


def figure_svg(samples, initial, target, stroke_width, dash_target):
    """The standard figure's SVG document one element at a time: the bounds
    by Python's ``min`` and ``max`` over every coordinate, each number by
    ``format_float`` and each ``points`` by ``vertex_svg_points``."""
    drawn = ([] if target is None else [target]) + [initial, *samples]
    xs = [x for q in drawn for x in q.vertices[:, 0].tolist()]
    ys = [y for q in drawn for y in q.vertices[:, 1].tolist()]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    extent = max(x1 - x0, y1 - y0)
    width = stroke_width
    if width is None:
        width = extent / 150.0 if extent > 0.0 else 0.01
    pad = 0.05 * extent if extent > 0.0 else 1.0
    view = (x0 - pad, -y1 - pad, x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)

    def element(q, stroke, w, dash=""):
        return (f'<polygon points="{vertex_svg_points(q)}" stroke="{stroke}" '
                f'stroke-width="{format_float(w)}"{dash}/>\n')

    doc = '<?xml version="1.0" encoding="UTF-8"?>\n'
    doc += f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(map(format_float, view))}">\n'
    doc += '<g fill="none" stroke-linejoin="round" stroke-linecap="round">\n'
    if target is not None:
        dash = ""
        if dash_target:
            dash = f' stroke-dasharray="{format_float(4.0 * width)} {format_float(3.0 * width)}"'
        doc += element(target, "#c02020", width, dash)
    doc += element(initial, "#000000", 1.8 * width)
    for q in samples:
        doc += element(q, "#6f6f6f", width)
    return doc + "</g>\n</svg>\n"


def recomputed_decision(dec):
    """The shifted pair masses, their shift and the present shape modes (an
    int array) of a decomposition, worked out from scratch from its alpha and
    beta: the masses after scaling by the power of two that brings a
    coefficient beyond [2^-400, 2^400] near one, and the presence by a scan
    for nonzero coefficients."""
    exponent = math.frexp(float(max(np.abs(dec.alpha).max(), np.abs(dec.beta).max())))[1]
    shift = -exponent if abs(exponent) > 400 else 0
    alpha, beta = np.ldexp(dec.alpha, shift), np.ldexp(dec.beta, shift)
    k = np.arange(dec.n // 2 + 1)
    unpaired = (k == 0) | (2 * k == dec.n)
    c_sq = np.where(unpaired, float(dec.n), dec.n / 2.0)
    s_sq = np.where(unpaired, 0.0, dec.n / 2.0)
    masses = np.sqrt(c_sq * np.sum(alpha**2, axis=1) + s_sq * np.sum(beta**2, axis=1))
    nonzero = np.any(dec.alpha[1:] != 0.0, axis=1) | np.any(dec.beta[1:] != 0.0, axis=1)
    return masses, shift, np.flatnonzero(nonzero) + 1


def recomputed_accumulate(solution, t, rate_shift, include_mean):
    """One evaluation of a ``FlowSolution`` that recomputes the present modes
    and the basis norms from the decomposition on every call."""
    dec = solution.decomposition
    present = recomputed_decision(dec)[2]
    exponents = (solution.mode_rates[present] - rate_shift) * t
    overflows = np.flatnonzero(exponents > math.log(np.finfo(float).max))
    if overflows.size:
        i = overflows[0]
        raise FlowRangeError(
            f"exp({exponents[i]:.6g}) overflows evaluating mode {present[i]} at t={t!r}"
        )
    factors = np.zeros((dec.half + 1, 1))
    factors[present, 0] = np.exp(exponents)
    c_sq, s_sq = spectral_flow._basis_norms_sq(dec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        spectrum = factors * (c_sq[:, None] * dec.alpha - 1j * (s_sq[:, None] * dec.beta))
        out = np.fft.irfft(spectrum, n=dec.n, axis=0)
        if include_mean:
            out += dec.alpha[0][None, :]
    if not np.isfinite(out).all():
        raise FlowRangeError(f"evolution left floating range at t={t!r}")
    return Polygon(out)


def summed_yau_sample(solution, t):
    """One evaluation of a Yau solution as X(t) = Z(t) + Y: the difference
    flow evaluated alone, then the target (the offset) added and checked."""
    z = dataclasses.replace(solution, offset=None).polygon_at(t)
    with np.errstate(over="ignore"):
        v = z.vertices + solution.offset
    if not np.isfinite(v).all():
        raise FlowRangeError(f"evolution left floating range at t={t!r}")
    return Polygon(v)


def elementwise_analyze_report(x0, m):
    """The ``polyflow analyze`` report as a dict, with every JSON leaf list
    built one ``float`` at a time and null limits for a constant polygon."""
    def doc(x):
        return {"dim": x.p, "vertices": [[float(c) for c in row] for row in x.vertices]}

    dec = spectral_flow.decompose(x0)
    verdict = spectral_flow.classify_self_similar(dec, m)
    masses = dec.pair_masses()
    report = {
        "n": x0.n,
        "p": x0.p,
        "m": m,
        "energy": energy(x0, m),
        "centroid": [float(c) for c in dec.alpha[0]],
        "modes": [
            {
                "k": k,
                "mass": float(masses[k]),
                "rate": flow_eigenvalue(x0.n, m, k),
                "alpha": [float(a) for a in dec.alpha[k]],
                "beta": [float(b) for b in dec.beta[k]],
            }
            for k in range(dec.half + 1)
        ],
        "self_similar": None
        if verdict is None
        else {"mode": verdict.mode, "rate": verdict.rate, "trivial": verdict.is_trivial},
    }
    if not dec.present_modes():  # a constant polygon has no limit to report
        return dict(report, dominant_mode=None, forward_limit=None, ancient_mode=None, ancient_limit=None)
    k_fwd, fwd = spectral_flow.rescaled_limit(dec, m, "forward")
    k_anc, anc = spectral_flow.rescaled_limit(dec, m, "ancient")
    report.update(
        dominant_mode=k_fwd, forward_limit=doc(fwd), ancient_mode=k_anc, ancient_limit=doc(anc)
    )
    return report


def report_json(report):
    """The ``polyflow analyze`` report as ``json`` encodes it: the byte oracle
    of the CLI's own writer."""
    return json.dumps(report, indent=2, allow_nan=False)


def rowwise_polygon(rows):
    """A JSON vertex list converted one ``float`` at a time."""
    return Polygon(np.array([[float(c) for c in row] for row in rows]))
