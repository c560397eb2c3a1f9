"""Shared independent oracles and fixtures for the test suite.

Everything here deliberately avoids the library's production code paths
where it serves as an oracle: dense matrices, per-vertex stencils, Procrustes
fits, and the Fourier-sandwich solution are implemented from scratch.
"""
import dataclasses
import json
import math
import sys
from fractions import Fraction
from itertools import chain

import numpy as np

from polyflow import FlowRangeError, Polygon, spectral_flow
from polyflow.circulant import flow_eigenvalue, flow_eigenvalues, flow_sign, fourier_matrix, idft, power_of_m
from polyflow.integrate import RK4_STABILITY_BOUND, YauKind
from polyflow.polygon import PolygonFormatError, energy


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
    order: the term order :func:`polyflow.circulant.matvec` must reproduce."""
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
    """Every state of the textbook fixed-step RK4 run, as arrays: the four
    stages written out once per step on :func:`gather_stencil`, the flow sign
    an explicit ``sign *`` for every order.  ``integrate`` applies the step
    polynomial instead, so its states agree with these to rounding level."""
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


def rk4_step_row(n, m, h):
    """The nonzero off-centre entries of ``R(hA) - I`` as ascending (offset,
    float) pairs, offsets folded to (-n/2, n/2]: ``R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24`` and ``A = (-1)^(m+1) M^m``, its first row's powers taken
    as row vector times the dense Python-int matrix (over the vector's
    nonzero entries), each entry summed as a ``Fraction`` and rounded once."""
    row = power_of_m(n, m).first_row
    a = [[(-1) ** (m + 1) * row[(j - i) % n] for j in range(n)] for i in range(n)]
    power, exact, hh = list(a[0]), [Fraction(0)] * n, Fraction(h)
    for k in range(1, 5):
        exact = [e + hh**k / math.factorial(k) * c for e, c in zip(exact, power)]
        nonzero = [i for i in range(n) if power[i]]
        power = [sum(power[i] * a[i][j] for i in nonzero) for j in range(n)]
    entries = [(s if 2 * s <= n else s - n, float(exact[s])) for s in range(1, n)]
    return sorted((s, q) for s, q in entries if q)


def float_step_power(row, n, steps):
    """The off-centre entries above 2**-60 / n in magnitude of S^steps, S the
    float step map of ``row`` (an :func:`rk4_step_row`), as ascending (offset,
    float) pairs, offsets folded to (-n/2, n/2].

    S = I + E, E's row ``row``'s entries off the centre and, at the centre,
    minus their exact sum, rounded once.  Over the bits i of ``steps`` in
    ascending order: when bit i is set, P becomes (P + E) + P E, or E for
    the lowest set bit; when a higher bit is left, E becomes 2E + E E.  Then
    S^steps = I + P.  A row is (w, entries at offsets -w .. w), or (None,
    all n entries by offset mod n) once 2w + 1 >= n.  A product is the
    ``np.convolve`` of the two entry lists; of two banded rows it keeps the
    entries within the largest |offset| of a nonzero one, and it is whole,
    each entry added onto its offset mod n, when either row is or that band
    reaches n entries.  A sum of banded rows takes the wider band, and is
    whole when either row is."""

    def fold(first, entries):
        out = [0.0] * n
        for k, v in enumerate(entries):
            out[(first + k) % n] += v
        return out

    def whole(r):
        w, c = r
        return list(c) if w is None else fold(-w, c)

    def band(w, c):
        nonzero = [k for k, v in enumerate(c) if v != 0.0]
        v = max(w - nonzero[0], nonzero[-1] - w) if nonzero else 0
        c = c[w - v : w + v + 1]
        return (v, c) if 2 * v + 1 < n else (None, fold(-v, c))

    def product(a, b):
        (wa, x), (wb, y) = a, b
        full = np.convolve(x, y).tolist()
        if wa is None or wb is None:
            return None, fold(-(wa or 0) - (wb or 0), full)
        return band(wa + wb, full)

    def plus(a, b):
        if a[0] is None or b[0] is None:
            return None, [x + y for x, y in zip(whole(a), whole(b))]
        (wa, x), (wb, y) = sorted((a, b), key=lambda r: r[0])
        out = list(y)
        for k, v in enumerate(x):
            out[wb - wa + k] += v
        return wb, out

    w = max((abs(s) for s, _ in row), default=0)
    c = [0.0] * (2 * w + 1)
    for s, q in row:
        c[w + s] = q
    c[w] = float(-sum((Fraction(q) for _, q in row), Fraction(0)))
    e, power = band(w, c), None
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            power = e if power is None else plus(plus(power, e), product(power, e))
        if steps >> i + 1:
            e = plus((e[0], [2.0 * v for v in e[1]]), product(e, e))
    p = whole(power)
    offsets = [s if 2 * s <= n else s - n for s in range(1, n)]
    return sorted((s, p[s % n]) for s in offsets if abs(p[s % n]) > 2.0**-60 / n)


def polynomial_rk4(x0, config, power=True):
    """Every state of the fixed-step RK4 run ``integrate`` makes, as arrays.

    A step applies :func:`rk4_step_row` as one index gather per offset, as
    :func:`gather_stencil` does: ``d + sum_s q_s (d[j+s] - d[j])`` summed in
    ascending s from +0.0, d the state or, for the Yau kind, the state
    minus the target, which is added back to each state.

    With ``power`` (a run of ``integrate``), a run of N whole steps of K
    offsets each, with dt * |rate_max| below the RK4 stability bound and
    N K > n - 1, takes its last whole state as S^N of the first state
    (:func:`float_step_power`); S^N is applied by gathers in the same
    difference form.  Other steps go one at a time.  Without ``power``
    every step does.  A run must reproduce it bit for bit.
    """
    kind = config.kind
    n, base = x0.n, np.arange(x0.n)
    target = kind.target.vertices if isinstance(kind, YauKind) else None

    def row_map(row):
        gathers = [((base + s) % n, q) for s, q in row]

        def step(d):
            acc = np.zeros(d.shape)
            for idx, q in gathers:
                acc += q * (d[idx] - d)
            return d + acc

        return step

    dt, t_final = config.dt, config.t_final
    n_full = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_full * dt
    n_steps = n_full + (remainder > 1e-12 * max(1.0, abs(t_final)))
    whole_row = rk4_step_row(n, kind.m, dt)
    whole = row_map(whole_row)
    short = row_map(rk4_step_row(n, kind.m, remainder)) if n_steps > n_full else whole
    stable = dt * abs(flow_eigenvalue(n, kind.m, n // 2)) < RK4_STABILITY_BOUND
    powered = power and stable and n_full * len(whole_row) > n - 1
    final = row_map(float_step_power(whole_row, n, n_full)) if powered else None
    d = x0.vertices.copy() if target is None else x0.vertices - target
    first, states = d, [x0.vertices.copy()]
    for step_index in range(1, n_steps + 1):
        if final is not None and step_index == n_full:
            d = final(first)
        else:
            d = (whole if step_index <= n_full else short)(d)
        states.append(d if target is None else d + target)  # each step makes a new d
    return states


def exact_step_power(row, n, exponent=64):
    """The first row of ``(I + E)^exponent - I`` in exact arithmetic, as
    Fractions: E is the circulant whose row holds ``row``'s (offset, float)
    entries off the centre and, at the centre, minus their exact sum, so
    I + E is the float step map of ``row``.  Entries are Python ints over a
    common power of two, multiplied as cyclic convolutions by binary
    powering."""
    scale = max((q.as_integer_ratio()[1] for _, q in row), default=1).bit_length() - 1
    base = [0] * n
    for s, q in row:
        num, den = q.as_integer_ratio()
        base[s % n] = num << (scale - den.bit_length() + 1)
    base[0] = (1 << scale) - sum(base)

    def product(a, b):
        out = [0] * n
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    out[(i + j) % n] += x * y
        return out

    power, power_scale = [1] + [0] * (n - 1), 0
    while exponent:
        if exponent & 1:
            power, power_scale = product(power, base), power_scale + scale
        exponent >>= 1
        if exponent:
            base, scale = product(base, base), 2 * scale
    power[0] -= 1 << power_scale
    return [Fraction(a, 1 << power_scale) for a in power]


def rk4_spectral_image(x0, config):
    """The final state of the RK4 run of ``config`` from x0, through the
    Fourier modes: with d = X0 - Y (Y the Yau target, or 0 for the flow),
    the rfft of d minus its mean, mode k times R(h lambda_k)^N for N whole
    steps of size h and times R(r lambda_k) for a partial step of size r,
    transformed back and plus Y and the mean.  R is the RK4 stability
    function and lambda_k the rate of mode k from ``flow_eigenvalues``; the
    mean is mode 0, whose rate is 0 and R(0) = 1, so it is added back
    untransformed.  The image shares the rates with the library but not the
    integer rows of M^m that ``integrate`` steps by."""
    kind = config.kind
    target = kind.target.vertices if isinstance(kind, YauKind) else 0.0
    d = x0.vertices - target
    mean = d.mean(axis=0)
    dt, t_final = config.dt, config.t_final
    n_full = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_full * dt
    rates = flow_eigenvalues(x0.n, kind.m)

    def stability(z):
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    factors = stability(dt * rates) ** n_full
    if remainder > 1e-12 * max(1.0, abs(t_final)):
        factors = factors * stability(remainder * rates)
    modes = np.fft.rfft(d - mean, axis=0)
    return target + (mean + np.fft.irfft(modes * factors[:, None], n=x0.n, axis=0))


def mp_flow(x0, m, t, target=None, dps=40):
    """The order-m flow of the polygon x0 at time t at ``dps`` digits, from
    the defining sums, as columns of mpmath numbers; with a ``target`` Y,
    the Yau flow: Y plus the flow of x0 - Y.  Each coordinate column x has
    DFT A_k - i B_k = sum_l x_l w^(-kl) on the roots of unity
    w^a = e^(2 pi i a / n), each mode grows by e^(lambda_k t), lambda_k the
    exact rate (-1)^(m+1) (-4 sin^2(pi k / n))^m, and
    X_j(t) = (1/n) sum_k e^(lambda_k t) (A_k cos(2 pi kj/n) + B_k sin(2 pi kj/n)).
    O(n^2) terms a column: keep n small (n = 64, p = 3 takes 0.05-0.1 s)."""
    import mpmath

    def columns(x):  # exact: every float64 is an mpmath number
        return [[mpmath.mpf(c) for c in column] for column in x.vertices.T.tolist()]

    with mpmath.workdps(dps):
        mp, n = mpmath.mp, x0.n
        start = columns(x0)
        if target is not None:
            start = [[a - b for a, b in zip(u, v)] for u, v in zip(start, columns(target))]
        cos = [mp.cospi(mp.mpf(2 * a) / n) for a in range(n)]
        sin = [mp.sinpi(mp.mpf(2 * a) / n) for a in range(n)]
        cos_rows = [[cos[k * j % n] for j in range(n)] for k in range(n)]
        sin_rows = [[sin[k * j % n] for j in range(n)] for k in range(n)]
        rates = [(-1) ** (m + 1) * (-4 * mp.sinpi(mp.mpf(k) / n) ** 2) ** m for k in range(n)]
        growth = [mp.exp(rate * mp.mpf(t)) for rate in rates]
        out = []
        for x in start:
            a = [g * mp.fdot(x, row) for g, row in zip(growth, cos_rows)]
            b = [g * mp.fdot(x, row) for g, row in zip(growth, sin_rows)]
            out.append([(mp.fdot(a, c) + mp.fdot(b, s)) / n for c, s in zip(cos_rows, sin_rows)])
        if target is not None:
            out = [[a + b for a, b in zip(u, v)] for u, v in zip(out, columns(target))]
        return out


def mp_distance(vertices, columns):
    """max |vertices - columns| over every entry, taken in mpmath, as a float."""
    import mpmath

    with mpmath.workdps(40):
        return float(max(abs(mpmath.mpf(c) - r) for got, ref in zip(np.asarray(vertices).T.tolist(), columns)
                         for c, r in zip(got, ref)))


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


def columnwise_centroid(x):
    """The vertex average one column at a time: a column of equal entries
    gives that entry, any other its ``mean``."""
    out = np.empty(x.p)
    for i in range(x.p):
        col = x.vertices[:, i]
        out[i] = col[0] if np.all(col == col[0]) else col.mean()
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
    """The trajectory table one cell at a time: ``repr(float(x))`` of every
    time and coordinate, one ``write`` per row."""
    p = polygons[0].p
    fh.write(",".join(["t", "vertex_index"] + [f"x{i + 1}" for i in range(p)]) + "\n")
    for t, poly in zip(times, polygons):
        for j, row in enumerate(poly.vertices):
            cells = [repr(float(t)), str(j)] + [repr(float(c)) for c in row]
            fh.write(",".join(cells) + "\n")


def vertex_svg_points(polygon):
    """An SVG ``points`` attribute one vertex at a time, y flipped."""
    return " ".join(f"{repr(float(x))},{repr(float(-y))}" for x, y in polygon.vertices)


def figure_svg(samples, initial, target, stroke_width, dash_target):
    """The standard figure's SVG document one element at a time: the bounds
    by Python's ``min`` and ``max`` over every coordinate, each number by
    ``repr(float(x))`` and each ``points`` by ``vertex_svg_points``."""
    drawn = ([] if target is None else [target]) + [initial, *samples]
    xs = [x for q in drawn for x in q.vertices[:, 0].tolist()]
    ys = [y for q in drawn for y in q.vertices[:, 1].tolist()]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    extent = max(x1 - x0, y1 - y0)
    width = stroke_width
    if width is None:
        width = extent / 150.0 if extent > 0.0 else 0.01
    pad = 0.05 * extent if extent > 0.0 else 1.0
    view = (x0 - pad + 0.0, -y1 - pad + 0.0, x1 - x0 + 2 * pad + 0.0, y1 - y0 + 2 * pad + 0.0)  # no -0.0 bound

    def element(q, stroke, w, dash=""):
        return (f'<polygon points="{vertex_svg_points(q)}" stroke="{stroke}" '
                f'stroke-width="{repr(float(w))}"{dash}/>\n')

    doc = '<?xml version="1.0" encoding="UTF-8"?>\n'
    doc += f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(repr(float(c)) for c in view)}">\n'
    doc += '<g fill="none" stroke-linejoin="round" stroke-linecap="round">\n'
    if target is not None:
        dash = ""
        if dash_target:
            dash = f' stroke-dasharray="{repr(float(4.0 * width))} {repr(float(3.0 * width))}"'
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
    """One evaluation of a ``FlowSolution`` that recomputes the present modes,
    the basis norms and the column scales from the decomposition on every
    call.  Each coordinate column is evaluated times 2^-e, e the binary
    exponent of the column's largest shape coefficient where that lies
    beyond +-400 (else unscaled), and scaled back before the mean is
    added."""
    dec = solution.decomposition
    present = recomputed_decision(dec)[2]
    exponents = (solution.mode_rates[present] - rate_shift) * t
    overflows = np.flatnonzero(exponents > math.log(np.finfo(float).max))
    if overflows.size:
        i = overflows[0]
        raise FlowRangeError(
            f"exp({exponents[i]:.6g}) overflows evaluating mode {present[i]} at t={t!r}"
        )
    factors = np.zeros((dec.n // 2 + 1, 1))
    factors[present, 0] = np.exp(exponents)
    c_sq, s_sq = (row.copy() for row in spectral_flow._basis_columns(dec.n)[:2])  # read-only tables
    largest = [max(np.abs(dec.alpha[1:, i]).max(), np.abs(dec.beta[:, i]).max()) for i in range(dec.p)]
    exponent = [math.frexp(float(c))[1] for c in largest]
    shifts = np.array([-e if abs(e) > 400 else 0 for e in exponent])
    alpha = np.vstack([dec.alpha[:1], np.ldexp(dec.alpha[1:], shifts)])  # the mean is not shifted
    c_sq[0] = 0.0  # and is added after the transform
    spectrum = factors * (c_sq[:, None] * alpha - 1j * (s_sq[:, None] * np.ldexp(dec.beta, shifts)))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        out = np.ldexp(np.fft.irfft(spectrum, n=dec.n, axis=0), -shifts)
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
    report = {
        "n": x0.n,
        "p": x0.p,
        "m": m,
        "energy": energy(x0, m),
        "centroid": [float(c) for c in dec.alpha[0]],
        "modes": [
            {
                "k": k,
                "mass": float(dec.masses[k]),
                "rate": flow_eigenvalue(x0.n, m, k),
                "alpha": [float(a) for a in dec.alpha[k]],
                "beta": [float(b) for b in dec.beta[k]],
            }
            for k in range(dec.n // 2 + 1)
        ],
        "self_similar": None
        if verdict is None
        else {"mode": verdict.mode, "rate": verdict.rate, "trivial": verdict.is_trivial},
    }
    if not dec.present.size:  # a constant polygon has no limit to report
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


def two_pass_load_polygon_json(path):
    """The JSON loader that converts and scans a valid vertex list twice: once
    in one numpy pass and again in ``Polygon(...)``, and converts a list that
    fails the pass once more, row by row, to name its first bad vertex."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolygonFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise PolygonFormatError("invalid JSON: an integer with too many digits") from None
    except RecursionError:
        raise PolygonFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "dim" not in doc or "vertices" not in doc:
        raise PolygonFormatError('expected an object with "dim" and "vertices"')
    dim = doc["dim"]
    rows = doc["vertices"]
    if not isinstance(dim, int) or dim < 2:
        raise PolygonFormatError(f'"dim" must be an integer >= 2, got {dim!r}')
    if not isinstance(rows, list) or not rows:
        raise PolygonFormatError('"vertices" must be a non-empty list')
    if (
        set(map(type, rows)) == {list}
        and set(map(len, rows)) == {dim}
        and set(map(type, chain.from_iterable(rows))) <= {int, float}  # bools are not numbers
    ):
        try:
            v = np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(v).all():
                return Polygon(v)
    return Polygon(np.array(checked_rows(rows, dim)))


def checked_rows(rows, dim):
    """The rows as lists of floats, or the error naming the first bad vertex."""
    out = []
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise PolygonFormatError(f"vertex {idx} is not a list of {dim} numbers")
        if any(type(c) not in (int, float) for c in row):  # JSON numbers; bools are not
            raise PolygonFormatError(f"vertex {idx} has a non-numeric entry")
        try:
            coords = [float(c) for c in row]
        except OverflowError as exc:  # an integer beyond float range
            raise PolygonFormatError(f"vertex {idx} has a non-numeric entry") from exc
        if not all(math.isfinite(c) for c in coords):
            raise PolygonFormatError(f"vertex {idx} has a non-finite entry")
        out.append(coords)
    return out


def loader_edge_documents():
    """JSON polygon files, name and bytes, on which a fast parser could part
    from ``json``: an extra key, duplicate keys (the last is kept), NaN, a
    literal past float range, integers past 2^64, a 4301-digit integer (past
    Python's int-to-str limit), a bool ``dim``, a byte-order mark, and under
    an extra key nesting as deep as the recursion limit, which ``json``
    refuses."""
    triangle = "[[0, 0], [2, 0], [1, 1.6]]"
    depth = sys.getrecursionlimit()
    documents = {
        "extra_key": f'{{"dim": 2, "vertices": {triangle}, "name": "triangle"}}',
        "duplicate_keys": f'{{"dim": 3, "vertices": [[1, 2, 3]], "dim": 2, "vertices": {triangle}}}',
        "nan": '{"dim": 2, "vertices": [[0, 0], [NaN, 0], [1, 1.6]]}',
        "past_float_range": '{"dim": 2, "vertices": [[0, 0], [1e400, 0], [1, 1.6]]}',
        "past_2_64": '{"dim": 2, "vertices": [[18446744073709551617, 0], [-36893488147419103233, 1], [0, 1.6]]}',
        "digits_4301": '{"dim": 2, "vertices": [[0, 0], [1' + "0" * 4300 + ', 0], [1, 1.6]]}',
        "bool_dim": f'{{"dim": true, "vertices": {triangle}}}',
        "byte_order_mark": f'\ufeff{{"dim": 2, "vertices": {triangle}}}',
        "deep_extra_key": f'{{"dim": 2, "vertices": {triangle}, "x": {"[" * depth}{"]" * depth}}}',
    }
    return [(f"{name}.json", text.encode()) for name, text in documents.items()]


def csv_loader_edge_documents():
    """CSV polygon files, name and bytes, on which a plain-text reader could
    part from the csv module: a byte-order mark, CRLF line ends, quoted
    cells, blank and whitespace-only lines, a ragged row, a trailing comma,
    signs and exponents, inf and nan, NUL, a field past the csv module's size
    limit, ``float``'s digit-group underscore and Arabic-Indic digits, and
    bad or bare headers."""
    triangle = "0,0\n2,0\n1,1.6\n"
    documents = {
        "byte_order_mark": "\ufeffx1,x2\n" + triangle,
        "two_marks": "\ufeff\ufeffx1,x2\n" + triangle,
        "crlf": "x1,x2\r\n0,0\r\n2,0\r\n1,1.6\r\n",
        "quoted": 'x1,x2\n"0",0\n2,"0"\n1,1.6\n',
        "quoted_newline": 'x1,x2\n"0\n",0\n1,west\n',
        "blank_lines": "x1,x2\n\n0,0\n\n2,0\n1,1.6\n\n\n",
        "whitespace_line": "x1,x2\n0,0\n \n2,0\n1,1.6\n",
        "ragged": "x1,x2\n0,0\n2\n1,1.6\n",
        "ragged_pair": "x1,x2\n0,0,0\n2\n1,1.6\n",
        "trailing_comma": "x1,x2\n0,0,\n2,0,\n1,1.6,\n",
        "signs_and_exponents": "x1,x2\n+0,-0\n .5 ,1e5\n-1E-3,\t+2.5e+2\n",
        "inf": "x1,x2\n0,0\n2,inf\n1,1.6\n",
        "nan": "x1,x2\n0,0\n2,0\nnan,1.6\n",
        "past_float_range": "x1,x2\n0,0\n1e400,0\n1,1.6\n",
        "nul": "x1,x2\n0,0\n2,0\x00\n1,1.6\n",
        "past_field_limit": "x1,x2\n0,0\n1,0." + "0" * 140_000 + "1\n1,1.6\n",
        "underscore": "x1,x2\n0,0\n1_0,0\n1,1.6\n",
        "arabic_indic_digit": "x1,x2\n0,0\n\u0661,0\n1,1.6\n",
        "non_ascii_space": "x1,x2\n0,0\n\u00a02,0\n1,1.6\n",
        "empty_cell": "x1,x2\n0,0\n,0\n1,1.6\n",
        "bad_header": "x,y\n" + triangle,
        "header_trailing_comma": "x1,x2,\n" + triangle,
        "one_column": "x1\n0\n2\n1\n",
        "three_columns": "x1,x2,x3\n0,0,0\n2,0,1\n1,1.6,-2\n",
        "header_only": "x1,x2\n",
        "no_newline": "x1,x2\n0,0\n2,0\n1,1.6",
        "empty": "",
    }
    return [(f"{name}.csv", text.encode()) for name, text in documents.items()]
