"""Exact circulant difference matrices and their discrete Fourier spectral theory.

The second-difference matrix ``M = circ(-2, 1, 0, ..., 0, 1)`` acts on closed
n-gons; its powers ``M^m`` drive the higher-order flows.  Everything here is
built from the first row only: powers are assembled from signed binomial
coefficients in exact integer arithmetic, products are cyclic convolutions,
and the eigenstructure comes from the roots of unity.  Only the O(n) root
table is cached; the one dense matrix outside test oracles is the n x n
Fourier matrix that :func:`idft` builds for each planar decomposition and
holds for that one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Entries of M^m are sums of C(2m, .) terms; the default cap keeps the largest
# single term C(40, 20) ~ 1.4e11 well inside exact float64 conversion.
M_MAX = 20


@dataclass(frozen=True)
class CirculantMatrix:
    """An n x n circulant matrix stored as its first row of exact integers."""

    n: int
    first_row: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"circulant size must be >= 3, got {self.n}")
        if len(self.first_row) != self.n:
            raise ValueError(
                f"first row has {len(self.first_row)} entries, expected {self.n}"
            )
        object.__setattr__(self, "first_row", tuple(int(b) for b in self.first_row))


def root_of_unity(exponent: int, n: int) -> complex:
    """``exp(2*pi*i*exponent/n)`` with exact values on the axes.

    Quarter-turn multiples return exact (+-1, +-i) and the lower half plane is
    the bitwise conjugate of the upper half, so real/imaginary-part bases keep
    their zero and symmetry identities exactly.
    """
    a = exponent % n
    if 4 * a % n == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * a // n]
    if 2 * a > n:
        w = root_of_unity(n - a, n)
        return w.conjugate()
    theta = 2.0 * math.pi * a / n
    return complex(math.cos(theta), math.sin(theta))


def lambda_base(n: int, k: int) -> float:
    """Eigenvalue ``-4 sin^2(pi k / n)`` of M on mode k, exact in the pairs.

    The index is folded to min(k, n-k) so paired modes share one float, and
    sin^2 is special-cased where it has an exact binary value (0, 1/4, 1/2,
    3/4, 1) so that e.g. the dominant eigenvalue for n = 6 is exactly -1.
    """
    kk = min(k % n, (n - k) % n)
    if kk == 0:
        s2 = 0.0
    elif 2 * kk == n:
        s2 = 1.0
    elif 3 * kk == n:
        s2 = 0.75
    elif 4 * kk == n:
        s2 = 0.5
    elif 6 * kk == n:
        s2 = 0.25
    else:
        s2 = math.sin(math.pi * kk / n) ** 2
    return -4.0 * s2


def flow_sign(m: int) -> int:
    """The sign ``(-1)^(m+1)`` that turns ``M^m`` into the order-m flow matrix."""
    return 1 if m % 2 else -1


def flow_eigenvalue(n: int, m: int, k: int) -> float:
    """Eigenvalue of ``(-1)^(m+1) M^m`` on mode k: zero at k = 0, negative
    otherwise.  Raises OverflowError naming n, m and k beyond float range."""
    try:
        return flow_sign(m) * lambda_base(n, k) ** m + 0.0  # + 0.0 normalizes -0.0 at k = 0
    except OverflowError:
        raise OverflowError(
            f"the order-{m} flow eigenvalue of mode {k} for n={n} is beyond float range"
        ) from None


def power_of_m(n: int, m: int) -> CirculantMatrix:
    """First row of ``M^m`` (the ``(-1)^(m+1)`` flow sign is NOT applied).

    The row holds the Laurent coefficients of ``(z - 2 + 1/z)^m``: the signed
    binomial ``(-1)^(m+k) C(2m, m+k)`` for |k| <= m is added into entry
    k mod n, so stencils wider than the polygon wrap around.  Exact integers;
    the result is symmetric with zero row sum.
    """
    if m < 1 or n < 3:
        raise ValueError(f"need m >= 1 and n >= 3, got m={m}, n={n}")
    if m > M_MAX:
        raise OverflowError(
            f"m={m} exceeds the exact-entry budget (m <= {M_MAX}): "
            f"C({2 * m}, {m}) would leave the guaranteed-exact float range"
        )
    row = [0] * n
    for k in range(-m, m + 1):
        row[k % n] += (-1) ** (m + k) * math.comb(2 * m, m + k)
    return CirculantMatrix(n, tuple(row))


def second_difference(n: int) -> CirculantMatrix:
    """The base matrix M = circ(-2, 1, 0, ..., 0, 1)."""
    return power_of_m(n, 1)


def circulant_multiply(a: CirculantMatrix, b: CirculantMatrix) -> CirculantMatrix:
    """Product of circulant matrices via cyclic convolution of first rows.

    Pure Python integers throughout: entries of high powers overflow int64
    during convolution.
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} != {b.n}")
    n = a.n
    row = [0] * n
    for i, ai in enumerate(a.first_row):
        if ai == 0:
            continue
        for j, bj in enumerate(b.first_row):
            row[(i + j) % n] += ai * bj
    return CirculantMatrix(n, tuple(row))


def stencil(a: CirculantMatrix):
    """The row map ``values -> a @ values`` in three numpy calls per application.

    Row j of the result is ``sum_s b_s * values[(j + s) mod n]`` over the K
    nonzero entries, offsets folded to (-n/2, n/2] and accumulated in
    ascending signed order, so the sum matches a centered-stencil evaluation
    term for term whenever the stencil does not wrap.  The map keeps two
    buffers for the last input shape and dtype: a padded copy of ``values``
    and the (K, n[, p]) term products.  Each call fills the padded copy with
    one ``take``, multiplies the coefficient column by a strided view of
    K windows into it, one per nonzero entry, so zero entries contribute no
    ``0 * inf``, and returns a new array from one ``np.add.reduce`` over the
    terms.  That sum starts from +0.0 and adds the terms in order: the same
    terms in the same order as an index gather, so the same bits.  Windows
    overlap when the offsets are evenly spaced, as a band of ``M^m`` is, and
    lie end to end otherwise.  The map takes arrays of shape (n,) or (n, p),
    real or complex; its buffers make it unsafe to call from two threads at
    once.
    """
    n = a.n
    offsets = sorted((s if 2 * s <= n else s - n, float(c)) for s, c in enumerate(a.first_row) if c)
    shifts = [s for s, _ in offsets]
    steps = {t - s for s, t in zip(shifts, shifts[1:])}
    if len(steps) == 1:  # evenly spaced: the windows overlap in one padded run
        stride = steps.pop()
        idx = (shifts[0] + np.arange((len(shifts) - 1) * stride + n)) % n
    else:  # one window after another
        stride = n
        idx = ((np.array(shifts, dtype=np.intp)[:, None] + np.arange(n)) % n).ravel()
    coeffs = np.array([c for _, c in offsets])
    key = padded = windows = column = prods = None

    def apply_rows(values: np.ndarray) -> np.ndarray:
        nonlocal key, padded, windows, column, prods
        if key != (values.shape, values.dtype):
            if values.shape[0] != n:  # the windows below must stay inside the padded copy
                raise ValueError(f"size mismatch: matrix is {n}, data has {values.shape[0]} rows")
            key = (values.shape, values.dtype)
            padded = np.empty(idx.shape + values.shape[1:], dtype=values.dtype)
            windows = np.lib.stride_tricks.as_strided(
                padded, (len(shifts),) + values.shape, (stride * padded.strides[0],) + padded.strides
            )
            # a Python float coefficient times the values, in the values' own precision
            column = coeffs.astype(np.result_type(values.dtype, 0.0)).reshape((-1,) + (1,) * values.ndim)
            prods = np.empty(windows.shape, dtype=np.promote_types(values.dtype, np.float64))
        values.take(idx, axis=0, out=padded, mode="clip")  # in range: "clip" skips a copy
        np.multiply(column, windows, out=prods)
        return np.add.reduce(prods, axis=0, initial=0.0)

    return apply_rows


def matvec(a: CirculantMatrix, values: np.ndarray) -> np.ndarray:
    """Apply the circulant matrix to a vector or to per-vertex rows (see :func:`stencil`)."""
    return stencil(a)(np.asarray(values))


def eigen_system(n: int, m: int) -> np.ndarray:
    """Eigenvalues of the order-m flow matrix of size n: entry k is the
    eigenvalue of ``(-1)^(m+1) M^m`` on column k of :func:`fourier_matrix`."""
    if m < 1 or n < 3:
        raise ValueError(f"need m >= 1 and n >= 3, got m={m}, n={n}")
    return np.array([flow_eigenvalue(n, m, k) for k in range(n)])


@lru_cache(maxsize=64)
def roots_of_unity(n: int) -> np.ndarray:
    """Read-only ``root_of_unity(a, n)`` for a = 0..n-1: Fourier matrix and
    cosine/sine basis entries are lookups at index ``j * k mod n``."""
    roots = np.array([root_of_unity(a, n) for a in range(n)], dtype=complex)
    roots.flags.writeable = False
    return roots


def fourier_matrix(n: int) -> np.ndarray:
    """The n x n matrix with columns the eigenpolygons ``(w^(jk))_j``, new per call."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    roots, k = roots_of_unity(n), np.arange(n)
    f = np.empty((n, n), dtype=complex)
    for j in range(n):  # row by row: no n x n index temporaries
        f[j] = roots[j * k % n]
    return f


def idft(v: np.ndarray) -> np.ndarray:
    """Inverse transform: the Fourier matrix, conjugated in place, times v / n
    (dividing first keeps the sums finite for entries near float max)."""
    v = np.asarray(v, dtype=complex)
    f = fourier_matrix(v.shape[0])
    return np.conjugate(f, out=f) @ (v / v.shape[0])
