"""Exact circulant difference matrices and their discrete Fourier spectral theory.

The second-difference matrix ``M = circ(-2, 1, 0, ..., 0, 1)`` acts on closed
n-gons; its powers ``M^m`` drive the higher-order flows.  Everything here is
built from the first row only: powers are assembled from signed binomial
coefficients in exact integer arithmetic, products are cyclic convolutions,
and the eigenstructure comes from the roots of unity.  Only the O(n) root
table and the O(n) table of flow rates are cached, and no production path
holds an n x n array: :func:`idft`, the dense inverse transform behind the
planar coefficients, builds and applies the Fourier matrix one block of at
most ``_IDFT_BLOCK`` entries at a time, so it takes O(n^2) time but O(n)
memory; that loop is the only blocking there is.  Only the tests ask
:func:`fourier_matrix` for the whole matrix, which builds an n x n index
beside it.
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
    """An n x n circulant matrix stored as its first row of exact integers.

    This is the one constructor, and every matrix passes its checks: a
    tuple of Python ints is kept as given, and any other row is converted
    entry by entry, each integral float, numpy int or bool to its Python
    int.  An entry that ``int()`` would change or cannot convert (0.5, nan,
    inf, "3") is a ValueError, never silently truncated.
    """

    n: int
    first_row: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"circulant size must be >= 3, got {self.n}")
        row = self.first_row
        if len(row) != self.n:
            raise ValueError(f"first row has {len(row)} entries, expected {self.n}")
        if type(row) is not tuple or set(map(type, row)) != {int}:
            object.__setattr__(self, "first_row", tuple(map(_exact_int, row)))


def _exact_int(b) -> int:
    """``int(b)``, or a ValueError when that changes b or cannot convert it."""
    try:
        i = int(b)
        if i == b:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"circulant entries must be integers, got {b!r}")


def flow_sign(m: int) -> int:
    """The sign ``(-1)^(m+1)`` that turns ``M^m`` into the order-m flow matrix."""
    return 1 if m % 2 else -1


def _flow_rates(n: int, m: int, modes) -> list[float]:
    """``(-1)^(m+1) (-4 sin^2(pi kk / n))^m`` for each pair (k, kk) of
    ``modes``, kk the index of mode k folded to min(k, n - k) mod n, so that
    paired modes share one float.

    This is the one rate formula: :func:`flow_eigenvalue` applies it to one
    mode and :func:`flow_eigenvalues` to k = 0..n/2.

    sin^2 is special-cased where it has an exact binary value (1, 3/4, 1/2,
    1/4 at kk = n/2, n/3, n/4, n/6) so that e.g. the dominant eigenvalue for
    n = 6 is exactly -1.  Raises OverflowError naming n, m and the k of the
    first rate beyond float range.
    """
    sign = flow_sign(m)
    exact = {n // d: s2 for d, s2 in ((2, 1.0), (3, 0.75), (4, 0.5), (6, 0.25)) if n % d == 0}
    rates = []
    try:
        for k, kk in modes:
            s2 = exact[kk] if kk in exact else math.sin(math.pi * kk / n) ** 2
            rates.append(sign * (-4.0 * s2) ** m + 0.0)  # + 0.0 normalizes -0.0 at kk = 0
    except OverflowError:
        raise OverflowError(
            f"the order-{m} flow eigenvalue of mode {k} for n={n} is beyond float range"
        ) from None
    return rates


def flow_eigenvalue(n: int, m: int, k: int) -> float:
    """Eigenvalue of ``(-1)^(m+1) M^m`` on mode k: zero at k = 0, negative
    otherwise.  Raises OverflowError naming n, m and k beyond float range."""
    return _flow_rates(n, m, [(k, min(k % n, (n - k) % n))])[0]


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
    during convolution.  Only pairs of nonzero entries are visited, so a
    product of banded rows costs O(nnz(a) * nnz(b)), not O(n^2).
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} != {b.n}")
    n = a.n
    row = [0] * n
    entries_b = [(j, bj) for j, bj in enumerate(b.first_row) if bj]
    for i, ai in enumerate(a.first_row):
        if ai:
            for j, bj in entries_b:
                row[(i + j) % n] += ai * bj
    return CirculantMatrix(n, tuple(row))


def folded(entries, n: int) -> list[tuple[int, int | float]]:
    """Sparse (offset, value) ``entries`` of a size-n circulant's first row,
    at any integer offsets, as (offset, value) pairs in ascending offset:
    values at offsets equal mod n summed (exactly, for ints), each offset
    folded to (-n/2, n/2], and zero sums dropped.  This is the one offset
    fold that sums: :func:`matvec` and the RK4 step rows read it."""
    sums = {}
    for s, c in entries:
        s %= n
        sums[s] = sums.get(s, 0) + c
    return sorted((s if 2 * s <= n else s - n, c) for s, c in sums.items() if c)


def gather_index(offsets, n: int) -> np.ndarray:
    """Row k holds (j + s) mod n for j = 0 .. n - 1, s the k-th of the
    integer ``offsets``: one conditional subtract of n, not an int64 modulo
    of all K * n entries."""
    idx = (np.asarray(offsets, dtype=np.intp) % n)[:, None] + np.arange(n)
    return np.subtract(idx, n, out=idx, where=idx >= n)


def matvec(a: CirculantMatrix, values: np.ndarray) -> np.ndarray:
    """Apply the circulant matrix to a vector or to per-vertex rows.

    Row j of the result is ``sum_s b_s * values[(j + s) mod n]`` over the
    :func:`folded` entries, summed from +0.0 in ascending signed offset, so
    it matches a centered-stencil evaluation term for term whenever the
    stencil does not wrap.  One gather makes a shifted copy of ``values``
    per nonzero entry, one elementwise multiply weights them, so zero
    entries contribute no ``0 * inf``, and one ``np.add.reduce`` sums them.
    The result is bitwise what one index gather per entry gives.  ``values``
    with other than n rows is a ValueError.
    """
    values = np.asarray(values)
    n = a.n
    if values.shape[0] != n:  # a gather would drop extra rows silently
        raise ValueError(f"size mismatch: matrix is {n}, data has {values.shape[0]} rows")
    entries = folded(enumerate(a.first_row), n)
    idx = gather_index([s for s, _ in entries], n)
    column = np.array([float(c) for _, c in entries]).reshape((-1,) + (1,) * values.ndim)
    return np.add.reduce(column * values[idx], axis=0, initial=0.0)


@lru_cache(maxsize=64)
def flow_eigenvalues(n: int, m: int) -> np.ndarray:
    """Read-only ``flow_eigenvalue(n, m, k)`` for k = 0..n//2, the rate of
    each cosine/sine mode pair; raises its OverflowError for the lowest k
    beyond float range."""
    if m < 1 or n < 3:
        raise ValueError(f"need m >= 1 and n >= 3, got m={m}, n={n}")
    modes = range(n // 2 + 1)  # already folded
    rates = np.array(_flow_rates(n, m, zip(modes, modes)))
    rates.flags.writeable = False
    return rates


def eigen_system(n: int, m: int) -> np.ndarray:
    """Eigenvalues of the order-m flow matrix of size n, read-only: entry k is
    the eigenvalue of ``(-1)^(m+1) M^m`` on column k of :func:`fourier_matrix`,
    the rate of mode min(k, n - k) (:func:`flow_eigenvalue` folds k the same way)."""
    rates = flow_eigenvalues(n, m)
    mirrored = np.concatenate([rates, rates[(n + 1) // 2 - 1 : 0 : -1]])
    mirrored.flags.writeable = False
    return mirrored


_AXES = (1 + 0j, 1j, -1 + 0j, -1j)  # the roots at quarter turns, exact


@lru_cache(maxsize=64)
def roots_of_unity(n: int) -> np.ndarray:
    """Read-only ``exp(2*pi*i*a/n)`` for a = 0..n-1, the one root table:
    Fourier matrix and cosine/sine basis entries are lookups at index
    ``j * k mod n``.

    Quarter-turn multiples are exact (+-1, +-i) and the lower half plane is
    the bitwise conjugate of the upper half, so real/imaginary-part bases
    keep their zero and symmetry identities exactly.  The upper half is
    libm's ``cos`` and ``sin`` of ``2 pi a / n``, mapped over the angles as
    ``math.cos`` and ``math.sin`` and written straight into the table, not
    numpy's, whose last bit can differ.
    """
    half = n // 2 + 1
    angles = (np.arange(half) * (2.0 * math.pi) / n).tolist()
    roots = np.empty(n, dtype=complex)
    roots.real[:half] = np.fromiter(map(math.cos, angles), float, half)
    roots.imag[:half] = np.fromiter(map(math.sin, angles), float, half)
    np.conjugate(roots[n - half : 0 : -1], out=roots[half:])  # a > n/2: the conjugate of n - a
    for quarter, axis in enumerate(_AXES):
        if quarter * n % 4 == 0:
            roots[quarter * n // 4] = axis
    roots.flags.writeable = False
    return roots


_IDFT_BLOCK = 2**16  # entries of the Fourier matrix idft holds at a time: 1 MiB of complex128


def fourier_matrix(n: int, rows: range | None = None) -> np.ndarray:
    """The n x n matrix with columns the eigenpolygons ``(w^(jk))_j``, new per
    call, or only its rows j in ``rows``, a step-1 range inside [0, n).  The
    rows are one gather from :func:`roots_of_unity` at ``j * k mod n``,
    whichever rows are asked for, so a row block is bitwise the whole
    matrix's rows.  The index of that gather is as large as the result: a
    whole-matrix call, which only the tests make, holds an n x n index.  It
    is built and reduced in int32 while every product j * k fits,
    (n - 1)^2 < 2^31, and in int64 past that: ``index - index // n * n``
    by the scalar n takes a quarter of the time of an int64
    ``np.remainder`` and gives the same residues."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if rows is None:
        rows = range(n)
    elif rows.step != 1 or not 0 <= rows.start <= rows.stop <= n:
        raise ValueError(f"rows must be a step-1 range inside [0, {n}), got {rows}")
    dtype = np.int32 if (n - 1) ** 2 < 2**31 else np.int64
    index = np.multiply.outer(np.arange(rows.start, rows.stop, dtype=dtype), np.arange(n, dtype=dtype))
    index -= index // n * n
    index = index.astype(np.intp, copy=False)  # cast here, so the gather holds no second index
    return roots_of_unity(n).take(index)


def idft(v: np.ndarray) -> np.ndarray:
    """Inverse transform: the Fourier matrix, conjugated, times v / n
    (dividing first keeps the sums finite for entries near float max).

    The rows are built and applied in blocks of at most ``_IDFT_BLOCK``
    entries, at least one row a block, each conjugated in place: every
    output entry is the same row times the same vector, so the result is
    bitwise the whole product, in O(n) memory beside the output.  This loop
    bounds every temporary of the transform: a block's gather index and the
    block itself.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    scaled, out = v / n, np.empty(n, dtype=complex)
    step = max(1, _IDFT_BLOCK // n)
    for j0 in range(0, n, step):
        rows = range(j0, min(j0 + step, n))
        f = fourier_matrix(n, rows)
        out[j0 : rows.stop] = np.conjugate(f, out=f) @ scaled
        del f  # freed before the next block is built, which then reuses its pages
    return out
