"""Closed-form evolution of polygons under the semi-discrete polyharmonic flow.

The flow is a linear ODE system diagonalized by the DFT, so each cosine/sine
mode pair evolves by a scalar exponential.  One real FFT projects a polygon in
any dimension p >= 2 onto every pair, and one inverse real FFT evaluates the
solution at a block of up to 64 times, each sample bitwise what evaluating
its time alone gives.  Planar polygons also carry the complex eigenpolygon
coefficients from the dense inverse DFT, kept as an independent cross-check
path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import circulant
from .polygon import Polygon, _shift_near_one, centroid, real_basis

# exp() overflows float64 just above this exponent
_EXP_LIMIT = math.log(np.finfo(float).max)

# times evaluated by one inverse transform: bounds the (times, n, p) temporaries
_TIMES_PER_TRANSFORM = 64

# A shape pair (k >= 1) counts as present when its coefficient norm exceeds
# this fraction of the largest shape pair norm, and also the noise floor that
# subtracting the centroid leaves: CENTERING_NOISE_EPS * eps times the
# centroid's pair norm, sqrt(n) * |centroid|.  Decomposition flushes pairs
# below either to exact zero: they are numerical leakage at float precision,
# and flushing keeps constant polygons exactly stationary and pure-mode
# polygons exactly self-similar, wherever they sit.  Centering noise measured
# on 16 000 translated pure pairs (n = 3..1024, p = 2, 3, offsets 10..1e14
# times the shape) stayed at or below 0.32 eps times the centroid's norm: 4
# leaves a 12x margin.
PRESENCE_RELATIVE_THRESHOLD = 1e-12
CENTERING_NOISE_EPS = 4.0


class FlowRangeError(OverflowError):
    """Evolution time is out of floating range (ancient blowup)."""


class DegenerateModeError(ValueError):
    """No nonzero shape mode exists (the polygon is a single point)."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Mode coefficients of a polygon in the cosine/sine basis.

    ``alpha[k, i]`` and ``beta[k, i]`` are the coefficients of coordinate i
    on the mode-k cosine and sine vectors, k = 0..floor(n/2); ``alpha[0]`` is
    the centroid and ``beta`` rows for the zero sine vectors are zero.  For
    planar polygons ``planar_coeffs`` holds the raw complex coefficients on
    the n eigenpolygons, computed by the inverse transform without
    thresholding.  :func:`decompose` decides ``present`` (the shape modes
    k >= 1, ascending) once, and ``masses`` holds the norms of the mode-k
    component polygons, k = 0..floor(n/2), in the polygon's own units: 0 for
    a flushed pair, inf for a norm beyond float range.  Column i is
    evaluated times 2^``column_shifts[i]``, the :func:`_shift_near_one` of
    its largest shape coefficient: 0 inside [2^-400, 2^400].  Every array is
    read-only.
    """

    n: int
    p: int
    alpha: np.ndarray
    beta: np.ndarray
    planar_coeffs: np.ndarray | None
    masses: np.ndarray
    present: np.ndarray
    column_shifts: np.ndarray


@dataclass(frozen=True)
class SelfSimilarity:
    """Verdict of the self-similar classification: pure mode k shrinks by
    exp(rate * t); constant polygons are the trivial stationary case."""

    mode: int
    rate: float
    is_trivial: bool


def _basis_norms_sq(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms of the cosine and sine vectors for k = 0..floor(n/2)."""
    k = np.arange(n // 2 + 1)
    unpaired = (k == 0) | (2 * k == n)  # the sine vector is zero
    return np.where(unpaired, float(n), n / 2.0), np.where(unpaired, 0.0, n / 2.0)


@lru_cache(maxsize=64)
def _basis_columns(n: int) -> tuple[np.ndarray, ...]:
    """:func:`_basis_norms_sq` read-only, as is, as columns, the sine vectors' rows, c_sq with 0 at k = 0."""
    c_sq, s_sq = _basis_norms_sq(n)
    tables = (c_sq, s_sq, c_sq[:, None], s_sq[:, None], s_sq[:, None] > 0.0, np.append(0.0, c_sq[1:])[:, None])
    for table in tables:
        table.flags.writeable = False
    return tables


def _shifted_pair_masses(alpha, beta, c_sq, s_sq) -> tuple[np.ndarray, int]:
    """The pair masses of the coefficients times ``2**shift``, and ``shift``.

    The masses square the coefficients, which overflows above ~1e154 and
    underflows below ~1e-154.  So the coefficients are first brought near
    one by the exact power of two of :func:`_shift_near_one` for the largest
    |alpha| or |beta|; inside its band the shift is 0 and every value is as
    if unshifted.  Ratios of the shifted masses are the true ratios.
    """
    shift = _shift_near_one(np.abs(np.concatenate((alpha, beta))).max())
    alpha, beta = (np.ldexp(alpha, shift), np.ldexp(beta, shift)) if shift else (alpha, beta)
    return np.sqrt(c_sq * np.sum(alpha**2, axis=1) + s_sq * np.sum(beta**2, axis=1)), shift


def decompose(x: Polygon) -> SpectralDecomposition:
    """Project a polygon onto the cosine/sine mode basis.

    One real FFT of the centered coordinates gives every k >= 1 mode, and
    pairs below the presence threshold or the centering noise floor are
    flushed to exact zero, at any scale and translation of the polygon, and
    ``column_shifts`` is taken of the coefficients left by one ``frexp``;
    no step that would change no bit is run.  Raises :class:`FlowRangeError`,
    without numpy warnings, when a coefficient overflows near float max; a
    coordinate sum past float max alone is not refused, since
    :func:`centroid` sums such a column again near one.  The spectrum check
    covers the centroid too: a non-finite centroid makes its whole centered
    column, so the spectrum, non-finite.
    """
    if x.n < 3:
        raise ValueError(f"decomposition needs n >= 3, got n = {x.n}")
    c_sq, s_sq, c_col, s_col, paired, _ = _basis_columns(x.n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below; a mass may be inf
        mean = centroid(x)
        # rfft sums v_j exp(-2 pi i jk/n): Re projects onto cos, -Im onto sin
        spectrum = np.fft.rfft(x.vertices - mean, axis=0)
        planar = circulant.idft(x.as_complex()) if x.p == 2 else None
        if not (np.isfinite(spectrum).all() and (planar is None or np.isfinite(planar).all())):
            raise FlowRangeError("the mode coefficients of the polygon leave floating range")
        alpha = spectrum.real / c_col
        alpha[0] = mean
        beta = np.divide(-spectrum.imag, s_col, out=np.zeros_like(alpha), where=paired)
        shifted, shift = _shifted_pair_masses(alpha, beta, c_sq, s_sq)
        noise = CENTERING_NOISE_EPS * np.finfo(float).eps * shifted[0]
        floor = max(PRESENCE_RELATIVE_THRESHOLD * shifted[1:].max(), noise)
        flushed = shifted <= floor
        flushed[0] = False
        present = np.flatnonzero(~flushed)[1:]
        if present.size < x.n // 2:
            alpha[flushed] = beta[flushed] = shifted[flushed] = 0.0
        masses = np.ldexp(shifted, -shift) if shift else shifted
        largest = np.abs(np.concatenate((alpha[1:], beta))).max(axis=0)
        exponent = np.frexp(largest)[1].astype(np.int64)  # _shift_near_one of each column
        column_shifts = np.where(np.abs(exponent) > 400, -exponent, 0)
    for array in [alpha, beta, masses, present, column_shifts] + ([planar] if x.p == 2 else []):
        array.flags.writeable = False
    return SpectralDecomposition(x.n, x.p, alpha, beta, planar, masses, present, column_shifts)


def mode_component(dec: SpectralDecomposition, k: int) -> Polygon:
    """The mode-k component polygon (both members of the conjugate pair)."""
    c, s = real_basis(dec.n, k)
    return Polygon(np.outer(c, dec.alpha[k]) + np.outer(s, dec.beta[k]))


def _shape_spectrum(dec: SpectralDecomposition) -> np.ndarray:
    """The rfft spectrum of the shape modes, each column times 2^its shift,
    0 at k = 0: the mean is added exactly, and n * centroid can overflow."""
    _, _, _, s_col, _, shape_c = _basis_columns(dec.n)
    alpha, beta, shifts = dec.alpha, dec.beta, dec.column_shifts
    if shifts.any():  # the mean is not shifted
        alpha, beta = np.vstack([alpha[:1], np.ldexp(alpha[1:], shifts)]), np.ldexp(beta, shifts)
    return shape_c * alpha - 1j * (s_col * beta)


@dataclass(frozen=True)
class FlowSolution:
    """Exact solution operator for one initial polygon and one order m.

    Evaluation at any time is independent of any other time; negative times
    (ancient solutions) are allowed until the exponentials leave floating
    range, which raises :class:`FlowRangeError` instead of returning inf.
    :meth:`from_decomposition` precomputes everything that does not depend on
    t: ``mode_rates`` (the flow eigenvalue of each mode pair) and ``spectrum``
    (the rfft spectrum that ``decompose`` projected, rebuilt from alpha and
    beta, each column times 2^``column_shifts``, so that (n/2) alpha summed
    by ``irfft`` stays finite near float max).  The evaluators take one time
    or a 1-D sequence of times: each block of up to 64 times costs one
    ``exp`` over a (times x modes) array and one ``irfft`` over a
    (times, n//2+1, p) spectrum, scaled back before the mean is added, and
    every sample has the bits that evaluating its time alone gives.  A block
    passing one ``max`` and one ``isfinite`` is made read-only, its samples
    views of it; only a failing one is searched for the time that failed.
    ``offset`` (n x p, or None) is added to every :meth:`polygon_at` sample:
    the Yau flow is the flow of X0 - Y offset by its target Y.
    """

    decomposition: SpectralDecomposition
    mode_rates: np.ndarray
    spectrum: np.ndarray
    offset: np.ndarray | None = None

    @classmethod
    def from_decomposition(cls, dec: SpectralDecomposition, m: int) -> "FlowSolution":
        return cls(
            decomposition=dec,
            mode_rates=circulant.flow_eigenvalues(dec.n, m),
            spectrum=_shape_spectrum(dec),
        )

    def _evaluate(self, t, rate_shift: float, include_mean: bool):
        """The samples at one time t (a Polygon) or at each time of a 1-D
        sequence t (a tuple of Polygons); ``offset`` is added with the mean.
        A failing schedule raises the error of its earliest failing time, the
        error a loop over its times would raise first."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"times must be one number or a 1-D sequence, got shape {times.shape}")
        scalar = times.ndim == 0
        given = [t] if scalar else list(t)  # a Python int is named in errors as passed
        times = times.reshape(-1)
        dec, present = self.decomposition, self.decomposition.present
        rates = self.mode_rates[present] - rate_shift if rate_shift else self.mode_rates[present]
        unshifts = -dec.column_shifts if dec.column_shifts.any() else None
        samples = []
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            for start in range(0, len(times), _TIMES_PER_TRANSFORM):
                exponents = np.multiply.outer(times[start : start + _TIMES_PER_TRANSFORM], rates)
                factors = np.zeros((len(exponents), dec.n // 2 + 1, 1))
                factors[:, present, 0] = np.exp(exponents)
                # invert decompose's rfft with factor 0 on the mean, which is added exactly
                out = np.fft.irfft(factors * self.spectrum, n=dec.n, axis=1)
                if unshifts is not None:
                    np.ldexp(out, unshifts, out)
                if include_mean:
                    out += dec.alpha[0]
                    if self.offset is not None:
                        out += self.offset
                if exponents.max(initial=-math.inf) > _EXP_LIMIT or not np.isfinite(out).all():
                    overflowing = exponents > _EXP_LIMIT
                    failed = overflowing.any(axis=1) | ~np.isfinite(out).all(axis=(1, 2))
                    i = np.argmax(failed)  # the earliest failing time
                    t_bad = given[start + i]
                    if type(t_bad) is not int:  # numpy scalars too: named as the float held
                        t_bad = float(times[start + i])
                    if overflowing[i].any():  # named before the non-finite sample it makes
                        k = np.argmax(overflowing[i])  # the lowest overflowing mode
                        raise FlowRangeError(
                            f"exp({exponents[i, k]:.6g}) overflows evaluating mode {present[k]} "
                            f"at t={t_bad!r}"
                        )
                    raise FlowRangeError(f"evolution left floating range at t={t_bad!r}")
                out.flags.writeable = False  # checked: each sample is a view of the block
                samples.extend(map(Polygon._checked, out))
        return samples[0] if scalar else tuple(samples)

    def polygon_at(self, t):
        """The evolved polygon at time t, or the tuple of them at each time of
        a 1-D sequence t, each plus ``offset`` before its finiteness check."""
        return self._evaluate(t, rate_shift=0.0, include_mean=True)

    def rescaled_deviation_at(self, t, k_ref: int):
        """``exp(-rate_k_ref * t) * (X(t) - centroid)`` evaluated through the
        rate differences, which stay bounded in the convergent direction; a
        tuple of them for a 1-D sequence t.  No offset is added: on a Yau
        solution this is ``exp(-rate_k_ref * t) * (X(t) - yau_limit)``."""
        return self._evaluate(
            t, rate_shift=float(self.mode_rates[k_ref]), include_mean=False
        )


def flow_solution(x0: Polygon, m: int) -> FlowSolution:
    """Prepare the exact solution operator for the order-m flow from x0."""
    if m < 1:
        raise ValueError(f"flow order must be >= 1, got {m}")
    return FlowSolution.from_decomposition(decompose(x0), m)


def solve(x0: Polygon, m: int, t: float) -> Polygon:
    """Evolve x0 for time t under the order-m flow (closed form, any real t)."""
    return flow_solution(x0, m).polygon_at(t)


def _decomposed(x0: Polygon | SpectralDecomposition) -> SpectralDecomposition:
    return x0 if isinstance(x0, SpectralDecomposition) else decompose(x0)


def rescaled_limit(
    x0: Polygon | SpectralDecomposition, m: int, direction: str = "forward"
) -> tuple[int, Polygon]:
    """Dominant surviving mode index and the limiting shape polygon.

    Forward in time the solution, recentered and rescaled by the dominant
    present rate, converges to the mode component with the smallest present
    k; backward (ancient) the most negative present rate wins, k toward n/2.
    ``x0`` is a polygon or its decomposition.  ``m`` is not read: the limit
    depends only on which modes are present.  It is kept because callers,
    the acceptance tests among them, pass it positionally.
    """
    if direction not in ("forward", "ancient"):
        raise ValueError(f"direction must be 'forward' or 'ancient', got {direction!r}")
    dec = _decomposed(x0)
    if not dec.present.size:
        raise DegenerateModeError("constant polygon: no shape mode to rescale toward")
    k_star = int(dec.present[0 if direction == "forward" else -1])
    return k_star, mode_component(dec, k_star)


def classify_self_similar(x0: Polygon | SpectralDecomposition, m: int) -> SelfSimilarity | None:
    """Detect shrinking self-similar polygons: exactly one present shape
    mode pair (k >= 1), so the polygon scales about its fixed centroid.

    ``x0`` is a polygon or its decomposition, whose ``present`` modes alone
    decide the verdict.  Returns that pair's mode and its exponential rate,
    the trivial verdict for a constant polygon (no present pair), and None
    when two or more pairs are present (pure rotators and translators only
    exist in the trivial constant case).
    """
    dec = _decomposed(x0)
    if not dec.present.size:
        return SelfSimilarity(mode=0, rate=0.0, is_trivial=True)
    if dec.present.size > 1:
        return None
    k = int(dec.present[0])
    return SelfSimilarity(mode=k, rate=circulant.flow_eigenvalue(dec.n, m, k), is_trivial=False)


def affine_pushforward(x: Polygon, e: np.ndarray, a: np.ndarray) -> Polygon:
    """Right-multiply vertices by a matrix and translate: X E + a on every row.

    ``e`` maps R^p to R^q (q >= 2), so this covers both in-place affine maps
    and embeddings of planar polygons into higher codimension.
    """
    e = np.asarray(e, dtype=float)
    a = np.asarray(a, dtype=float)
    if e.ndim != 2 or e.shape[0] != x.p:
        raise ValueError(f"matrix must have shape ({x.p}, q), got {e.shape}")
    if a.shape != (e.shape[1],):
        raise ValueError(f"translation must have shape ({e.shape[1]},), got {a.shape}")
    return Polygon(x.vertices @ e + a[None, :])
