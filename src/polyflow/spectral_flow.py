"""Closed-form evolution of polygons under the semi-discrete polyharmonic flow.

The flow is a linear ODE system diagonalized by the DFT, so each cosine/sine
mode pair evolves by a scalar exponential.  One real FFT projects a polygon in
any dimension p >= 2 onto every pair, and one inverse real FFT evaluates the
solution.  Planar polygons also carry the complex eigenpolygon coefficients
from the dense inverse DFT, kept as an independent cross-check path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circulant
from .polygon import Polygon, centroid, real_basis

# exp() overflows float64 just above this exponent
_EXP_LIMIT = math.log(np.finfo(float).max)

# A mode pair counts as present when its coefficient norm exceeds this
# fraction of the largest pair norm.  Decomposition flushes sub-threshold
# pairs to exact zero: they are numerical leakage at float precision, and
# flushing keeps constant polygons exactly stationary and pure-mode polygons
# exactly self-similar.
PRESENCE_RELATIVE_THRESHOLD = 1e-12


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
    thresholding.  :func:`decompose` decides ``masses`` (times ``2**shift``)
    and ``present`` (the shape modes k >= 1) once; every array is read-only.
    """

    n: int
    p: int
    alpha: np.ndarray
    beta: np.ndarray
    planar_coeffs: np.ndarray | None
    masses: np.ndarray
    shift: int
    present: np.ndarray

    @property
    def half(self) -> int:
        return self.n // 2

    def pair_masses(self) -> np.ndarray:
        """Norms of the mode-k component polygons, k = 0..floor(n/2)."""
        return np.ldexp(self.masses, -self.shift)

    def present_modes(self) -> list[int]:
        """Shape modes (k >= 1) surviving the presence threshold."""
        return self.present.tolist()


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


def _shifted_pair_masses(alpha, beta, c_sq, s_sq) -> tuple[np.ndarray, int]:
    """The pair masses of the coefficients times ``2**shift``, and ``shift``.

    The masses square the coefficients, which overflows above ~1e154 and
    underflows below ~1e-154.  So when the largest |alpha| or |beta| lies
    outside [2^-400, 2^400], the coefficients are first brought near one by
    an exact power of two; inside that band the shift is 0 and every value
    is as if unshifted.  Ratios of the shifted masses are the true ratios.
    """
    exponent = int(np.frexp(max(np.abs(alpha).max(), np.abs(beta).max()))[1])
    shift = -exponent if abs(exponent) > 400 else 0
    alpha, beta = np.ldexp(alpha, shift), np.ldexp(beta, shift)
    return np.sqrt(c_sq * np.sum(alpha**2, axis=1) + s_sq * np.sum(beta**2, axis=1)), shift


def decompose(x: Polygon) -> SpectralDecomposition:
    """Project a polygon onto the cosine/sine mode basis.

    One real FFT of the centered coordinates gives every k >= 1 mode, and
    pairs below the presence threshold are flushed to exact zero, at any
    scale of the polygon.  Raises :class:`FlowRangeError`, without numpy
    warnings, when the centroid or a coefficient overflows, as it can for
    coordinates near float max.
    """
    if x.n < 3:
        raise ValueError(f"decomposition needs n >= 3, got n = {x.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        mean = centroid(x)
        # rfft sums v_j exp(-2 pi i jk/n): Re projects onto cos, -Im onto sin
        spectrum = np.fft.rfft(x.vertices - mean[None, :], axis=0)
        planar = circulant.idft(x.as_complex()) if x.p == 2 else None
    if not (
        np.isfinite(mean).all()
        and np.isfinite(spectrum).all()
        and (planar is None or np.isfinite(planar).all())
    ):
        raise FlowRangeError("the mode coefficients of the polygon leave floating range")
    c_sq, s_sq = _basis_norms_sq(x.n)
    alpha = spectrum.real / c_sq[:, None]
    alpha[0] = mean
    beta = np.zeros_like(alpha)
    np.divide(-spectrum.imag, s_sq[:, None], out=beta, where=s_sq[:, None] > 0.0)

    # the flush keeps the pair of the largest coefficient, so ``shift`` holds after it
    masses, shift = _shifted_pair_masses(alpha, beta, c_sq, s_sq)
    flushed = masses <= PRESENCE_RELATIVE_THRESHOLD * masses.max()
    flushed[0] = False
    alpha[flushed] = beta[flushed] = masses[flushed] = 0.0
    present = np.flatnonzero(~flushed[1:]) + 1
    for array in [alpha, beta, masses, present] + ([planar] if x.p == 2 else []):
        array.flags.writeable = False
    return SpectralDecomposition(x.n, x.p, alpha, beta, planar, masses, shift, present)


def mode_component(dec: SpectralDecomposition, k: int) -> Polygon:
    """The mode-k component polygon (both members of the conjugate pair)."""
    c, s = real_basis(dec.n, k)
    return Polygon(np.outer(c, dec.alpha[k]) + np.outer(s, dec.beta[k]))


@dataclass(frozen=True)
class FlowSolution:
    """Exact solution operator for one initial polygon and one order m.

    Evaluation at any time is independent of any other time; negative times
    (ancient solutions) are allowed until the exponentials leave floating
    range, which raises :class:`FlowRangeError` instead of returning inf.
    :meth:`from_decomposition` precomputes everything that does not depend on
    t: ``mode_rates`` (the flow eigenvalue of each mode pair) and ``spectrum``
    (the rfft spectrum that ``decompose`` projected, rebuilt from alpha and
    beta), so an evaluation only scales ``spectrum`` and runs one ``irfft``.
    """

    decomposition: SpectralDecomposition
    mode_rates: np.ndarray
    spectrum: np.ndarray

    @classmethod
    def from_decomposition(cls, dec: SpectralDecomposition, m: int) -> "FlowSolution":
        rates = np.array([circulant.flow_eigenvalue(dec.n, m, k) for k in range(dec.half + 1)])
        c_sq, s_sq = _basis_norms_sq(dec.n)
        c_sq[0] = 0.0  # the mean is added exactly, and n * centroid can overflow
        return cls(
            decomposition=dec,
            mode_rates=rates,
            spectrum=c_sq[:, None] * dec.alpha - 1j * (s_sq[:, None] * dec.beta),
        )

    def _accumulate(self, t: float, rate_shift: float, include_mean: bool) -> Polygon:
        dec, present = self.decomposition, self.decomposition.present
        exponents = (self.mode_rates[present] - rate_shift) * t
        overflows = np.flatnonzero(exponents > _EXP_LIMIT)
        if overflows.size:
            i = overflows[0]  # the lowest overflowing k
            raise FlowRangeError(
                f"exp({exponents[i]:.6g}) overflows evaluating mode {present[i]} at t={t!r}"
            )
        # invert decompose's rfft with factor 0 on the mean, which is added exactly
        factors = np.zeros((dec.half + 1, 1))
        factors[present, 0] = np.exp(exponents)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            out = np.fft.irfft(factors * self.spectrum, n=dec.n, axis=0)
            if include_mean:
                out += dec.alpha[0][None, :]
        if not np.isfinite(out).all():
            raise FlowRangeError(f"evolution left floating range at t={t!r}")
        return Polygon(out)

    def polygon_at(self, t: float) -> Polygon:
        """The evolved polygon at time t."""
        return self._accumulate(t, rate_shift=0.0, include_mean=True)

    def rescaled_deviation_at(self, t: float, k_ref: int) -> Polygon:
        """``exp(-rate_k_ref * t) * (X(t) - centroid)`` evaluated through the
        rate differences, which stay bounded in the convergent direction."""
        return self._accumulate(
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
    present = dec.present_modes()
    if not present:
        raise DegenerateModeError("constant polygon: no shape mode to rescale toward")
    k_star = min(present) if direction == "forward" else max(present)
    return k_star, mode_component(dec, k_star)


def classify_self_similar(x0: Polygon | SpectralDecomposition, m: int) -> SelfSimilarity | None:
    """Detect shrinking self-similar polygons: all shape mass (k >= 1) in one
    mode pair, so the polygon scales about its fixed centroid.

    ``x0`` is a polygon or its decomposition.  Returns the mode and its
    exponential rate, the trivial verdict for a constant polygon, and None
    for anything whose mass spreads over two or more pairs (pure rotators
    and translators only exist in the trivial constant case).
    """
    dec = _decomposed(x0)
    masses_sq = dec.masses**2  # index 0 is the centroid, not shape
    total_sq = float(np.sum(masses_sq[1:]))
    present = dec.present_modes()
    if not present:
        return SelfSimilarity(mode=0, rate=0.0, is_trivial=True)
    for k in present:
        if total_sq - masses_sq[k] <= (1e-9**2) * total_sq:
            return SelfSimilarity(
                mode=k, rate=circulant.flow_eigenvalue(dec.n, m, k), is_trivial=False
            )
    return None


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
