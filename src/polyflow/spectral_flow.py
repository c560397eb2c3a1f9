"""Closed-form evolution of polygons under the semi-discrete polyharmonic flow.

The flow is a constant-coefficient linear ODE system, so a spectral
decomposition solves it exactly: each mode pair evolves by a scalar
exponential.  The implementation works over the real cosine/sine basis for
every ambient dimension p >= 2; planar polygons additionally carry the
complex eigenpolygon coefficients, kept as an independent cross-check path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circulant
from .polygon import Polygon, RealBasisVectors, centroid, real_basis

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
    thresholding.
    """

    n: int
    p: int
    alpha: np.ndarray
    beta: np.ndarray
    planar_coeffs: np.ndarray | None

    @property
    def half(self) -> int:
        return self.n // 2

    def pair_mass(self, k: int) -> float:
        """Norm of the mode-k component polygon."""
        c_sq, s_sq = _basis_norms_sq(self.n, k)
        return math.sqrt(
            c_sq * float(np.sum(self.alpha[k] ** 2))
            + s_sq * float(np.sum(self.beta[k] ** 2))
        )

    def present_modes(self) -> list[int]:
        """Shape modes (k >= 1) surviving the presence threshold."""
        return [
            k
            for k in range(1, self.half + 1)
            if np.any(self.alpha[k] != 0.0) or np.any(self.beta[k] != 0.0)
        ]


@dataclass(frozen=True)
class SelfSimilarity:
    """Verdict of the self-similar classification: pure mode k shrinks by
    exp(rate * t); constant polygons are the trivial stationary case."""

    mode: int
    rate: float
    is_trivial: bool


def _basis_norms_sq(n: int, k: int) -> tuple[float, float]:
    if k == 0 or 2 * k == n:
        return float(n), 0.0
    return n / 2.0, n / 2.0


def decompose(x: Polygon) -> SpectralDecomposition:
    """Project a polygon onto the cosine/sine mode basis.

    Coordinates are centered before projecting onto the k >= 1 modes, and
    pairs below the presence threshold are flushed to exact zero.
    """
    if x.n < 3:
        raise ValueError(f"decomposition needs n >= 3, got n = {x.n}")
    n, p, half = x.n, x.p, x.n // 2
    mean = centroid(x)
    centered = x.vertices - mean[None, :]
    alpha = np.zeros((half + 1, p))
    beta = np.zeros((half + 1, p))
    alpha[0] = mean
    for k in range(1, half + 1):
        basis = real_basis(n, k)
        c_sq, s_sq = _basis_norms_sq(n, k)
        alpha[k] = centered.T @ basis.c / c_sq
        if s_sq > 0.0:
            beta[k] = centered.T @ basis.s / s_sq

    masses = [
        math.sqrt(
            _basis_norms_sq(n, k)[0] * float(np.sum(alpha[k] ** 2))
            + _basis_norms_sq(n, k)[1] * float(np.sum(beta[k] ** 2))
        )
        for k in range(half + 1)
    ]
    cutoff = PRESENCE_RELATIVE_THRESHOLD * max(masses)
    for k in range(1, half + 1):
        if masses[k] <= cutoff:
            alpha[k] = 0.0
            beta[k] = 0.0

    planar = None
    if p == 2:
        planar = circulant.idft(x.as_complex())
    return SpectralDecomposition(n=n, p=p, alpha=alpha, beta=beta, planar_coeffs=planar)


def reconstruct(dec: SpectralDecomposition) -> Polygon:
    """Sum the mode components back into a polygon."""
    return FlowSolution.from_decomposition(dec, m=1).polygon_at(0.0)


def mode_component(dec: SpectralDecomposition, k: int) -> Polygon:
    """The mode-k component polygon (both members of the conjugate pair)."""
    basis = real_basis(dec.n, k)
    v = np.outer(basis.c, dec.alpha[k]) + np.outer(basis.s, dec.beta[k])
    return Polygon(v)


@dataclass(frozen=True)
class FlowSolution:
    """Exact solution operator for one initial polygon and one order m.

    Evaluation at any time is independent of any other time; negative times
    (ancient solutions) are allowed until the exponentials leave floating
    range, which raises :class:`FlowRangeError` instead of returning inf.
    """

    kind: str
    m: int
    decomposition: SpectralDecomposition
    mode_rates: np.ndarray
    bases: tuple[RealBasisVectors, ...]

    @classmethod
    def from_decomposition(cls, dec: SpectralDecomposition, m: int) -> "FlowSolution":
        rates = np.array(
            [circulant.flow_eigenvalue(dec.n, m, k) for k in range(dec.half + 1)]
        )
        bases = tuple(real_basis(dec.n, k) for k in range(dec.half + 1))
        return cls(
            kind="polyharmonic", m=m, decomposition=dec, mode_rates=rates, bases=bases
        )

    def _accumulate(self, t: float, rate_shift: float, include_mean: bool) -> Polygon:
        dec = self.decomposition
        out = np.zeros((dec.n, dec.p))
        if include_mean:
            out += dec.alpha[0][None, :]
        for k in dec.present_modes():
            exponent = (self.mode_rates[k] - rate_shift) * t
            if exponent > _EXP_LIMIT:
                raise FlowRangeError(
                    f"exp({exponent:.6g}) overflows evaluating mode {k} at t={t!r}"
                )
            factor = math.exp(exponent)
            basis = self.bases[k]
            out += factor * (
                np.outer(basis.c, dec.alpha[k]) + np.outer(basis.s, dec.beta[k])
            )
        if not np.isfinite(out).all():
            raise FlowRangeError(f"evolution left floating range at t={t!r}")
        return Polygon(out)

    def polygon_at(self, t: float) -> Polygon:
        """The evolved polygon at time t."""
        return self._accumulate(t, rate_shift=0.0, include_mean=True)

    def deviation_at(self, t: float) -> Polygon:
        """The evolved polygon minus its fixed centroid, summed from the
        shape modes directly so no cancellation against the centroid occurs."""
        return self._accumulate(t, rate_shift=0.0, include_mean=False)

    def rescaled_deviation_at(self, t: float, k_ref: int) -> Polygon:
        """``exp(-rate_k_ref * t) * (X(t) - centroid)`` evaluated through the
        rate differences, which stay bounded in the convergent direction."""
        return self._accumulate(
            t, rate_shift=float(self.mode_rates[k_ref]), include_mean=False
        )

    def centroid(self) -> np.ndarray:
        return self.decomposition.alpha[0].copy()


def flow_solution(x0: Polygon, m: int) -> FlowSolution:
    """Prepare the exact solution operator for the order-m flow from x0."""
    if m < 1:
        raise ValueError(f"flow order must be >= 1, got {m}")
    return FlowSolution.from_decomposition(decompose(x0), m)


def solve(x0: Polygon, m: int, t: float) -> Polygon:
    """Evolve x0 for time t under the order-m flow (closed form, any real t)."""
    return flow_solution(x0, m).polygon_at(t)


def rescaled_limit(x0: Polygon, m: int, direction: str = "forward") -> tuple[int, Polygon]:
    """Dominant surviving mode index and the limiting shape polygon.

    Forward in time the solution, recentered and rescaled by the dominant
    present rate, converges to the mode component with the smallest present
    k; backward (ancient) the most negative present rate wins, k toward n/2.
    """
    if direction not in ("forward", "ancient"):
        raise ValueError(f"direction must be 'forward' or 'ancient', got {direction!r}")
    dec = decompose(x0)
    present = dec.present_modes()
    if not present:
        raise DegenerateModeError("constant polygon: no shape mode to rescale toward")
    k_star = min(present) if direction == "forward" else max(present)
    return k_star, mode_component(dec, k_star)


def classify_self_similar(x0: Polygon, m: int) -> SelfSimilarity | None:
    """Detect shrinking self-similar polygons: all spectral mass in one mode pair.

    Returns the mode and its exponential rate, the trivial verdict for a
    constant polygon, and None for anything whose mass spreads over two or
    more pairs (pure rotators and translators only exist in the trivial
    constant case).
    """
    dec = decompose(x0)
    masses = np.array([dec.pair_mass(k) for k in range(dec.half + 1)])
    total_sq = float(np.sum(masses**2))
    present = dec.present_modes()
    if not present:
        return SelfSimilarity(mode=0, rate=0.0, is_trivial=True)
    for k in present:
        leak_sq = total_sq - float(masses[k] ** 2)
        if leak_sq <= (1e-9**2) * total_sq:
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
