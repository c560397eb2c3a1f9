"""Semi-discrete polyharmonic and Yau difference flows for closed polygons.

Closed n-gons in R^p evolve by constant-coefficient linear ODE systems built
from powers of the circulant second-difference matrix.  The package provides
exact spectral solutions, self-similar classification, asymptotic shape
extraction, an independent RK4 oracle, and a CLI that emits CSV tables and
SVG figures.

Every name of ``__all__`` is resolved on first use (PEP 562), so that
``import polyflow`` loads no submodule and a CLI call loads only the ones
its subcommand runs.  A name is read from its submodule at every access and
never stored here: ``polyflow.Polygon is polyflow.polygon.Polygon`` holds
even while something rebinds the submodule's attribute.
``polyflow.integrate`` is the RK4 module; its integrator is
``polyflow.integrate.integrate``.
"""
import importlib

_EXPORTS = {
    "circulant": (
        "CirculantMatrix",
        "circulant_multiply",
        "eigen_system",
        "idft",
        "power_of_m",
        "second_difference",
    ),
    "integrate": (
        "DivergenceError",
        "IntegratorConfig",
        "PolyharmonicKind",
        "StiffnessWarning",
        "Trajectory",
        "YauKind",
    ),
    "polygon": (
        "Polygon",
        "PolygonFormatError",
        "centroid",
        "eigen_polygon",
        "energy",
        "load_polygon",
        "real_basis",
        "reconcile_vertex_counts",
    ),
    "spectral_flow": (
        "DegenerateModeError",
        "FlowRangeError",
        "FlowSolution",
        "SelfSimilarity",
        "SpectralDecomposition",
        "affine_pushforward",
        "classify_self_similar",
        "decompose",
        "flow_solution",
        "rescaled_limit",
        "solve",
    ),
    "yau_flow": (
        "YauProblem",
        "yau_flow_between",
        "yau_limit",
        "yau_solution",
        "yau_solve",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule of ``_EXPORTS``, imported, or a name read from the
    submodule that defines it."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
