"""Semi-discrete polyharmonic and Yau difference flows for closed polygons.

Closed n-gons in R^p evolve by constant-coefficient linear ODE systems built
from powers of the circulant second-difference matrix.  The package provides
exact spectral solutions, self-similar classification, asymptotic shape
extraction, an independent RK4 oracle, and a CLI that emits CSV tables and
SVG figures.
"""

from .circulant import (
    CirculantMatrix,
    circulant_multiply,
    eigen_system,
    idft,
    power_of_m,
    second_difference,
)
from .integrate import (
    DivergenceError,
    IntegratorConfig,
    PolyharmonicKind,
    StiffnessWarning,
    Trajectory,
    YauKind,
    integrate,
)
from .polygon import (
    Polygon,
    PolygonFormatError,
    centroid,
    eigen_polygon,
    energy,
    load_polygon,
    real_basis,
    reconcile_vertex_counts,
)
from .spectral_flow import (
    DegenerateModeError,
    FlowRangeError,
    FlowSolution,
    SelfSimilarity,
    SpectralDecomposition,
    affine_pushforward,
    classify_self_similar,
    decompose,
    flow_solution,
    rescaled_limit,
    solve,
)
from .yau_flow import (
    YauProblem,
    yau_flow_between,
    yau_limit,
    yau_solution,
    yau_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
