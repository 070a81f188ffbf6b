"""Numerical tensor calculus for relativistic plasma flows.

Three pipelines share one differentiable-scalar engine:

* a semi-Riemannian pipeline on a spatial manifold (Christoffel symbols,
  Levi-Civita derivatives, Minkowski energy tensor, conservation and
  Euler residuals, stream-line integration),
* a generalized-Lagrange pipeline on the tangent bundle (Cartan
  connection, horizontal/vertical derivatives and residual channels,
  stream-line equations, Finsler metrics from a fundamental function),
* a multi-time pipeline on the first jet space of maps from a temporal
  manifold (temporal/spatial/vertical covariant derivatives, multi-time
  residual channels, stream-sheet PDE residuals).

Fields are defined either as parsed expressions in a small closed-form
language or as plain Python callables; all partial derivatives are
obtained by forward-mode automatic differentiation (nested truncated
jets, order up to 3).
"""

__version__ = "0.1.0"

from . import errors
from .dual import Jet, SeedContext, seed
from .expr import evaluate, parse, pretty
from .tensor_core import (
    MatrixMetricField,
    MetricField,
    Slot,
    Tensor,
    TensorField,
    TwoFormField,
    field_jet,
    invert_symmetric,
    scalar_field,
)
from .riemann import (
    ElectromagneticPair,
    FluidState,
    SemiRiemannianSpace,
    christoffel,
    integrate_stream_line,
    riemann_report,
)
from .lagrange import (
    GeneralizedLagrangeSpace,
    LagrangeFluidState,
    TangentPoint,
    cartan_connection,
    finsler_space_from_F,
    lagrange_residuals,
)
from .multitime import (
    JetPoint,
    MultiTimeFluidState,
    MultiTimeSpace,
    StreamSheet,
    cartan_gamma,
    multitime_residuals,
    prolong_sheet,
    stream_sheet_residuals,
)
from .models import build_bsml, build_edml, build_grgml, build_rgogml

__all__ = [
    "errors", "Jet", "SeedContext", "seed",
    "parse", "evaluate", "pretty",
    "Tensor", "TensorField", "Slot", "MetricField", "MatrixMetricField",
    "TwoFormField", "invert_symmetric", "field_jet",
    "scalar_field",
    "SemiRiemannianSpace", "ElectromagneticPair", "FluidState",
    "christoffel", "riemann_report", "integrate_stream_line",
    "GeneralizedLagrangeSpace", "LagrangeFluidState", "TangentPoint",
    "cartan_connection", "lagrange_residuals", "finsler_space_from_F",
    "MultiTimeSpace", "MultiTimeFluidState", "JetPoint", "StreamSheet",
    "cartan_gamma", "multitime_residuals", "stream_sheet_residuals",
    "prolong_sheet",
    "build_bsml", "build_edml", "build_grgml", "build_rgogml",
    "__version__",
]
