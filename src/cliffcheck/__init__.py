"""cliffcheck: pointwise Clifford-calculus identity checker for 4-D Lorentzian spacetimes."""

__version__ = "0.1.0"

from .algebra import PointMetric, grade_project, wedge
from .diffops import FieldCalculus, MultivectorField
from .errors import CliffcheckError
from .geometry import CATALOG, GeometryData, MetricSpec, build_metric, curvature, killing_forms

__all__ = [
    "CATALOG",
    "CliffcheckError",
    "FieldCalculus",
    "GeometryData",
    "MetricSpec",
    "MultivectorField",
    "PointMetric",
    "build_metric",
    "curvature",
    "grade_project",
    "killing_forms",
    "wedge",
    "__version__",
]
