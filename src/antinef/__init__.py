"""Exact intersection theory on cluster resolutions of a regular surface germ.

The package models constellations of infinitely near points, the negative
definite intersection form of their exceptional curves, antinef closures of
divisors (complete ideals), valuations of plane elements through blowup
substitutions, and the limit invariants of graded families built from them.
All arithmetic is exact (integers and Fractions); floating point appears
only in explicitly flagged convergence diagnostics.
"""

from .cluster import (
    Cluster,
    IntersectionForm,
    PointRecord,
    is_negative_definite,
    new_cluster,
)
from .curves import (
    PlaneElement,
    ValuationVector,
    degree_function,
    multiplicity_vector,
    parse_poly,
    value_vector,
)
from .divisor import (
    CompleteIdealModel,
    ExcDivisor,
    divisor,
    intersect,
    is_antinef,
    nef_envelope,
    unload,
)
from .errors import (
    ClusterStructureError,
    CoordinateError,
    PolynomialSyntaxError,
    ScenarioError,
)
from .filtration import (
    CommutationReport,
    Example42Spec,
    ExplicitSpec,
    FiltrationSpec,
    LimitReport,
    QDivisorialSpec,
    ReesUnionReport,
    commutation_report,
    degree_limit,
    multiplicity_sequence,
    realize,
    rees_union,
    spot_check_graded_law,
)
from .rationals import INFINITY
from .scenario import Scenario, Task, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "PointRecord",
    "IntersectionForm",
    "new_cluster",
    "is_negative_definite",
    "INFINITY",
    "ExcDivisor",
    "CompleteIdealModel",
    "divisor",
    "intersect",
    "is_antinef",
    "unload",
    "nef_envelope",
    "PlaneElement",
    "ValuationVector",
    "parse_poly",
    "multiplicity_vector",
    "value_vector",
    "degree_function",
    "QDivisorialSpec",
    "Example42Spec",
    "ExplicitSpec",
    "FiltrationSpec",
    "LimitReport",
    "CommutationReport",
    "ReesUnionReport",
    "realize",
    "multiplicity_sequence",
    "degree_limit",
    "commutation_report",
    "rees_union",
    "spot_check_graded_law",
    "Scenario",
    "Task",
    "parse_scenario",
    "ClusterStructureError",
    "CoordinateError",
    "PolynomialSyntaxError",
    "ScenarioError",
]
