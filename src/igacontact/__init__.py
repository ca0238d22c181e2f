"""NURBS-based mixed finite element solver for frictionless rigid-plane contact."""

from .assembly import (
    GlobalSystem,
    QuadratureRule,
    apply_constraints,
    assemble_load,
    assemble_stiffness,
    gauss_rule,
    neo_hookean_forces,
)
from .contact import (
    ContactState,
    GapField,
    MultiplierBasis,
    active_set_update,
    coupling_matrix,
    multiplier_basis,
    weighted_gap,
)
from .geometry import (
    BoundaryTrace,
    MeshView,
    NurbsPatch,
    extract_trace,
    graded_breakpoints,
    mesh_view,
    quarter_disc_patch,
    sphere_octant_patch,
)
from .materials import LinearMaterial, NeoHookeanMaterial
from .solver import (
    SolutionBundle,
    SolveSettings,
    inf_sup_estimate,
    saddle_solve,
    solve_large_deformation,
    solve_small_deformation,
)
from .splines import (
    BasisEvaluation,
    KnotVector,
    TensorSpace,
    WeightedSpace,
    eval_basis,
    find_span,
    interior_knot_vector,
    insertion_matrix,
    make_open_knot_vector,
    multiplier_space,
)
from .verification import (
    HertzAnalytic,
    displacement_errors,
    fit_rate,
    hertz_2d,
    hertz_3d,
    multiplier_error_analytic,
    multiplier_error_reference,
)

__all__ = [
    "active_set_update", "apply_constraints", "assemble_load", "assemble_stiffness",
    "BasisEvaluation", "BoundaryTrace", "ContactState", "coupling_matrix",
    "displacement_errors", "eval_basis", "extract_trace", "find_span", "fit_rate", "GapField",
    "gauss_rule", "GlobalSystem", "graded_breakpoints", "hertz_2d", "hertz_3d", "HertzAnalytic",
    "inf_sup_estimate", "insertion_matrix", "interior_knot_vector", "KnotVector",
    "LinearMaterial", "make_open_knot_vector", "mesh_view", "MeshView", "multiplier_basis",
    "multiplier_error_analytic", "multiplier_error_reference", "multiplier_space",
    "MultiplierBasis", "neo_hookean_forces",
    "NeoHookeanMaterial", "NurbsPatch", "QuadratureRule", "quarter_disc_patch", "saddle_solve",
    "SolutionBundle", "solve_large_deformation", "solve_small_deformation", "SolveSettings",
    "sphere_octant_patch", "TensorSpace", "weighted_gap", "WeightedSpace",
]
