"""NURBS-based mixed finite element solver for frictionless rigid-plane contact."""

from .assembly import (
    QuadratureRule,
    apply_constraints,
    assemble_load,
    assemble_stiffness,
    gauss_rule,
    neo_hookean_forces,
)
from .contact import (
    ContactState,
    MultiplierBasis,
    active_set_update,
    coupling_matrix,
    multiplier_basis,
    weighted_gap,
)
from .geometry import (
    BoundaryTrace,
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
    inf_sup_estimate,
    saddle_solve,
    solve_large_deformation,
    solve_small_deformation,
)
from .splines import (
    KnotVector,
    TensorSpace,
    WeightedSpace,
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
    "BoundaryTrace", "ContactState", "coupling_matrix", "displacement_errors", "extract_trace",
    "fit_rate", "gauss_rule", "graded_breakpoints", "hertz_2d", "hertz_3d",
    "HertzAnalytic", "inf_sup_estimate", "insertion_matrix", "interior_knot_vector", "KnotVector",
    "LinearMaterial", "make_open_knot_vector", "mesh_view", "multiplier_basis",
    "multiplier_error_analytic", "multiplier_error_reference", "multiplier_space",
    "MultiplierBasis", "neo_hookean_forces", "NeoHookeanMaterial", "NurbsPatch", "QuadratureRule",
    "quarter_disc_patch", "saddle_solve", "SolutionBundle", "solve_large_deformation",
    "solve_small_deformation", "sphere_octant_patch", "TensorSpace", "weighted_gap", "WeightedSpace",
]
