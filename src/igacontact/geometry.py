"""NURBS patch geometry for the contact benchmarks.

The benchmark domains (quarter disc, sphere octant) are single patches
built from exact rational-quadratic arcs, laid out so that the curved
contact boundary is one full parametric face.  Both constructions use a
collapsed parametric face at the body center (and, in 3D, at the pole
axis); quadrature points are always placed strictly inside elements, so
assembly never touches the degenerate sets.

Refinement inserts all of an axis's new breakpoints at once: one
knot-insertion matrix per direction (:func:`splines.insertion_matrix`)
multiplies the homogeneous control net along that axis.  Maps are
evaluated on tensor grids only, by the sum-factorized evaluator of
:mod:`splines`: element sizes come from the breakpoint grid, mapped
once, whose 2^d points around an element are its corners, and a trace's
points and surface measures on a grid come from one pass over its
homogeneous net (:func:`trace_grid_map`).

Face ids are integers ``2*axis + side`` with ``side`` 0 at parameter 0
and 1 at parameter 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .splines import (
    KnotVector,
    TensorSpace,
    WeightedSpace,
    _direction_matrices,
    _grid_fields,
    insertion_matrix,
    make_open_knot_vector,
)


class GeometryError(ValueError):
    """Invalid patch data or degenerate evaluation request."""


def face_id(axis: int, side: int) -> int:
    return 2 * axis + side


def face_axis_side(face: int, ndim: int) -> tuple[int, int]:
    if not 0 <= face < 2 * ndim:
        raise GeometryError(f"invalid face id {face} for a {ndim}D patch")
    return face // 2, face % 2


@dataclass(frozen=True)
class NurbsPatch:
    """Tensor-product NURBS geometry map from the unit cube.

    ``control_points`` holds one point per basis function, in the flat
    C-order of the tensor basis.
    """

    space: WeightedSpace
    control_points: np.ndarray

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        object.__setattr__(self, "control_points", cp)
        if cp.shape != (self.space.dim, self.ndim):
            raise GeometryError(
                f"control net must be ({self.space.dim}, {self.ndim}), got {cp.shape}"
            )

    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def knot_vectors(self) -> tuple[KnotVector, ...]:
        return self.space.space.knot_vectors

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.space.space.degrees

    def refine_to_breakpoints(self, breakpoints_per_axis) -> "NurbsPatch":
        """Insert every listed breakpoint that is not yet a knot (:func:`_new_breakpoints`); the map is unchanged.

        Each axis gets one knot-insertion matrix, applied to the
        homogeneous net (w x, w) along that axis.
        """
        kvs = list(self.knot_vectors)
        hw = np.moveaxis(self.space.homogeneous(self.control_points), 0, -1)  # (*grid, (w x, w))
        for axis, breaks in enumerate(breakpoints_per_axis):
            new = _new_breakpoints(kvs[axis], breaks)
            if new.size:
                kvs[axis], T = insertion_matrix(kvs[axis], new)
                hw = np.moveaxis(np.tensordot(T, hw, axes=(1, axis)), 0, axis)
        if all(a is b for a, b in zip(kvs, self.knot_vectors)):
            return self
        weights = hw[..., -1].ravel()
        controls = hw[..., :-1].reshape(-1, self.ndim) / weights[:, None]
        return NurbsPatch(WeightedSpace(TensorSpace(tuple(kvs)), weights), controls)

    def refined_grid_shape(self, breakpoints_per_axis) -> tuple[int, ...]:
        """The basis grid that :meth:`refine_to_breakpoints` gives, from the knot vectors alone.

        Each inserted breakpoint adds one function along its axis; the net
        is not touched.
        """
        return tuple(
            n + _new_breakpoints(kv, breaks).size
            for n, kv, breaks in zip(self.space.space.n_basis, self.knot_vectors, breakpoints_per_axis)
        )


def _new_breakpoints(kv: KnotVector, breaks) -> np.ndarray:
    """The distinct values of ``breaks`` that are not yet breakpoints of ``kv``.

    A value within 4 ulps of the domain's larger end (8.9e-16 on [0, 1]) of
    a breakpoint is that breakpoint: two sorted searches count the window.
    """
    z = np.unique(np.asarray(breaks, dtype=float))
    known = kv.breakpoints
    tol = 4 * np.spacing(max(abs(known[0]), abs(known[-1])))
    return z[known.searchsorted(z - tol) == known.searchsorted(z + tol, side="right")]


def graded_breakpoints(n_spans: int, span_fraction: float, length_fraction: float) -> np.ndarray:
    """Breakpoints on [0, 1] concentrating spans near 0.

    ``round(span_fraction * n_spans)`` uniform spans cover
    ``[0, length_fraction]``; the remaining spans cover the rest.
    """
    if n_spans < 2:
        raise GeometryError("need at least 2 spans")
    if not (0 < span_fraction < 1 and 0 < length_fraction < 1):
        raise GeometryError("fractions must lie in (0, 1)")
    k = int(round(span_fraction * n_spans))
    if k < 1 or k >= n_spans:
        raise GeometryError("span fraction leaves an empty band")
    fine = np.linspace(0.0, length_fraction, k + 1)
    coarse = np.linspace(length_fraction, 1.0, n_spans - k + 1)
    return np.concatenate([fine, coarse[1:]])


def graded_breakpoints_toward_end(n_spans, span_fraction, length_fraction) -> np.ndarray:
    """Mirror image of :func:`graded_breakpoints`: spans concentrate near 1."""
    return 1.0 - graded_breakpoints(n_spans, span_fraction, length_fraction)[::-1]


_ARC_WEIGHT = 1.0 / np.sqrt(2.0)


def quarter_disc_patch(R: float) -> NurbsPatch:
    """Quarter disc of radius R in the first quadrant, exact to rounding.

    Axis 0 is radial (0 at the center), axis 1 runs along the arc from
    the contact pole (R, 0) to (0, R).  Faces:

    * ``QUARTER_DISC_CONTACT_FACE`` (axis 0, side 1): the circular arc,
    * ``QUARTER_DISC_LOAD_FACE``: the straight edge x = 0,
    * ``QUARTER_DISC_SYMMETRY_FACE``: the straight edge y = 0,
    * axis 0 / side 0 collapses to the center (degenerate).
    """
    if R <= 0:
        raise GeometryError("radius must be positive")
    kv = make_open_knot_vector([0, 1], 2)
    arc_ctrl = np.array([[R, 0.0], [R, R], [0.0, R]])
    arc_w = np.array([1.0, _ARC_WEIGHT, 1.0])
    # radial degree elevated to 2: rows at 0, C/2, C keep the map zeta_r * arc
    ctrl = np.zeros((3, 3, 2))
    ctrl[1] = 0.5 * arc_ctrl
    ctrl[2] = arc_ctrl
    weights = np.tile(arc_w, (3, 1))
    ws = WeightedSpace(TensorSpace((kv, kv)), weights.ravel())
    return NurbsPatch(ws, ctrl.reshape(-1, 2))


QUARTER_DISC_CONTACT_FACE = face_id(0, 1)  # outer radius: the circular arc
QUARTER_DISC_LOAD_FACE = face_id(1, 1)  # straight edge x = 0
QUARTER_DISC_SYMMETRY_FACE = face_id(1, 0)  # straight edge y = 0
# in the quarter-disc layout axis 0 / side 0 is the collapsed center


def sphere_octant_patch(R: float) -> NurbsPatch:
    """Solid ball octant {x, y >= 0, z <= 0} of radius R.

    This is the hemispherical body cut by its two vertical symmetry
    planes.  Axis 0 is azimuthal (x-z plane toward y-z plane), axis 1
    polar (0 at the pole (0, 0, -R)), axis 2 radial.  Faces:

    * ``SPHERE_OCTANT_CONTACT_FACE`` (axis 2, side 1): spherical surface,
    * ``SPHERE_OCTANT_LOAD_FACE`` (axis 1, side 1): flat top z = 0,
    * ``SPHERE_OCTANT_SYMMETRY_FACES``: planes y = 0 and x = 0,
    * axis 1 / side 0 and axis 2 / side 0 are degenerate (pole axis, center).
    """
    if R <= 0:
        raise GeometryError("radius must be positive")
    kv = make_open_knot_vector([0, 1], 2)
    # surface of revolution of the pole-to-equator quarter arc about the z axis
    profile = np.array([[0.0, 0.0, -R], [R, 0.0, -R], [R, 0.0, 0.0]])
    profile_w = np.array([1.0, _ARC_WEIGHT, 1.0])
    r, zero, z = profile.T  # surf_ctrl is (azimuth, polar, xyz)
    surf_ctrl = np.stack([np.stack(xyz, axis=-1) for xyz in ((r, zero, z), (r, r, z), (zero, r, z))])
    surf_w = np.outer([1.0, _ARC_WEIGHT, 1.0], profile_w)
    ctrl = np.zeros((3, 3, 3, 3))  # (azimuth, polar, radial, xyz)
    ctrl[:, :, 1] = 0.5 * surf_ctrl
    ctrl[:, :, 2] = surf_ctrl
    weights = np.repeat(surf_w[:, :, None], 3, axis=2)
    ws = WeightedSpace(TensorSpace((kv, kv, kv)), weights.ravel())
    return NurbsPatch(ws, ctrl.reshape(-1, 3))


SPHERE_OCTANT_CONTACT_FACE = face_id(2, 1)
SPHERE_OCTANT_LOAD_FACE = face_id(1, 1)
SPHERE_OCTANT_SYMMETRY_FACES = (face_id(0, 0), face_id(0, 1))  # y = 0, x = 0


def unit_square_patch(degree: int, n_spans: int) -> NurbsPatch:
    """Identity map on the unit square (Greville control points, unit weights)."""
    kv = make_open_knot_vector(np.linspace(0, 1, n_spans + 1), degree)
    g = kv.greville()
    ctrl = np.array([[x, y] for x in g for y in g])
    ws = WeightedSpace(TensorSpace((kv, kv)), np.ones(kv.n_basis ** 2))
    return NurbsPatch(ws, ctrl)


def elevate_bezier_degree(patch: NurbsPatch) -> NurbsPatch:
    """Raise every direction's degree by one on a single-element patch."""
    if any(kv.n_elements != 1 for kv in patch.knot_vectors):
        raise GeometryError("degree elevation implemented for single-element patches only")
    hw = np.moveaxis(patch.space.homogeneous(patch.control_points), 0, -1)
    kvs = []
    for axis, kv in enumerate(patch.knot_vectors):
        p = kv.degree
        old = np.moveaxis(hw, axis, 0)  # new point i = a_i old_(i-1) + (1 - a_i) old_i, a_i = i / (p + 1)
        a = (np.arange(1, p + 1) / (p + 1.0)).reshape((p,) + (1,) * (old.ndim - 1))
        hw = np.moveaxis(np.concatenate([old[:1], a * old[:-1] + (1 - a) * old[1:], old[-1:]]), 0, axis)
        lo, hi = kv.domain
        kvs.append(make_open_knot_vector([lo, hi], p + 1))
    weights = hw[..., -1].ravel()
    controls = hw[..., :-1].reshape(-1, patch.ndim) / weights[:, None]
    return NurbsPatch(WeightedSpace(TensorSpace(tuple(kvs)), weights), controls)


@dataclass(frozen=True)
class BoundaryTrace:
    """Restriction of a patch to one parametric face.

    ``dof_map`` sends flat surface basis indices to flat volume basis
    indices; ``normal`` is the outward unit normal of the rigid body the
    face may contact.
    """

    patch: NurbsPatch
    face: int
    space: WeightedSpace
    control_points: np.ndarray
    dof_map: np.ndarray
    normal: np.ndarray

    @property
    def ndim(self) -> int:
        return self.space.ndim


def trace_grid_map(trace: BoundaryTrace, mats) -> tuple[np.ndarray, np.ndarray]:
    """Points (m, d) and surface Jacobians |dGamma/dzeta| (m,) of a trace on a tensor grid.

    ``mats[j]`` is the (value, derivative) matrix pair of surface
    direction j at its abscissae, and the m points are the grid's, in
    C-order.  One sum-factorized pass over the homogeneous net gives the
    points and the tangents t_j; the measure is |t_0| on a curve and
    |t_0 x t_1| on a surface.
    """
    x, t = _grid_fields(trace.space.homogeneous(trace.control_points), mats)
    nd = x.shape[0]
    t = t.reshape(nd, trace.ndim, -1)
    jac_vec = t[:, 0] if trace.ndim == 1 else np.cross(t[:, 0], t[:, 1], axis=0)
    return x.reshape(nd, -1).T, np.linalg.norm(jac_vec, axis=0)


def face_basis_indices(patch: NurbsPatch, face: int) -> np.ndarray:
    """Flat volume indices of the basis functions on a face, in the face's own C-order."""
    axis, side = face_axis_side(face, patch.ndim)
    grid = np.arange(patch.space.dim).reshape(patch.space.space.n_basis)
    return np.take(grid, -1 if side else 0, axis=axis).ravel()


def extract_trace(patch: NurbsPatch, face: int, rigid_normal=None) -> BoundaryTrace:
    """Face restriction of the patch with its rigid-plane outward normal."""
    axis, _ = face_axis_side(face, patch.ndim)
    dof_map = face_basis_indices(patch, face)
    kvs = tuple(kv for a, kv in enumerate(patch.knot_vectors) if a != axis)
    surf_space = WeightedSpace(TensorSpace(kvs), patch.space.weights[dof_map])
    if rigid_normal is None:
        normal = np.zeros(patch.ndim)
    else:
        normal = np.asarray(rigid_normal, dtype=float)
        if not math.isclose(math.hypot(*normal), 1.0, rel_tol=1e-5, abs_tol=1e-8):
            raise GeometryError("rigid normal must be a unit vector")
    return BoundaryTrace(
        patch=patch,
        face=face,
        space=surf_space,
        control_points=patch.control_points[dof_map],
        dof_map=dof_map,
        normal=normal,
    )


def _element_sizes(space: WeightedSpace, control_points) -> tuple[np.ndarray, np.ndarray]:
    """Parametric bounds and physical sizes of the elements of a rational map, elements in C-order.

    The breakpoint grid is mapped once; an element's size is the largest
    distance between its 2^d mapped corners, the root of the largest
    squared distance over the corner pairs.
    """
    knot_vectors = space.space.knot_vectors
    per_dir = [kv.element_bounds for kv in knot_vectors]
    nel = tuple(b.shape[0] for b in per_dir)
    nd = len(nel)
    mats = [_direction_matrices(kv, np.append(b[:, 0], b[-1, 1]), 0) for kv, b in zip(knot_vectors, per_dir)]
    mapped = _grid_fields(space.homogeneous(control_points), mats)[0]  # (components, *grid)
    corners = [mapped[(..., *(slice(c, c + n) for c, n in zip(at, nel)))] for at in product((0, 1), repeat=nd)]
    corners = np.stack(corners).reshape(2 ** nd, len(mapped), -1)
    first, second = np.array(list(combinations(range(2 ** nd), 2))).T
    diff = corners[first] - corners[second]  # (pairs, components, elements)
    sq = diff[:, 0] ** 2
    for k in range(1, diff.shape[1]):  # summed component by component
        sq += diff[:, k] ** 2
    sizes = np.sqrt(sq.max(axis=0))
    index = np.meshgrid(*[np.arange(n) for n in nel], indexing="ij")
    bounds = np.stack([b[i.ravel()] for b, i in zip(per_dir, index)], axis=1)
    return bounds, sizes


def mesh_view(patch: NurbsPatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-element parametric bounds (n_el, d, 2) and physical sizes (n_el,) of a patch."""
    return _element_sizes(patch.space, patch.control_points)


def trace_mesh_sizes(trace: BoundaryTrace) -> tuple[np.ndarray, np.ndarray]:
    """Per-element parametric bounds and physical sizes of a boundary trace."""
    return _element_sizes(trace.space, trace.control_points)
