"""Helpers that more than one test module computes with; the package itself does not need them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from igacontact.splines import WeightedSpace, _direction_matrices, _grid_fields, grid_basis_matrix


def grid_map(space, control_points, abscissae):
    """A rational map and its parametric Jacobian on the C-order grid of ``abscissae``, by the package evaluator.

    Returns the mapped points (m, k) and Jacobians (m, k, d) of the
    ``control_points`` (n, k) of the WeightedSpace ``space``.
    """
    coefs = space.homogeneous(np.asarray(control_points, dtype=float))
    mats = [_direction_matrices(kv, np.asarray(z, dtype=float)) for kv, z in zip(space.space.knot_vectors, abscissae)]
    x, grads = _grid_fields(coefs, mats)
    k, d = grads.shape[:2]
    return x.reshape(k, -1).T, np.moveaxis(grads.reshape(k, d, -1), -1, 0)


def map_at(space, control_points, points):
    """:func:`grid_map` at scattered points, each point a one-point grid."""
    parts = [grid_map(space, control_points, [[z] for z in pt]) for pt in np.atleast_2d(points)]
    return np.concatenate([x for x, _ in parts]), np.concatenate([J for _, J in parts])


def map_points(geom, points):
    """The map of a patch or trace at scattered points."""
    return map_at(geom.space, geom.control_points, points)[0]


def basis_at(space, points):
    """Indices and values (m, nloc) of the nonzero functions at scattered points, each point a one-point grid.

    ``space`` is a TensorSpace, or a WeightedSpace for the rational basis.
    """
    tensor, weights = (space.space, space.weights) if isinstance(space, WeightedSpace) else (space, None)
    rows = [
        grid_basis_matrix([_direction_matrices(kv, np.array([z]))[0] for kv, z in zip(tensor.knot_vectors, pt)], weights)
        for pt in np.atleast_2d(np.asarray(points, dtype=float))
    ]
    return np.array([r.indices for r in rows]), np.array([r.data for r in rows])


def grid_points(abscissae) -> np.ndarray:
    """The C-order grid of per-direction abscissae as one (m, d) row per point."""
    return np.stack([g.ravel() for g in np.meshgrid(*abscissae, indexing="ij")], axis=1)


def jacobians(patch, points):
    """Jacobian matrices dx/dzeta and determinants of a patch's map at many points."""
    J = map_at(patch.space, patch.control_points, points)[1]
    return J, np.linalg.det(J)


def active_region_extent(bundle, basis, r_of):
    """2D contact-zone extent: arc length of the union of active supports.

    Returns ``(r_max, element_width)``: the arc coordinate of the far end
    of the outermost active multiplier support, and the arc width of the
    trace element holding that boundary.
    """
    kv = basis.space.knot_vectors[0]
    deg = kv.degree
    act = np.flatnonzero(bundle.active)
    if act.size == 0:
        return 0.0, 0.0
    uppers = np.array([kv.knots[k + deg + 1] for k in act])
    k_edge = act[np.argmax(uppers)]
    lo = kv.knots[k_edge + deg]
    hi = uppers.max()
    r_hi = float(r_of(np.array([[hi]]))[0])
    r_lo = float(r_of(np.array([[lo]]))[0])
    return r_hi, r_hi - r_lo


@dataclass(frozen=True)
class GapField:
    """Signed distance from the deformed contact face to a rigid plane, at any surface parameters.

    The plane is ``{x : x . normal = offset}`` with ``normal`` the rigid
    body's outward unit normal; positive gap means separation.  The gap
    is affine in the displacement because the normal is fixed.
    """

    trace: object
    normal: np.ndarray
    offset: float

    def gap_at(self, params, u: np.ndarray | None = None) -> np.ndarray:
        """The gap at scattered surface parameters, of the face displaced by ``u`` when given."""
        x = self.trace.control_points
        if u is not None:
            x = x + np.asarray(u).reshape(-1, self.trace.patch.ndim)[self.trace.dof_map]
        return map_at(self.trace.space, x, params)[0] @ self.normal - self.offset
