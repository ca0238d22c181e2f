"""Helpers that more than one test module computes with; the package itself does not need them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def jacobians(patch, points):
    """Jacobian matrices dx/dzeta and determinants of a patch's map at many points."""
    idx, _, grads = patch.space.eval_many(points, n_grad=1)
    J = np.einsum("mad,maj->mdj", patch.control_points[idx], grads)
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
        params = np.atleast_2d(params)
        x = self.trace.map_points(params)
        if u is not None:
            idx, vals, _ = self.trace.space.eval_many(params)
            u_face = np.asarray(u).reshape(-1, self.trace.patch.ndim)[self.trace.dof_map]
            x = x + np.einsum("ma,mad->md", vals, u_face[idx])
        return x @ self.normal - self.offset
