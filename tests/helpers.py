"""Helpers that more than one test module computes with; the package itself does not need them."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from igacontact import benchmarks
from igacontact.assembly import _gauss_points, gauss_rule
from igacontact.geometry import (
    NurbsPatch,
    extract_trace,
    graded_breakpoints,
    graded_breakpoints_toward_end,
    trace_grid_map,
)
from igacontact.splines import (
    KnotVector,
    TensorSpace,
    WeightedSpace,
    _direction_matrices,
    _grid_fields,
    grid_basis_matrix,
    multiplier_space,
)


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


# The formulations the set-up chain used before it was rewritten to build each array once.  The tests
# compare the package against them bit for bit.


def oslo_rows_padded(kv, values):
    """Refined knots and knot-insertion matrix, the Oslo rows grown by two ``np.pad`` calls per degree."""
    values = np.asarray(values, dtype=float)
    p, t = kv.degree, kv.knots
    tau = np.sort(np.concatenate([t, values]))
    n = tau.size - p - 1
    rows = np.arange(n)
    mu = np.searchsorted(t, tau[:n], side="right")[:, None] - 1
    b = np.ones((n, 1))
    for k in range(1, p + 1):
        j = np.arange(k)
        t1, t2 = t[mu - k + 1 + j], t[mu + 1 + j]
        w = (tau[rows + k][:, None] - t1) / (t2 - t1)
        b = np.pad((1.0 - w) * b, ((0, 0), (0, 1))) + np.pad(w * b, ((0, 0), (1, 0)))
    T = np.zeros((n, kv.n_basis))
    T[rows[:, None], mu - p + np.arange(p + 1)] = b
    return tau, T


def new_breakpoints_isclose(kv, breaks):
    """The breakpoint filter with ``np.isclose``'s default tolerances, which drops values within 1e-5 of a knot."""
    z = np.unique(np.asarray(breaks, dtype=float))
    return z[~np.isclose(z[:, None], kv.breakpoints).any(axis=1)]


def bisect_sorted(breaks, times):
    """Dyadic bisection with the midpoints appended and the whole array sorted again."""
    out = np.asarray(breaks, dtype=float)
    for _ in range(times):
        out = np.sort(np.concatenate([out, 0.5 * (out[:-1] + out[1:])]))
    return out


def refine_oracle(patch, breakpoints_per_axis, new_breakpoints=new_breakpoints_isclose):
    """A patch refined with :func:`oslo_rows_padded`, one tensor contraction of the homogeneous net per axis."""
    kvs = list(patch.knot_vectors)
    hw = np.concatenate([patch.control_points * patch.space.weights[:, None], patch.space.weights[:, None]], axis=1)
    hw = hw.reshape(patch.space.space.n_basis + (patch.ndim + 1,))
    for axis, breaks in enumerate(breakpoints_per_axis):
        new = new_breakpoints(kvs[axis], breaks)
        if new.size:
            tau, T = oslo_rows_padded(kvs[axis], new)
            kvs[axis] = KnotVector(tau, kvs[axis].degree)
            hw = np.moveaxis(np.tensordot(T, hw, axes=(1, axis)), 0, axis)
    weights = hw[..., -1].ravel()
    controls = hw[..., :-1].reshape(-1, patch.ndim) / weights[:, None]
    return NurbsPatch(WeightedSpace(TensorSpace(tuple(kvs)), weights), controls)


def level_patch_oracle(config, level):
    """A run's level patch from the sort-based bisection and :func:`refine_oracle`, on the package's base patch."""
    n, g = config.base_spans, config.grading
    if config.benchmark == "hertz3d":
        axes = [np.linspace(0.0, 1.0, n[0] + 1), graded_breakpoints(n[1], *g), graded_breakpoints_toward_end(n[2], *g)]
    else:
        axes = [graded_breakpoints_toward_end(n[0], *g), graded_breakpoints(n[1], *g)]
    return refine_oracle(benchmarks._base_patch(config), [bisect_sorted(b, level)[1:-1] for b in axes])


def kron_basis_matrix(value_mats, weights=None):
    """The tensor basis matrix as a chain of sparse Kronecker products, made rational in a second CSR matrix."""
    E = functools.reduce(lambda A, B: sp.kron(A, B, format="csr"), value_mats)
    if weights is None:
        return E
    num = (weights[E.indices] * E.data).reshape(E.shape[0], -1)
    return sp.csr_matrix(((num / num.sum(axis=1)[:, None]).ravel(), E.indices, E.indptr), shape=E.shape)


def trace_quadrature_oracle(trace, n_gauss):
    """``(abscissae, weights, measure, phys, E)`` of a trace's Gauss grid, E from :func:`kron_basis_matrix`."""
    rule = gauss_rule(n_gauss)
    kvs = trace.space.space.knot_vectors
    gauss = [_gauss_points(kv, rule) for kv in kvs]
    abscissae = tuple(pts.ravel() for pts, _ in gauss)
    mats = [_direction_matrices(kv, z) for kv, z in zip(kvs, abscissae)]
    phys, measure = trace_grid_map(trace, mats)
    weights = functools.reduce(np.multiply.outer, [wts.ravel() for _, wts in gauss]).ravel()
    return abscissae, weights, measure, phys, kron_basis_matrix([vals for vals, _ in mats], trace.space.weights)


def contact_setup_oracle(patch, face, normal, offset):
    """The contact set-up arrays by sparse transposes and products: M^T w, M^T (g w) and M^T (w E)."""
    normal = np.asarray(normal, dtype=float)
    trace = extract_trace(patch, face, normal)
    abscissae, weights, measure, phys, E = trace_quadrature_oracle(trace, max(trace.space.space.degrees) + 2)
    space = multiplier_space(trace.space.space)
    M = kron_basis_matrix([_direction_matrices(kv, z, 0)[0] for kv, z in zip(space.knot_vectors, abscissae)])
    wmeas = weights * measure
    measures = M.T @ wmeas
    gap_integrals = M.T @ ((phys @ normal - offset) * wmeas) / measures * measures
    wE = sp.csr_matrix((E.data * np.repeat(wmeas, np.diff(E.indptr)), E.indices, E.indptr), shape=E.shape)
    Bs = (M.T @ wE).tocsr()
    comps = np.flatnonzero(normal)
    n_comp = patch.ndim
    cols = trace.dof_map[Bs.indices][:, None] * n_comp + comps
    data = Bs.data[:, None] * normal[comps]
    coupling = sp.csr_matrix(
        (data.ravel(), cols.ravel(), Bs.indptr * comps.size), shape=(Bs.shape[0], patch.space.dim * n_comp)
    )
    return {
        "phys": phys, "weights": weights, "measure": measure, "E": E, "M": M,
        "measures": measures, "gap_integrals": gap_integrals, "coupling": coupling,
    }


def load_oracle(patch, tractions):
    """The consistent load from :func:`trace_quadrature_oracle` and ``E^T (t wmeas)``."""
    nd = patch.ndim
    F = np.zeros(patch.space.dim * nd)
    for face, traction in tractions.items():
        trace = extract_trace(patch, face)
        _, weights, measure, _, E = trace_quadrature_oracle(trace, max(patch.degrees) + 1)
        t = np.broadcast_to(np.asarray(traction, dtype=float), (weights.size, nd))
        F.reshape(-1, nd)[trace.dof_map] += E.T @ (t * (weights * measure)[:, None])
    return F
