"""Closed-form contact solutions, error norms, and convergence-rate fitting.

Displacement errors are integrated in the shared parametric domain on
the reference mesh's tensor Gauss grid (coarse and reference solutions
live on the same patch geometry), in slabs of element rows along
direction 0.  Both fields and the geometry are evaluated there by the
sum-factorized evaluator of :mod:`splines`: each field's direction-0
basis is evaluated once, at all the grid's points, and each slab's
value/derivative matrices are built from its rows of that evaluation
(:func:`~.splines._slab_matrices`).  The gradient mismatch is contracted
with J^-1 entry by entry, each entry one grid array, so no batch of
small matrix products is formed; every sum keeps its order.

Multiplier errors are L2 norms of the pressure mismatch on the contact
boundary, integrated on a trace quadrature grid where each multiplier
field is its basis matrix times its coefficients; the classical profile
is mapped through the arc-length coordinate measured from the contact
pole, whose speeds come from the same evaluator.  The errors against
the reference multiplier share one reference trace quadrature and the
reference pressure on it (:func:`reference_pressure`), which a run
builds once for all its coarse levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import TraceQuadrature, _gauss_points, _geometry_det_and_inverse, build_trace_quadrature, gauss_rule
from .contact import MultiplierBasis
from .geometry import BoundaryTrace, NurbsPatch, trace_grid_map
from .splines import _direction_matrices, _grid_fields, _slab_matrices, grid_basis_matrix

_SLAB_POINTS = 1 << 14  # reference quadrature points per slab of element rows
_REFERENCE_GAUSS = 6  # Gauss points per direction of the multiplier reference error


class VerificationError(ValueError):
    """Inconsistent comparison request or invalid rate-fit data."""


@dataclass(frozen=True)
class HertzAnalytic:
    """Contact half-width, peak pressure and pressure profile for a pressed body."""

    radius: float
    young: float
    poisson: float
    load: float
    a: float
    p0: float

    def pressure_profile(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.a == 0.0:
            return np.zeros_like(r)
        val = 1.0 - (r / self.a) ** 2
        return self.p0 * np.sqrt(np.clip(val, 0.0, None))


def _check_hertz_inputs(R, E, nu, P):
    if R <= 0 or E <= 0 or P < 0:
        raise VerificationError("radius, modulus must be positive and load non-negative")
    if not 0 <= nu < 0.5:
        raise VerificationError("Poisson ratio must lie in [0, 0.5)")


def hertz_2d(R: float, E: float, nu: float, P: float) -> HertzAnalytic:
    """Long cylinder of radius R pressed on a plane by a uniform face pressure P.

    The contact band half-width is ``a = sqrt(8 R^2 P (1 - nu^2) / (pi E))``
    and the peak pressure ``p0 = 4 R P / (pi a)``.
    """
    _check_hertz_inputs(R, E, nu, P)
    a = math.sqrt(8.0 * R * R * P * (1.0 - nu * nu) / (math.pi * E))
    p0 = 4.0 * R * P / (math.pi * a) if a > 0 else 0.0
    return HertzAnalytic(radius=R, young=E, poisson=nu, load=P, a=a, p0=p0)


def hertz_3d(R: float, E: float, nu: float, P: float) -> HertzAnalytic:
    """Hemisphere of radius R pressed on a plane by a uniform face pressure P.

    The face pressure resultant is ``P * pi R^2``, giving the contact
    radius ``a = (3 pi R^3 P (1 - nu^2) / (4 E))^(1/3)`` and peak
    pressure ``p0 = 3 R^2 P / (2 a^2)``.
    """
    _check_hertz_inputs(R, E, nu, P)
    a = (3.0 * math.pi * R ** 3 * P * (1.0 - nu * nu) / (4.0 * E)) ** (1.0 / 3.0)
    p0 = 3.0 * R * R * P / (2.0 * a * a) if a > 0 else 0.0
    return HertzAnalytic(radius=R, young=E, poisson=nu, load=P, a=a, p0=p0)


def displacement_errors(coarse, u_ref: np.ndarray, patch_ref: NurbsPatch) -> list[tuple[float, float]]:
    """Absolute L2 and full H1 norms of the difference of each coarse field from the reference.

    ``coarse`` is a sequence of ``(u, patch)`` pairs; one ``(L2, H1)``
    pair is returned for each.  Every patch must carry the same geometry
    map as ``patch_ref`` (refinements of one patch).  Integration runs on
    the reference quadrature grid, in slabs of element rows along
    direction 0 so that transient memory stays bounded and each sum's
    order is fixed; the reference field and geometry are evaluated once
    per slab for all coarse fields.
    """
    nd = patch_ref.ndim
    n_gauss = max(patch_ref.degrees) + 1
    ur = np.asarray(u_ref, dtype=float).reshape(-1, nd)
    # the abscissae and weights of the reference element blocks, element rows first
    gauss = [_gauss_points(kv, gauss_rule(n_gauss)) for kv in patch_ref.knot_vectors]
    pts = [p.ravel() for p, _ in gauss]
    wts = [w.ravel() for _, w in gauss]
    w_rest = wts[1]
    for w in wts[2:]:
        w_rest = w_rest[..., None] * w
    step = n_gauss * max(1, _SLAB_POINTS // (n_gauss * w_rest.size))
    fields = []  # (pair index, homogeneous coefficients, direction matrices of every slab)
    for k, (u_coarse, patch_coarse) in enumerate(coarse):
        if patch_coarse.ndim != nd:
            raise VerificationError("geometry dimension mismatch")
        uc = np.asarray(u_coarse, dtype=float).reshape(-1, nd)
        if uc.shape[0] != patch_coarse.space.dim or ur.shape[0] != patch_ref.space.dim:
            raise VerificationError("coefficient count does not match the space dimension")
        if uc.shape == ur.shape and np.array_equal(uc, ur):
            continue  # identical fields differ by the zero function
        coef_c = patch_coarse.space.homogeneous(uc)
        fields.append((k, coef_c, _slab_matrices(patch_coarse.knot_vectors, pts, step)))
    sums = np.zeros((len(coarse), 2))  # squared L2 norm and H1 seminorm of each difference
    if not fields:
        return [(0.0, 0.0)] * len(coarse)
    coef_r = patch_ref.space.homogeneous(np.hstack([patch_ref.control_points, ur]))
    for s, mats_r in enumerate(_slab_matrices(patch_ref.knot_vectors, pts, step)):
        xu_r, grads_r = _grid_fields(coef_r, mats_r)  # geometry, then u_ref
        # J^-1[a, j] = dxi_a/dx_j, each entry one grid array
        jac_inv = np.empty_like(grads_r[:nd])
        det, _ = _geometry_det_and_inverse(
            np.moveaxis(grads_r[:nd], (0, 1), (-2, -1)), np.moveaxis(jac_inv, (0, 1), (-2, -1))
        )
        wdet = wts[0][s * step : (s + 1) * step].reshape((-1,) + (1,) * (nd - 1)) * w_rest * det
        for k, coef_c, slabs_c in fields:
            u_c, grads_c = _grid_fields(coef_c, slabs_c[s])
            dv = u_c - xu_r[nd:]
            # |(grad u_c - grad u_ref) J^-1|^2, summed over the entries (i, j) in C-order
            h1 = np.zeros_like(det)
            for i in range(nd):
                d_i = [grads_c[i, a] - grads_r[nd + i, a] for a in range(nd)]
                for j in range(nd):
                    g = d_i[0] * jac_inv[0, j]
                    for a in range(1, nd):
                        g += d_i[a] * jac_inv[a, j]
                    h1 += g * g
            sums[k, 0] += float(((dv * dv).sum(axis=0) * wdet).sum())
            sums[k, 1] += float((h1 * wdet).sum())
    return [(math.sqrt(l2_sq), math.sqrt(l2_sq + h1_sq)) for l2_sq, h1_sq in sums.tolist()]


def arc_coordinate_2d(trace: BoundaryTrace):
    """Arc length from parameter 0 along a 1D trace.

    Returns a callable mapping a :class:`TraceQuadrature` (or an array
    of surface parameters, one row per point) to arc-length coordinates,
    built from a trapezoidal table of the parametric speed at 4001 points.
    """
    zs = np.linspace(0.0, 1.0, 4001)
    _, speed = trace_grid_map(trace, [_direction_matrices(trace.space.space.knot_vectors[0], zs)])
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(zs))]
    )

    def r_of(tq) -> np.ndarray:
        z = tq.abscissae[0] if hasattr(tq, "abscissae") else np.atleast_2d(tq)[:, 0]
        return np.interp(z, zs, cumulative)

    return r_of


def geodesic_coordinate_3d(radius: float, pole_direction):
    """Great-circle distance from the contact pole on a sphere of given radius.

    Returns a callable mapping a :class:`TraceQuadrature` (or an array of
    physical points) to geodesic distances.
    """
    p = np.asarray(pole_direction, dtype=float)
    p = p / np.linalg.norm(p)

    def r_of(tq) -> np.ndarray:
        x = tq.phys if hasattr(tq, "phys") else np.atleast_2d(tq)
        cosang = np.clip((x @ p) / radius, -1.0, 1.0)
        return radius * np.arccos(cosang)

    return r_of


def multiplier_pressure_at(lam: np.ndarray, basis: MultiplierBasis, tq: TraceQuadrature) -> np.ndarray:
    """Contact pressure p = -lambda of a multiplier field at the points of a trace quadrature."""
    mats = [_direction_matrices(kv, z, 0)[0] for kv, z in zip(basis.space.knot_vectors, tq.abscissae)]
    return -(grid_basis_matrix(mats) @ np.asarray(lam, dtype=float))


def multiplier_error_analytic(
    lam: np.ndarray,
    basis: MultiplierBasis,
    analytic: HertzAnalytic,
    r_of,
    n_gauss: int = 8,
) -> float:
    """L2 mismatch on the contact face between -lambda and the closed-form profile at ``r_of(quadrature)``."""
    tq = build_trace_quadrature(basis.trace, n_gauss)
    p_h = multiplier_pressure_at(lam, basis, tq)
    p = analytic.pressure_profile(r_of(tq))
    return math.sqrt(float(((p_h - p) ** 2 * tq.wmeas).sum()))


def reference_pressure(lam_ref: np.ndarray, basis_ref: MultiplierBasis) -> tuple[TraceQuadrature, np.ndarray]:
    """The reference trace quadrature of :func:`multiplier_error_reference`, and the reference pressure at its points.

    It depends on the reference multiplier alone, so a run builds it once
    for the errors of all its coarse levels.
    """
    tq = build_trace_quadrature(basis_ref.trace, _REFERENCE_GAUSS)
    return tq, multiplier_pressure_at(lam_ref, basis_ref, tq)


def multiplier_error_reference(
    lam_coarse: np.ndarray,
    basis_coarse: MultiplierBasis,
    reference: tuple[TraceQuadrature, np.ndarray],
) -> float:
    """L2 mismatch between a multiplier field and the reference one, integrated on the reference trace.

    ``reference`` is the :func:`reference_pressure` of the reference multiplier.
    """
    tq, p_r = reference
    p_c = multiplier_pressure_at(lam_coarse, basis_coarse, tq)
    return math.sqrt(float(((p_c - p_r) ** 2 * tq.wmeas).sum()))


def fit_rate(pairs) -> float:
    """Least-squares slope of log(error) against log(h)."""
    data = np.asarray(list(pairs), dtype=float)
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != 2:
        raise VerificationError("need at least two (h, error) pairs")
    if np.any(data <= 0):
        raise VerificationError("h and error values must be positive")
    x = np.log(data[:, 0])
    y = np.log(data[:, 1])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
