"""Closed-form contact solutions, error norms, and convergence-rate fitting.

Displacement errors are integrated in the shared parametric domain on
the reference mesh's tensor Gauss grid (coarse and reference solutions
live on the same patch geometry).  Both fields and the geometry are
evaluated there by the sum-factorized evaluator of :mod:`splines`.

Multiplier errors are L2 norms of the pressure mismatch on the contact
boundary, integrated on a trace quadrature grid where each multiplier
field is its basis matrix times its coefficients; the classical profile
is mapped through the arc-length coordinate measured from the contact
pole, whose speeds come from the same evaluator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import TraceQuadrature, _gauss_points, _geometry_det_and_inverse, build_trace_quadrature, gauss_rule
from .contact import MultiplierBasis
from .geometry import BoundaryTrace, NurbsPatch, trace_grid_map
from .splines import _direction_matrices, _grid_fields, grid_basis_matrix

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
    fields = []  # (pair index, homogeneous coefficients, direction matrices)
    for k, (u_coarse, patch_coarse) in enumerate(coarse):
        if patch_coarse.ndim != nd:
            raise VerificationError("geometry dimension mismatch")
        uc = np.asarray(u_coarse, dtype=float).reshape(-1, nd)
        if uc.shape[0] != patch_coarse.space.dim or ur.shape[0] != patch_ref.space.dim:
            raise VerificationError("coefficient count does not match the space dimension")
        if uc.shape == ur.shape and np.array_equal(uc, ur):
            continue  # identical fields differ by the zero function
        coef_c = patch_coarse.space.homogeneous(uc)
        mats_c = [_direction_matrices(kv, z) for kv, z in zip(patch_coarse.knot_vectors, pts)]
        fields.append((k, coef_c, mats_c))
    sums = np.zeros((len(coarse), 2))  # squared L2 norm and H1 seminorm of each difference
    if not fields:
        return [(0.0, 0.0)] * len(coarse)
    mats_r = [_direction_matrices(kv, z) for kv, z in zip(patch_ref.knot_vectors, pts)]
    coef_r = patch_ref.space.homogeneous(np.hstack([patch_ref.control_points, ur]))
    w_rest = wts[1]
    for w in wts[2:]:
        w_rest = w_rest[..., None] * w
    step = n_gauss * max(1, _SLAB_POINTS // (n_gauss * w_rest.size))
    for start in range(0, pts[0].size, step):
        rows = slice(start, start + step)
        xu_r, grads_r = _grid_fields(coef_r, mats_r, rows)  # geometry, then u_ref
        det, jac_inv = _geometry_det_and_inverse(np.moveaxis(grads_r[:nd], (0, 1), (-2, -1)))
        wdet = wts[0][rows].reshape((-1,) + (1,) * (nd - 1)) * w_rest * det
        for k, coef_c, mats_c in fields:
            u_c, grads_c = _grid_fields(coef_c, mats_c, rows)
            dv = u_c - xu_r[nd:]
            dg = np.matmul(np.moveaxis(grads_c - grads_r[nd:], (0, 1), (-2, -1)), jac_inv)
            sums[k, 0] += float(((dv * dv).sum(axis=0) * wdet).sum())
            sums[k, 1] += float(((dg * dg).sum(axis=(-2, -1)) * wdet).sum())
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


def multiplier_error_reference(
    lam_coarse: np.ndarray,
    basis_coarse: MultiplierBasis,
    lam_ref: np.ndarray,
    basis_ref: MultiplierBasis,
) -> float:
    """L2 mismatch between two multiplier fields, integrated on the reference trace."""
    tq = build_trace_quadrature(basis_ref.trace, _REFERENCE_GAUSS)
    p_c = multiplier_pressure_at(lam_coarse, basis_coarse, tq)
    p_r = multiplier_pressure_at(lam_ref, basis_ref, tq)
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
