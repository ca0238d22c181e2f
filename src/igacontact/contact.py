"""Mixed contact machinery on the contact boundary.

The multiplier space lives on the contact face and has degree p - 2 per
direction.  Its measures, weighted gaps, coupling and stability masses
are moments of that basis on the face: with M the (m, n_multipliers)
matrix of the multiplier basis B_K at the m trace quadrature points, E
the matrix of the primal trace basis N_A there and w the quadrature
weights times the surface measure,

    measures        integral(B_K)                   = M^T w
    weighted gaps   integral(B_K g) / integral(B_K) = M^T (g w) / measures
    coupling        integral(B_K N_A)               = M^T (w E)

and the stability masses are the Gram products E^T (w E) and M^T (w M),
each summed from the matrices' per-point tables as the sparse products
would sum it (:func:`_moments`, :func:`_pair_moments`).  The vector
coupling to the displacement dofs is the scalar one with its columns
sent to the normal components.  A multiplier dof K is active
when its constraint ``weighted_gap_K = 0`` is enforced; inactive dofs
have their multiplier pinned to zero.  This module holds the whole
activity decision: the update rule (:func:`active_set_update`), the
complementarity test that ends a loop (:func:`complementarity_ok`), and
the one gap tolerance both read and the solvers start their sets with
(``_GAP_TOL``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .assembly import TraceQuadrature, build_trace_quadrature
from .geometry import BoundaryTrace
from .splines import TensorSpace, _direction_matrices, grid_basis_matrix, multiplier_space


class ContactError(ValueError):
    """Degenerate multiplier data or inconsistent contact state."""


_GAP_TOL = 1e-10  # a weighted gap below -_GAP_TOL is penetration


@dataclass(frozen=True)
class MultiplierBasis:
    """Degree p-2 multiplier basis on a boundary trace with its measures.

    ``quadrature`` carries the shared surface Gauss data; ``values`` is
    the (m, n_multipliers) matrix M of the multiplier basis at its m
    points, and ``measures`` the integrals M^T wmeas.
    """

    trace: BoundaryTrace
    space: TensorSpace
    quadrature: TraceQuadrature
    values: sp.csr_matrix
    measures: np.ndarray


def multiplier_basis(trace: BoundaryTrace) -> MultiplierBasis:
    """Build the multiplier space of a trace, its basis matrix M and the measures M^T wmeas (:func:`_moments`)."""
    space = multiplier_space(trace.space.space)
    # rational surface measures are not polynomial; one extra point keeps
    # the partition-of-unity identity of the measures below 1e-10
    tq = build_trace_quadrature(trace, max(trace.space.space.degrees) + 2)
    values = grid_basis_matrix([_direction_matrices(kv, z, 0)[0] for kv, z in zip(space.knot_vectors, tq.abscissae)])
    measures = _moments(values, tq.wmeas)
    if np.any(measures <= 0):
        raise ContactError("degenerate multiplier basis: nonpositive basis measure")
    return MultiplierBasis(trace=trace, space=space, quadrature=tq, values=values, measures=measures)


def _moments(A: sp.csr_matrix, f: np.ndarray) -> np.ndarray:
    """A^T f of a point basis matrix A (every row holds equally many entries), summed as A.T @ f sums."""
    return np.bincount(A.indices, (A.data.reshape(f.size, -1) * f[:, None]).ravel(), minlength=A.shape[1])


def _pair_moments(A: sp.csr_matrix, C: sp.csr_matrix, w: np.ndarray):
    """The entries ``(rows, cols, values)`` of A^T (w C) in CSR order, for point basis matrices A and C.

    Each point adds its products (C_j w) A_i to the pair (i, j), in point order from zero, as the sparse product does.
    """
    m, n = w.size, C.shape[1]
    pairs = A.indices.reshape(m, -1, 1).astype(np.int64) * n + C.indices.reshape(m, 1, -1)
    keys, at = np.unique(pairs.ravel(), return_inverse=True)
    wC = C.data.reshape(m, -1) * w[:, None]
    return *np.divmod(keys, n), np.bincount(at, (wC[:, None, :] * A.data.reshape(m, -1, 1)).ravel())


def weighted_gap(values, basis: MultiplierBasis) -> np.ndarray:
    """Basis-weighted averages of a scalar field given at the basis quadrature points.

    ``values`` holds the field at the points of ``basis.quadrature``, in
    their order.
    """
    tq = basis.quadrature
    v = np.asarray(values, dtype=float)
    if v.shape != tq.weights.shape:
        raise ContactError("field values must align with the basis quadrature points")
    return _moments(basis.values, v * tq.wmeas) / basis.measures


def coupling_matrix(basis: MultiplierBasis, n_comp: int, n_vol_basis: int) -> sp.csr_matrix:
    """Coupling B[K, dof] = integral(B_K N_A n_c) for dof = A n_comp + c; columns live on contact-face dofs.

    The scalar coupling M^T (w E) (:func:`_pair_moments`), with each
    entry (K, A) sent to the volume dof of A for every nonzero normal
    component c and scaled by n_c, in one CSR matrix.
    """
    M = basis.values
    rows, face_cols, values = _pair_moments(M, basis.quadrature.values, basis.quadrature.wmeas)
    n = basis.trace.normal
    comps = np.flatnonzero(n)
    cols = basis.trace.dof_map[face_cols][:, None] * n_comp + comps
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=M.shape[1]))]) * comps.size
    shape = (M.shape[1], n_vol_basis * n_comp)
    return sp.csr_matrix(((values[:, None] * n[comps]).ravel(), cols.ravel(), indptr), shape=shape)


@dataclass(frozen=True)
class ContactState:
    """Multiplier coefficients, weighted gaps and activity flags per dof K."""

    lam: np.ndarray
    weighted_gap: np.ndarray
    active: np.ndarray
    measures: np.ndarray


def active_set_update(state: ContactState) -> tuple[ContactState, int]:
    """One pass of the optimality operator on (multiplier, weighted gap) pairs.

    Componentwise: zero multiplier keeps a dof inactive when its gap is
    non-negative (to within ``_GAP_TOL``) and activates it otherwise; a
    negative multiplier keeps it active; a positive multiplier (infeasible
    sign) is reset to zero and the dof deactivated.  On a solved pair
    (zero multiplier off the set, zero gap on it) this is the primal-dual
    active-set step ``lam + c weighted_gap < 0`` for every c > 0.
    """
    lam = state.lam
    new_active = np.where(lam != 0.0, lam < 0.0, state.weighted_gap < -_GAP_TOL)
    lam = np.where(new_active, lam, 0.0)
    changed = int((new_active != state.active).sum())
    return replace(state, lam=lam, active=new_active), changed


def complementarity_ok(state: ContactState) -> bool:
    """Discrete complementarity: feasible signs and vanishing products."""
    lam, wg = state.lam, state.weighted_gap
    if np.any(lam > 1e-10):
        return False
    if np.any(wg[~state.active] < -1e-8):
        return False
    bound = 1e-8 * (np.abs(lam).max() * np.abs(wg).max() + 1e-14)
    return bool(np.abs(lam * wg).max() <= max(bound, 1e-14))


def scalar_coupling_and_masses(basis: MultiplierBasis):
    """Scalar-pairing matrices on the contact face for stability estimates.

    Returns ``(B, M_primal, M_mult)`` with ``B[K, A] = integral(B_K N_A)``,
    and the Gram matrices of the primal trace basis and multiplier basis,
    as dense arrays.
    """
    M, E, w = basis.values, basis.quadrature.values, basis.quadrature.wmeas
    out = []
    for A, C in ((M, E), (E, E), (M, M)):
        rows, cols, values = _pair_moments(A, C, w)
        out.append(np.zeros((A.shape[1], C.shape[1])))
        out[-1][rows, cols] = values
    return tuple(out)


def dump_contact_state(state: ContactState, path) -> None:
    """CSV dump: one row per multiplier dof (lambda, weighted gap, status, measure)."""
    lines = ["K,lambda,weighted_gap,status,measure"]
    for k in range(state.lam.size):
        status = "active" if state.active[k] else "inactive"
        lines.append(
            f"{k},{state.lam[k]:.9e},{state.weighted_gap[k]:.9e},{status},{state.measures[k]:.9e}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
