"""Mixed contact machinery on the contact boundary.

The multiplier space lives on the contact face and has degree p - 2 per
direction.  Activity decisions, gaps, and the coupling operator are all
expressed through basis-weighted averages: for a scalar field v,

    weighted_average(v)_K = integral(v B_K) / integral(B_K),

with B_K the multiplier basis functions and the denominators the basis
measures.  A multiplier dof K is active when its constraint
``weighted_gap_K = 0`` is enforced; inactive dofs have their multiplier
pinned to zero.  This module holds the whole activity decision: the
update rule (:func:`active_set_update`), the complementarity test that
ends a loop (:func:`complementarity_ok`), and the one gap tolerance both
read and the solvers start their sets with (``_GAP_TOL``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .assembly import TraceQuadrature, build_trace_quadrature
from .geometry import BoundaryTrace
from .splines import TensorSpace, multiplier_space


class ContactError(ValueError):
    """Degenerate multiplier data or inconsistent contact state."""


_GAP_TOL = 1e-10  # a weighted gap below -_GAP_TOL is penetration


@dataclass(frozen=True)
class MultiplierBasis:
    """Degree p-2 multiplier basis on a boundary trace with its measures.

    ``quadrature`` carries the shared surface Gauss data; ``mult_vals``
    and ``mult_idx`` are the multiplier basis values and flat indices at
    those quadrature points.
    """

    trace: BoundaryTrace
    space: TensorSpace
    quadrature: TraceQuadrature
    mult_vals: np.ndarray
    mult_idx: np.ndarray
    measures: np.ndarray

    @property
    def n_multipliers(self) -> int:
        return self.space.dim

    def values_at(self, params) -> tuple[np.ndarray, np.ndarray]:
        idx, vals, _ = self.space.eval_many(np.atleast_2d(params))
        return idx, vals


def multiplier_basis(trace: BoundaryTrace, n_gauss: int | None = None) -> MultiplierBasis:
    """Build the multiplier space of a trace and integrate its basis measures."""
    space = multiplier_space(trace.space.space)
    # rational surface measures are not polynomial; one extra point keeps
    # the partition-of-unity identity of the measures below 1e-10
    n_gauss = n_gauss or max(trace.space.space.degrees) + 2
    tq = build_trace_quadrature(trace, n_gauss)
    idx, vals, _ = space.eval_many(tq.params)
    measures = np.zeros(space.dim)
    np.add.at(measures, idx.ravel(), (vals * tq.wmeas[:, None]).ravel())
    if np.any(measures <= 0):
        raise ContactError("degenerate multiplier basis: nonpositive basis measure")
    return MultiplierBasis(
        trace=trace,
        space=space,
        quadrature=tq,
        mult_vals=vals,
        mult_idx=idx,
        measures=measures,
    )


def weighted_gap(values, basis: MultiplierBasis) -> np.ndarray:
    """Basis-weighted averages of a scalar field given at the basis quadrature points.

    ``values`` holds the field at the points of ``basis.quadrature``, in
    their order.
    """
    tq = basis.quadrature
    v = np.asarray(values, dtype=float)
    if v.shape != tq.weights.shape:
        raise ContactError("field values must align with the basis quadrature points")
    num = np.zeros(basis.n_multipliers)
    np.add.at(num, basis.mult_idx.ravel(), (basis.mult_vals * (v * tq.wmeas)[:, None]).ravel())
    return num / basis.measures


@dataclass(frozen=True)
class GapField:
    """Signed distance from the deformed contact face to a rigid plane.

    The plane is ``{x : x . normal = offset}`` with ``normal`` the rigid
    body's outward unit normal; positive gap means separation.  The gap
    is affine in the displacement because the normal is fixed.
    """

    trace: BoundaryTrace
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


def coupling_matrix(basis: MultiplierBasis, n_comp: int, n_vol_basis: int) -> sp.csr_matrix:
    """Coupling B[K, dof] = integral(B_K N_A n_comp); columns live on contact-face dofs."""
    tq = basis.quadrature
    n = basis.trace.normal
    rows, cols, data = [], [], []
    vol_dofs = basis.trace.dof_map[tq.idx]  # (m, nloc_t)
    for c in range(n_comp):
        if n[c] == 0.0:
            continue
        block = np.einsum("mk,ma,m->mka", basis.mult_vals, tq.vals, tq.wmeas * n[c])
        rows.append(np.broadcast_to(basis.mult_idx[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(vol_dofs[:, None, :] * n_comp + c, block.shape).ravel())
        data.append(block.ravel())
    shape = (basis.n_multipliers, n_vol_basis * n_comp)
    if not rows:
        return sp.csr_matrix(shape)
    B = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )
    return B.tocsr()


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
    and the Gram matrices of the primal trace basis and multiplier basis.
    """
    tq = basis.quadrature
    nP = basis.trace.space.dim
    nM = basis.n_multipliers
    B = np.zeros((nM, nP))
    Mp = np.zeros((nP, nP))
    Mm = np.zeros((nM, nM))
    w = tq.wmeas
    np.add.at(
        B,
        (
            np.broadcast_to(basis.mult_idx[:, :, None], basis.mult_idx.shape + (tq.vals.shape[1],)),
            np.broadcast_to(tq.idx[:, None, :], basis.mult_idx.shape + (tq.vals.shape[1],)),
        ),
        np.einsum("mk,ma,m->mka", basis.mult_vals, tq.vals, w),
    )
    np.add.at(
        Mp,
        (
            np.broadcast_to(tq.idx[:, :, None], tq.idx.shape + (tq.idx.shape[1],)),
            np.broadcast_to(tq.idx[:, None, :], tq.idx.shape + (tq.idx.shape[1],)),
        ),
        np.einsum("ma,mb,m->mab", tq.vals, tq.vals, w),
    )
    np.add.at(
        Mm,
        (
            np.broadcast_to(
                basis.mult_idx[:, :, None], basis.mult_idx.shape + (basis.mult_idx.shape[1],)
            ),
            np.broadcast_to(
                basis.mult_idx[:, None, :], basis.mult_idx.shape + (basis.mult_idx.shape[1],)
            ),
        ),
        np.einsum("mk,ml,m->mkl", basis.mult_vals, basis.mult_vals, w),
    )
    return B, Mp, Mm


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
