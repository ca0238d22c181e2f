"""Quadrature, degree-of-freedom management, and global assembly.

Displacement dofs are numbered ``basis_index * n_comp + component``
with basis functions in flat C-order.  Element loops are chunked and
vectorized over quadrature points; element matrices are batched matrix
products, summed into one CSR pattern per patch through a scatter plan,
whose pattern follows in closed form from the per-direction couplings.
What a Neo-Hookean tangent needs of the patch (gradients in kernel
layout, the state-free gradient block) is built once per patch.
Accumulation order is fixed, so repeated assembly of the same data is
bitwise reproducible.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .geometry import BoundaryTrace, NurbsPatch, extract_trace, face_axis_side
from .materials import ElementInversionError, LinearMaterial, NeoHookeanMaterial, det_and_inverse
from .splines import eval_basis_batch

_CHUNK = 256


class AssemblyError(ValueError):
    """Invalid assembly request (bad rule order, singular geometry, bad constraints)."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points and weights on the reference interval [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.points.size


def gauss_rule(n: int) -> QuadratureRule:
    if not 1 <= n <= 30:
        raise AssemblyError("Gauss rule order must lie in [1, 30]")
    x, w = leggauss(n)
    return QuadratureRule(points=x, weights=w)


def _direction_tables(kv, rule: QuadratureRule):
    """Per-span Gauss data of one knot vector direction.

    Returns (points, weights, values, derivs) with element axis first:
    shapes (nel, n), (nel, n), (nel, n, p+1), same.
    """
    bounds = kv.element_bounds
    nel = bounds.shape[0]
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    pts = mid[:, None] + half[:, None] * rule.points[None, :]
    wts = half[:, None] * rule.weights[None, :]
    _, vals, ders = eval_basis_batch(kv, pts.ravel(), n_deriv=min(1, kv.degree))
    n = rule.n
    vals = vals.reshape(nel, n, -1)
    if ders.shape[1]:
        ders = ders[:, 0, :].reshape(nel, n, -1)
    else:
        ders = np.zeros_like(vals)
    return pts, wts, vals, ders


def _tensor_combine(tables):
    """Outer product over directions: list of (ce, n_d, k_d) -> (ce, prod n, prod k)."""
    out = tables[0]
    for t in tables[1:]:
        ce, a, b = out.shape
        _, n, k = t.shape
        out = (out[:, :, None, :, None] * t[:, None, :, None, :]).reshape(ce, a * n, b * k)
    return out


def _element_dofs(space) -> np.ndarray:
    """(n_elements, nloc) flat basis indices of every element, elements in C-order.

    The first nonzero function on knot span s is s - p in each direction.
    """
    firsts = np.meshgrid(*[kv.spans - kv.degree for kv in space.knot_vectors], indexing="ij")
    offs = space._local_offsets
    multi = tuple(f.ravel()[:, None] + offs[None, :, d] for d, f in enumerate(firsts))
    return np.ravel_multi_index(multi, space.n_basis)


@dataclass
class ElementBlock:
    """Quadrature data of a chunk of elements."""

    dofs: np.ndarray  # (ce, nloc) flat basis indices
    values: np.ndarray  # (ce, nq, nloc) rational basis values
    grads_phys: np.ndarray  # (ce, nq, nloc, d)
    wdet: np.ndarray  # (ce, nq) quadrature weight x |J|


def _geometry_det_and_inverse(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det J and J^-1 of geometry Jacobians in closed form; AssemblyError where det J <= 0."""
    try:
        return det_and_inverse(J)
    except ElementInversionError:
        raise AssemblyError("singular or inverted geometry Jacobian at a quadrature point") from None


def iter_element_blocks(patch: NurbsPatch, n_gauss: int):
    """Yield vectorized per-element quadrature blocks of a patch, elements in C-order."""
    rule = gauss_rule(n_gauss)
    nd = patch.ndim
    space = patch.space.space
    tabs = [_direction_tables(kv, rule) for kv in space.knot_vectors]
    nel_dir = [kv.n_elements for kv in space.knot_vectors]
    all_dofs = _element_dofs(space)
    weights = patch.space.weights
    ctrl = patch.control_points

    for start in range(0, all_dofs.shape[0], _CHUNK):
        dofs = all_dofs[start : start + _CHUNK]
        ce = dofs.shape[0]
        multi = np.array(np.unravel_index(np.arange(start, start + ce), nel_dir)).T  # (ce, nd)
        wts_d, vals_d, ders_d = ([tabs[d][k][multi[:, d]] for d in range(nd)] for k in range(1, 4))
        bvals = _tensor_combine(vals_d)
        bgrads = np.empty(bvals.shape + (nd,))
        for g in range(nd):
            bgrads[..., g] = _tensor_combine([ders_d[d] if d == g else vals_d[d] for d in range(nd)])
        wq = _tensor_combine([w[:, :, None] for w in wts_d])[:, :, 0]

        wloc = weights[dofs]
        num = wloc[:, None, :] * bvals
        W = num.sum(axis=2)
        rvals = num / W[:, :, None]
        dnum = wloc[:, None, :, None] * bgrads
        dW = dnum.sum(axis=2)
        rgrads = (dnum - rvals[..., None] * dW[:, :, None, :]) / W[:, :, None, None]

        cloc = ctrl[dofs]  # (ce, nloc, d)
        J = np.matmul(cloc.transpose(0, 2, 1)[:, None], rgrads)  # (ce, nq, d, d): dx_d/dxi_j
        det, Jinv = _geometry_det_and_inverse(J)
        yield ElementBlock(dofs=dofs, values=rvals, grads_phys=np.matmul(rgrads, Jinv), wdet=wq * det)


@dataclass(frozen=True)
class ScatterPlan:
    """CSR pattern of a patch's element matrices and the slot of every entry.

    Row ``e`` of ``slots`` lists, in the row-major order of element e's
    (nloc * n_comp)^2 matrix, the position of each entry in ``indices``
    and in the data array.  Indices are sorted within each row.
    """

    indptr: np.ndarray  # (n_dofs + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    slots: np.ndarray  # (n_elements, (nloc * n_comp) ** 2) int32

    @property
    def nnz(self) -> int:
        return self.indices.size

    def add(self, data: np.ndarray, start: int, ke: np.ndarray) -> None:
        """Add the matrices ke (ce, n, n) of elements start .. start + ce - 1 into data.

        One ``bincount`` per call sums in element order, so a fixed
        sequence of calls is bitwise reproducible.  It spans only the
        slots the chunk touches, not the whole pattern.
        """
        slots = self.slots[start : start + ke.shape[0]].ravel()
        lo = int(slots.min())
        part = np.bincount(slots - lo, weights=ke.ravel())
        data[lo : lo + part.size] += part

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        n = self.indptr.size - 1
        # the matrix gets its own index arrays: scipy may sort or prune them in place
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))


def scatter_plan(patch: NurbsPatch) -> ScatterPlan:
    """Scatter plan of the vector-valued (n_comp = ndim) element matrices of a patch.

    The pattern is known in closed form: two functions of a tensor grid
    share an element iff their 1D factors share one in every direction,
    so a basis row's coupled functions, sorted, are the C-order product
    of its per-direction couplings, and the rank of one of them in the
    row is its per-direction ranks read in mixed radix.
    """
    nc = patch.ndim
    space = patch.space.space
    dofs = _element_dofs(space)
    ne, nloc = dofs.shape
    counts, ranks = [], []
    for kv, n in zip(space.knot_vectors, space.n_basis):
        local = (kv.spans - kv.degree)[:, None] + np.arange(kv.degree + 1)
        coupled = np.zeros((n, n), dtype=bool)
        coupled[local[:, :, None], local[:, None, :]] = True
        counts.append(coupled.sum(axis=1, dtype=np.int32))
        ranks.append(np.cumsum(coupled, axis=1, dtype=np.int32) - 1)  # where coupled
    count = functools.reduce(np.multiply.outer, counts).ravel()  # coupled functions per basis row
    first = np.cumsum(count) - count  # index of each basis row's first pair
    # rank of function b in the row of function a, for every element pair (a, b); the grid
    # index is unraveled in 2D, as numpy 2.4's np.unravel_index misreads a length-1 axis
    multi = np.unravel_index(dofs, space.n_basis)
    rank = np.zeros((ne, nloc, nloc), dtype=np.int32)
    for d, m in enumerate(multi):
        rank = rank * counts[d][m][:, :, None] + ranks[d][m[:, :, None], m[:, None, :]]
    n_pairs = int(count.sum())
    col = np.empty(n_pairs, dtype=np.int64)  # coupled pairs sorted by (row, column)
    col[first[dofs][:, :, None] + rank] = np.broadcast_to(dofs[:, None, :], rank.shape)
    row = np.repeat(np.arange(count.size), count)
    # dof row b * nc + i holds all nc components of each function coupled to b
    indptr = np.zeros(count.size * nc + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.repeat(nc * count, nc))
    comp = np.arange(nc)
    row_start = nc * nc * first[:, None] + (nc * count)[:, None] * comp  # (basis row, i)
    slot = row_start[row][:, :, None] + nc * (np.arange(n_pairs) - first[row])[:, None, None] + comp
    indices = np.empty(slot.size, dtype=np.int32)
    indices[slot] = col[:, None, None] * nc + comp
    # element entry (a i, b k) sits at the start of dof row (a, i) plus nc x the rank of b, plus k
    slots = (
        row_start[dofs].astype(np.int32)[:, :, :, None, None]
        + (nc * rank)[:, :, None, :, None]
        + comp.astype(np.int32)
    )
    return ScatterPlan(indptr=indptr.astype(np.int32), indices=indices, slots=slots.reshape(ne, -1))


def _pair_products(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_q c_eq w_eqai w_eqbk as (ce, nloc, d, nloc, d), one batched matmul."""
    ce, nq, nloc, nd = w.shape
    flat = w.reshape(ce, nq, nloc * nd)
    prod = np.matmul((flat * c[:, :, None]).transpose(0, 2, 1), flat)
    return prod.reshape(ce, nloc, nd, nloc, nd)


def _grad_layout(g: np.ndarray) -> np.ndarray:
    """Gradients (ce, nq, nloc, d) as (ce, nloc, nq * d), the (e, a, (q, j)) layout of the kernels."""
    ce, nq, nloc, nd = g.shape
    return g.transpose(0, 2, 1, 3).reshape(ce, nloc, nq * nd)


def _grad_products(gt: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_q c_eq g_qa . g_qb as (ce, nloc, nloc), one batched matmul over gt = _grad_layout(g)."""
    nd = gt.shape[2] // c.shape[1]
    return np.matmul(gt * np.repeat(c, nd, axis=1)[:, None, :], gt.transpose(0, 2, 1))


def _isotropic_element_matrices(w, k_grad, c_pair, c_swap) -> np.ndarray:
    """Element matrices of an isotropic tangent, (ce, nloc * d, nloc * d).

    Entry (a i, b k) is the quadrature sum of
    ``c_grad (g_a . g_b) delta_ik + c_pair w_ai w_bk + c_swap w_ak w_bi``,
    its first term passed in as ``k_grad``, the (ce, nloc, nloc) block of
    :func:`_grad_products`.  Linear elasticity is w = g with weights
    (mu, lam, mu) x wdet; the Neo-Hookean tangent has w = g F^-1 and
    (mu, lam, mu - lam ln J) x wdet.
    """
    ce, nq, nloc, nd = w.shape
    ke = _pair_products(w, c_pair)
    ke += _pair_products(w, c_swap).transpose(0, 1, 4, 3, 2)
    for i in range(nd):
        ke[:, :, i, :, i] += k_grad
    return ke.reshape(ce, nloc * nd, nloc * nd)


@dataclass
class GlobalSystem:
    """Sparse stiffness, load vector, dof numbering and Dirichlet data.

    ``grid_shape`` is the patch's basis grid, flat C-order basis indices.
    """

    stiffness: sp.csr_matrix
    load: np.ndarray
    grid_shape: tuple[int, ...]
    n_comp: int
    constraints: dict[int, float] = field(default_factory=dict)

    @property
    def n_dofs(self) -> int:
        return int(np.prod(self.grid_shape)) * self.n_comp


def assemble_stiffness(patch: NurbsPatch, mat: LinearMaterial, n_gauss: int | None = None) -> GlobalSystem:
    """Linear elastic stiffness of the isoparametric displacement space.

    The material is isotropic, so the kernel needs only its Lame
    parameters: a_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk).
    """
    nd = patch.ndim
    n_gauss = n_gauss or max(patch.degrees) + 1
    mu, lam = mat.lame()
    plan = scatter_plan(patch)
    data = np.zeros(plan.nnz)
    start = 0
    for block in iter_element_blocks(patch, n_gauss):
        g, wdet = block.grads_phys, block.wdet
        k_grad = _grad_products(_grad_layout(g), mu * wdet)
        plan.add(data, start, _isotropic_element_matrices(g, k_grad, lam * wdet, mu * wdet))
        start += wdet.shape[0]
    return GlobalSystem(
        stiffness=plan.matrix(data),
        load=np.zeros(patch.space.dim * nd),
        grid_shape=patch.space.space.n_basis,
        n_comp=nd,
    )


@dataclass(frozen=True)
class TraceQuadrature:
    """Gauss data on the elements of a boundary trace."""

    params: np.ndarray  # (m, sd) surface parametric coordinates
    weights: np.ndarray  # (m,) gauss weight x parametric span factor
    measure: np.ndarray  # (m,) surface Jacobian
    phys: np.ndarray  # (m, d)
    vals: np.ndarray  # (m, nloc) primal surface basis values
    idx: np.ndarray  # (m, nloc) flat surface basis indices

    @property
    def wmeas(self) -> np.ndarray:
        return self.weights * self.measure


def build_trace_quadrature(trace: BoundaryTrace, n_gauss: int | None = None) -> TraceQuadrature:
    n_gauss = n_gauss or max(trace.space.space.degrees) + 1
    rule = gauss_rule(n_gauss)
    sd = trace.ndim
    tabs = [_direction_tables(kv, rule) for kv in trace.space.space.knot_vectors]
    flat_pts = [tabs[d][0].reshape(-1) for d in range(sd)]
    flat_wts = [tabs[d][1].reshape(-1) for d in range(sd)]
    mesh = np.meshgrid(*[np.arange(x.size) for x in flat_pts], indexing="ij")
    pos = [m.ravel() for m in mesh]
    params = np.stack([flat_pts[d][pos[d]] for d in range(sd)], axis=1)
    weights = np.ones(params.shape[0])
    for d in range(sd):
        weights = weights * flat_wts[d][pos[d]]
    idx, vals, _ = trace.space.eval_many(params)
    measure = trace.measures(params)
    phys = trace.map_points(params)
    return TraceQuadrature(
        params=params,
        weights=weights,
        measure=measure,
        phys=phys,
        vals=vals,
        idx=idx,
    )


def assemble_load(
    patch: NurbsPatch,
    tractions: dict[int, np.ndarray] | None = None,
    body=None,
    n_gauss: int | None = None,
) -> np.ndarray:
    """Consistent load vector from face tractions and an optional body force."""
    nd = patch.ndim
    n_gauss = n_gauss or max(patch.degrees) + 1
    F = np.zeros(patch.space.dim * nd)
    for face, traction in (tractions or {}).items():
        face_axis_side(face, nd)  # validates the id
        trace = extract_trace(patch, face)
        tq = build_trace_quadrature(trace, n_gauss)
        t = np.asarray(traction(tq.phys) if callable(traction) else traction, dtype=float)
        t = np.broadcast_to(t, (tq.params.shape[0], nd))
        contrib = tq.vals[:, :, None] * (t * tq.wmeas[:, None])[:, None, :]
        dofs = trace.dof_map[tq.idx][:, :, None] * nd + np.arange(nd)[None, None, :]
        np.add.at(F, dofs.ravel(), contrib.ravel())
    if body is not None:
        for block in iter_element_blocks(patch, n_gauss):
            if callable(body):
                raise AssemblyError("callable body forces not supported; pass a constant vector")
            b = np.asarray(body, dtype=float)
            contrib = block.values[:, :, :, None] * b[None, None, None, :]
            contrib = (contrib * block.wdet[:, :, None, None]).sum(axis=1)
            dofs = block.dofs[:, :, None] * nd + np.arange(nd)[None, None, :]
            np.add.at(F, dofs.ravel(), contrib.ravel())
    return F


def merge_constraints(*parts: dict[int, float]) -> dict[int, float]:
    """Union of constraint dicts; conflicting values on one dof are an error."""
    out: dict[int, float] = {}
    for part in parts:
        for dof, val in part.items():
            if dof in out and not np.isclose(out[dof], val):
                raise AssemblyError(f"contradictory constraints on dof {dof}: {out[dof]} vs {val}")
            out[dof] = val
    return out


def face_basis_indices(patch: NurbsPatch, face: int) -> np.ndarray:
    axis, side = face_axis_side(face, patch.ndim)
    shape = patch.space.space.n_basis
    grid = np.arange(patch.space.dim).reshape(shape)
    return np.take(grid, -1 if side else 0, axis=axis).ravel()


def dirichlet_on_face(patch: NurbsPatch, face: int, component: int, value: float = 0.0) -> dict[int, float]:
    """Fix one displacement component of every basis function on a face."""
    nd = patch.ndim
    return {int(b) * nd + component: float(value) for b in face_basis_indices(patch, face)}


def _canonical_csr(A) -> sp.csr_matrix:
    """A in CSR with sorted indices and no duplicates; a copy when A is not already so."""
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def apply_constraints(K: sp.csr_matrix, F: np.ndarray, constraints: dict[int, float]):
    """Symmetric elimination: unit diagonal rows/cols, right-hand side shifted.

    Works on K's own CSR slots in O(nnz): the entries of fixed rows and
    columns are dropped and the fixed diagonals set to one, the result
    the sparse products ``D K D + diag`` give, bit for bit.
    """
    if not constraints:
        return K.tocsr(), F.copy()
    n = F.size
    fixed = np.fromiter(constraints.keys(), dtype=np.int64)
    if fixed.size != len(set(constraints.keys())):
        raise AssemblyError("duplicate constraint dofs")
    if np.any(fixed < 0) or np.any(fixed >= n):
        raise AssemblyError("constraint dof out of range")
    K = _canonical_csr(K)
    values = np.fromiter(constraints.values(), dtype=float)
    u_fix = np.zeros(n)
    u_fix[fixed] = values
    Fc = F - K @ u_fix
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    counts = np.diff(K.indptr)
    rows = np.repeat(np.arange(n), counts)
    fixed_row = ~np.repeat(free, counts)
    unit = fixed_row & (rows == K.indices)
    keep = ~fixed_row & np.take(free, K.indices)  # np.take: a faster gather than free[...]
    data = np.where(keep, K.data, unit.astype(float))
    Kc = sp.csr_matrix((data, K.indices.copy(), K.indptr.copy()), shape=K.shape)
    missing = np.setdiff1d(fixed, rows[unit])  # fixed diagonals K does not store
    if missing.size:
        Kc = Kc + sp.csr_matrix((np.ones(missing.size), (missing, missing)), shape=K.shape)
    Kc.eliminate_zeros()
    Fc[fixed] = values
    return Kc, Fc


@dataclass(frozen=True)
class PatchQuadrature:
    """The element data a Neo-Hookean tangent reads, for a whole patch.

    It depends on the patch alone, so a solve that assembles many
    tangents builds it once with :func:`patch_quadrature`.  Gradients are
    kept in the (e, a, (q, j)) layout only; ``grad_block`` is the part of
    the tangent that does not depend on the state, up to the factor mu.
    """

    dofs: np.ndarray  # (ne, nloc) flat basis indices
    gt: np.ndarray  # (ne, nloc, nq * d) physical gradients, _grad_layout
    wdet: np.ndarray  # (ne, nq) quadrature weight x |J|
    grad_block: np.ndarray  # (ne, nloc, nloc) sum_q wdet g_qa . g_qb
    plan: ScatterPlan


def patch_quadrature(patch: NurbsPatch, n_gauss: int | None = None) -> PatchQuadrature:
    n_gauss = n_gauss or max(patch.degrees) + 1
    parts = [(b.dofs, _grad_layout(b.grads_phys), b.wdet) for b in iter_element_blocks(patch, n_gauss)]
    dofs, gt, wdet = (np.concatenate(p) for p in zip(*parts))
    return PatchQuadrature(
        dofs=dofs, gt=gt, wdet=wdet, grad_block=_grad_products(gt, wdet), plan=scatter_plan(patch)
    )


def neo_hookean_forces(
    patch: NurbsPatch,
    mat: NeoHookeanMaterial,
    u: np.ndarray,
    n_gauss: int | None = None,
    quad: PatchQuadrature | None = None,
):
    """Internal force vector and consistent tangent at displacement state u.

    Total Lagrangian: gradients are taken with respect to the reference
    configuration; raises :class:`ElementInversionError` when det F <= 0
    at any quadrature point.  ``quad`` is the patch's
    :func:`patch_quadrature`; it is built here when not given.
    """
    nd = patch.ndim
    if quad is None:
        quad = patch_quadrature(patch, n_gauss)
    u_mat = np.asarray(u, dtype=float).reshape(patch.space.dim, nd)
    f_int = np.zeros(u_mat.size)
    data = np.zeros(quad.plan.nnz)
    mu, lam = mat.lame()
    for start in range(0, quad.dofs.shape[0], _CHUNK):
        chunk = slice(start, start + _CHUNK)
        dofs, gt, wdet = quad.dofs[chunk], quad.gt[chunk], quad.wdet[chunk]
        ce, nloc, nqd = gt.shape
        nq = nqd // nd
        gradu = np.matmul(u_mat[dofs].transpose(0, 2, 1), gt)  # (e, i, (q, j))
        Fdef = np.eye(nd) + gradu.reshape(ce, nd, nq, nd).transpose(0, 2, 1, 3)
        J, Finv = det_and_inverse(Fdef)
        P = mat.pk1(Fdef, J, Finv)
        # f_ai = sum_q,j g_qaj P_qij wdet_q
        Pw = (P * wdet[:, :, None, None]).transpose(0, 1, 3, 2).reshape(ce, nq * nd, nd)
        edofs = dofs[:, :, None] * nd + np.arange(nd)
        f_int += np.bincount(edofs.ravel(), weights=np.matmul(gt, Pw).ravel(), minlength=f_int.size)
        # dP/dF = mu I (x) I + lam F^-T (x) F^-T + (mu - lam lnJ) swap-term, contracted
        # per term with w = g F^-1 instead of forming the fourth-order tensor
        w = np.matmul(gt.reshape(ce, nloc, nq, nd).transpose(0, 2, 1, 3), Finv)
        c_swap = (mu - lam * np.log(J)) * wdet
        ke = _isotropic_element_matrices(w, mu * quad.grad_block[chunk], lam * wdet, c_swap)
        quad.plan.add(data, start, ke)
    return f_int, quad.plan.matrix(data)
