"""Quadrature, degree-of-freedom management, and global assembly.

Displacement dofs are numbered ``basis_index * n_comp + component``
with basis functions in flat C-order.  Element loops are chunked and
vectorized over quadrature points; the rational basis and its gradient
come from one outer product of per-direction tables and one batched
matmul against the local weights, gradients kept transposed (component
before basis function) until the physical gradients are formed.  Element matrices are batched matrix
products, summed into one CSR pattern per patch through a scatter plan.
Every operator assembled here, the stiffness and the Neo-Hookean
tangent, is symmetric and is stored once, as its upper triangle
(column >= row) in a :class:`SymmetricCSR`: the plan scatters only the
element matrices' upper triangles, and ``tocsr()`` or ``toarray()``
gives the full matrix.  The plan is closed-form: its pattern, ranks and
slots are broadcasts of per-direction coupling tables, with no search
or sort, and its index arrays are read-only and shared by every matrix
built on it.  A linear
element matrix needs one quadrature pair product sum_q wdet g_ai g_bk,
from which the lam term, the mu swap term and the mu (g_a . g_b)
delta_ik term are all read.  What a Neo-Hookean tangent needs of the
patch (gradients in kernel layout, the state-free gradient term as CSR
data) is built once per patch.  A Neo-Hookean evaluation has two
phases: the residual phase gives the internal force and keeps the
kinematics (det F, F^-1) at every quadrature point, and the tangent
phase assembles the tangent from them, so a caller that needs only the
force never pays for the tangent.  The residual forms F^T, and the
stress P^T over it in place, in the (element, point, j, i) layout that
the force product reads.  A tangent element matrix needs one pair
product, of (lam + mu - lam ln J) wdet, and for each component pair
i < k one antisymmetric nloc x nloc correction that turns its share of
the pair term into the swap term.
Element loops take chunks sized by the element matrix (:func:`_chunk`):
256 elements while m = nloc n_comp is at most 32, fewer above, so that a
chunk holds at most 256 32^2 element-matrix entries (39 elements in 3D
at degree 2) and the transient arrays of a 3D chunk stay as small as a
2D one's.  The chunks' element values are summed in groups of 256
elements whatever the chunk (:func:`_in_groups`), one ``bincount`` per
group, so the chunk size changes no sum.  Accumulation order is fixed,
so repeated assembly of the same data is bitwise reproducible.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .geometry import BoundaryTrace, NurbsPatch, extract_trace, face_basis_indices, trace_grid_map
from .materials import ElementInversionError, LinearMaterial, NeoHookeanMaterial, det_and_inverse
from .splines import _direction_matrices, eval_basis_batch, grid_basis_matrix


_GROUP = 256  # elements whose values one scatter sums


def _chunk(nloc: int, n_comp: int) -> int:
    """Elements per chunk of an element loop: 256, fewer when the element matrices exceed 32 x 32.

    With m = nloc n_comp, a chunk holds at most 256 32^2 element-matrix
    entries: 256 elements in every 2D run of degree 2 or 3, 39 in 3D at
    degree 2.
    """
    return min(_GROUP, _GROUP * 32**2 // (nloc * n_comp) ** 2)


def _in_groups(chunks):
    """Regroup the (ce, w) element rows that ``chunks`` yields, in element order, into groups of _GROUP.

    Yields (start, rows) per group, the rows of elements start ..
    start + len(rows) - 1; a chunk that is a whole group passes through,
    others are copied into one reused buffer, so each group must be
    consumed before the next is asked for.  A sum over a group is then
    the same whatever the chunks that computed its rows.
    """
    buf = None
    start = fill = 0
    for rows in chunks:
        if not fill and len(rows) == _GROUP:
            yield start, rows
            start += _GROUP
            continue
        if buf is None:
            buf = np.empty((_GROUP, rows.shape[1]))
        while len(rows):
            n = min(len(rows), _GROUP - fill)
            buf[fill : fill + n] = rows[:n]
            rows, fill = rows[n:], fill + n
            if fill == _GROUP:
                yield start, buf
                start, fill = start + _GROUP, 0
    if fill:
        yield start, buf[:fill]


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


@functools.cache
def gauss_rule(n: int) -> QuadratureRule:
    """The n-point rule, computed once per order; its arrays are read-only, as every caller shares them."""
    if not 1 <= n <= 30:
        raise AssemblyError("Gauss rule order must lie in [1, 30]")
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return QuadratureRule(points=x, weights=w)


def _gauss_points(kv, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Gauss abscissae and weights on every nonempty span of one knot vector, each (nel, n)."""
    bounds = kv.element_bounds
    mid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    return mid[:, None] + half[:, None] * rule.points[None, :], half[:, None] * rule.weights[None, :]


def _direction_tables(kv, rule: QuadratureRule):
    """Per-span Gauss data of one knot vector direction, for the element kernels.

    Returns (weights, values, derivs) with element axis first: shapes
    (nel, n), (nel, n, p+1), same.
    """
    pts, wts = _gauss_points(kv, rule)
    nel = pts.shape[0]
    _, vals, ders = eval_basis_batch(kv, pts.ravel(), n_deriv=1)
    return wts, vals.reshape(nel, rule.n, -1), ders[:, 0, :].reshape(nel, rule.n, -1)


def _tensor_combine(tables):
    """Outer product over directions: list of (ce, n_d, ..., k_d) -> (ce, prod n, ..., prod k).

    Axes between the first two and the last are multiplied entry by entry.
    """
    out = tables[0]
    for t in tables[1:]:
        shape = (out.shape[0], out.shape[1] * t.shape[1]) + out.shape[2:-1] + (out.shape[-1] * t.shape[-1],)
        out = (out[:, :, None, ..., :, None] * t[:, None, ..., None, :]).reshape(shape)
    return out


def _element_dofs(space) -> np.ndarray:
    """(n_elements, nloc) flat basis indices of every element, elements in C-order.

    The first nonzero function on knot span s is s - p in each direction.
    """
    firsts = np.meshgrid(*[kv.spans - kv.degree for kv in space.knot_vectors], indexing="ij")
    offs = np.indices([kv.degree + 1 for kv in space.knot_vectors]).reshape(space.ndim, -1)  # (d, nloc)
    multi = tuple(f.ravel()[:, None] + offs[d] for d, f in enumerate(firsts))
    return np.ravel_multi_index(multi, space.n_basis)


@dataclass
class ElementBlock:
    """Quadrature data of a chunk of elements."""

    dofs: np.ndarray  # (ce, nloc) flat basis indices
    values: np.ndarray  # (ce, nq, nloc) rational basis values
    grads_phys: np.ndarray  # (ce, nq, nloc, d)
    wdet: np.ndarray  # (ce, nq) quadrature weight x |J|


def _geometry_det_and_inverse(J: np.ndarray, J_inv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """det J and J^-1 (into ``J_inv`` if given) of geometry Jacobians in closed form; AssemblyError where det J <= 0."""
    try:
        return det_and_inverse(J, F_inv=J_inv)
    except ElementInversionError:
        raise AssemblyError("singular or inverted geometry Jacobian at a quadrature point") from None


def iter_element_blocks(patch: NurbsPatch, n_gauss: int):
    """Yield vectorized per-element quadrature blocks of a patch, elements in C-order."""
    rule = gauss_rule(n_gauss)
    nd = patch.ndim
    space = patch.space.space
    tabs = [_direction_tables(kv, rule) for kv in space.knot_vectors]
    # per direction, (nel, n, 1 + d, p+1): the values, then for each gradient axis g the
    # derivatives on axis g and the values elsewhere, so one outer product gives both
    basis = [
        np.stack([vals] + [ders if g == d else vals for g in range(nd)], axis=-2)
        for d, (_, vals, ders) in enumerate(tabs)
    ]
    nel_dir = [kv.n_elements for kv in space.knot_vectors]
    all_dofs = _element_dofs(space)
    weights = patch.space.weights
    ctrl = patch.control_points

    chunk = _chunk(all_dofs.shape[1], nd)
    for start in range(0, all_dofs.shape[0], chunk):
        dofs = all_dofs[start : start + chunk]
        ce = dofs.shape[0]
        multi = np.array(np.unravel_index(np.arange(start, start + ce), nel_dir)).T  # (ce, nd)
        bspl = _tensor_combine([basis[d][multi[:, d]] for d in range(nd)])  # (ce, nq, 1 + d, nloc)
        wq = _tensor_combine([tabs[d][0][multi[:, d], :, None] for d in range(nd)])[:, :, 0]

        wloc = weights[dofs]
        W = np.matmul(bspl, wloc[:, None, :, None])  # (ce, nq, 1 + d, 1): W and its gradient
        R = bspl * wloc[:, None, None, :] / W[:, :, :1]
        rvals = R[:, :, 0]
        rgrads_t = R[:, :, 1:] - R[:, :, :1] * (W[:, :, 1:] / W[:, :, :1])  # (ce, nq, d, nloc)

        Jt = np.matmul(rgrads_t, ctrl[dofs][:, None])  # (ce, nq, d, d): dx_d/dxi_j at [j, d]
        det, Jinv_t = _geometry_det_and_inverse(Jt)
        grads_phys = np.matmul(rgrads_t.transpose(0, 1, 3, 2), Jinv_t.transpose(0, 1, 3, 2))
        yield ElementBlock(dofs=dofs, values=rvals, grads_phys=grads_phys, wdet=wq * det)


@functools.cache
def _upper_entries(nloc: int, nd: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the upper triangle (column >= row) of an element matrix, row by row.

    Entry (a i, b k) of the matrix sits at row a nd + i and column
    b nd + k, m = nloc nd.  Returns, per upper entry, read-only: ``flat``,
    its position in the flat m x m matrix; ``swap``, that of entry
    (a k, b i); ``pair``, the position a nloc + b in a flat nloc x nloc
    matrix of function pairs; and ``diag``, whether i == k.
    """
    m = nloc * nd
    la, lb = np.triu_indices(m)
    (a, i), (b, k) = np.divmod(la, nd), np.divmod(lb, nd)
    tables = (la * m + lb, (a * nd + k) * m + b * nd + i, a * nloc + b, i == k)
    for t in tables:
        t.flags.writeable = False
    return tables


@dataclass(frozen=True)
class SymmetricCSR:
    """A symmetric matrix stored once, as its upper triangle U (column >= row) in CSR.

    ``data``, ``indices`` and ``indptr`` are U's arrays, indices sorted in
    every row.  ``A @ x`` applies the whole matrix to a vector, ``U x +
    U^T x - diag(U) x``; :meth:`tocsr` and :meth:`toarray` build it in full.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    @functools.cached_property
    def _upper(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    @functools.cached_property
    def _lower(self) -> sp.csc_matrix:
        return self._upper.T  # U^T in CSC on U's own arrays

    @functools.cached_property
    def _diagonal(self) -> np.ndarray:
        return self._upper.diagonal()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._upper @ x + self._lower @ x - self._diagonal * x

    def tocsr(self) -> sp.csr_matrix:
        return (self._upper + sp.triu(self._upper, k=1).T).tocsr()

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()


@dataclass(frozen=True)
class ScatterPlan:
    """CSR pattern of the upper triangle of a patch's element matrices, and the slot of every entry.

    Row ``e`` of ``slots`` lists, for the upper triangle (column >= row)
    of element e's (nloc * n_comp)^2 matrix, row by row, the position of
    each entry in ``indices`` and in the data array.  Element dofs increase
    with the local index, so these are the entries with column >= row in
    the global matrix.  Indices are sorted within each row.  The arrays are
    read-only: every matrix of the plan shares them.
    """

    indptr: np.ndarray  # (n_dofs + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    slots: np.ndarray  # (n_elements, m (m + 1) / 2) int32, m = nloc * n_comp

    @property
    def nnz(self) -> int:
        return self.indices.size

    def add(self, data: np.ndarray, start: int, ke: np.ndarray) -> None:
        """Add the upper triangles ke (ce, m (m + 1) / 2) of elements start .. start + ce - 1 into data.

        Each row of ke holds its element's entries in the order of
        :func:`_upper_entries`.  One ``bincount`` per call sums in element
        order, so a fixed sequence of calls is bitwise reproducible.  It
        spans only the slots the chunk touches, not the whole pattern.
        """
        slots = self.slots[start : start + ke.shape[0]].ravel()
        lo = int(slots.min())
        part = np.bincount(slots - lo, weights=ke.ravel())
        data[lo : lo + part.size] += part

    def matrix(self, data: np.ndarray) -> SymmetricCSR:
        return SymmetricCSR(data, self.indices, self.indptr)


def scatter_plan(patch: NurbsPatch) -> ScatterPlan:
    """Scatter plan of the vector-valued (n_comp = ndim) element matrices of a patch.

    The pattern is known in closed form.  Two functions of a tensor grid
    share an element iff their 1D factors share one in every direction,
    and in 1D the functions coupled to function a are the contiguous run
    lo[a] .. lo[a] + count[a] - 1.  So a basis row's coupled functions,
    sorted, are the C-order product of its per-direction runs, and the
    rank of one of them in the row is its per-direction ranks read in
    mixed radix.  An upper row is the tail of the full row from its
    diagonal, whose position is the row function's rank in its own row:
    its start, and each entry's slot, are a per-row shift of the full
    row's.  Every table below is a broadcast of per-direction ones.
    """
    nc = patch.ndim
    space = patch.space.space
    nd, n_basis = space.ndim, space.n_basis
    comp = np.arange(nc, dtype=np.int32)
    los, counts, owns, offset = [], [], [], np.zeros((), dtype=np.int32)
    for d, kv in enumerate(space.knot_vectors):
        local = (kv.spans - kv.degree).astype(np.int32)[:, None] + np.arange(kv.degree + 1, dtype=np.int32)
        coupled = np.zeros((n_basis[d], n_basis[d]), dtype=bool)
        coupled[local[:, :, None], local[:, None, :]] = True
        lo, count = coupled.argmax(axis=1).astype(np.int32), coupled.sum(axis=1, dtype=np.int32)
        los.append(lo)
        counts.append(count)
        owns.append(np.arange(n_basis[d], dtype=np.int32) - lo)  # rank of each function in its own run
        # nc x the rank of local function j in the row of local function i, per element,
        # on the axes (element, i, j) of direction d; the last direction's j carries k too
        rank = nc * (local[:, None, :] - lo[local][:, :, None])
        if d == nd - 1:
            rank = (rank[..., None] + comp).reshape(rank.shape[0], rank.shape[1], -1)
        shape = [1] * (3 * nd)
        shape[d], shape[nd + d], shape[2 * nd + d] = rank.shape
        offset = offset * count[local].reshape(shape[: 2 * nd] + [1] * nd) + rank.reshape(shape)
    dofs = _element_dofs(space)
    ne, nloc = dofs.shape
    m = nloc * nc
    count = functools.reduce(np.multiply.outer, counts).ravel()  # coupled functions per basis row
    own = np.zeros((), dtype=np.int32)
    for d in range(nd):
        own = own[..., None] * counts[d] + owns[d]
    # dof row b * nc + i starts at its diagonal, nc x the rank of b in its row plus i, and
    # holds the nc components of each function coupled to b from there on
    diag = nc * own.reshape(-1, 1) + comp
    length = nc * count[:, None] - diag  # (basis row, i)
    indptr = np.zeros(length.size + 1, dtype=np.int32)
    np.cumsum(length, out=indptr[1:])
    shift = indptr[:-1] - diag.ravel()  # entry at position p of the full row sits at shift + p
    # element entry (a i, b k), b k >= a i, sits at the shift of dof row (a, i) plus nc x the rank of b, plus k
    la, lb = np.divmod(_upper_entries(nloc, nc)[0], m)
    row_shift = shift[dofs[:, :, None] * nc + comp].reshape(ne, m)
    slots = np.take(offset.reshape(ne, nloc * m), la // nc * m + lb, axis=1)
    slots += np.take(row_shift, la, axis=1)
    # with its ranks in all directions but the last fixed, a full row's columns are one run
    # of nc x count consecutive indices: runs on a padded (basis row, i, leading ranks) grid.
    # An upper row keeps the runs whose leading ranks come at or after its own in C-order,
    # the one at them from the diagonal on
    start, keep = np.zeros((), dtype=np.int32), np.ones((), dtype=bool)
    lead, own_lead = np.zeros((), dtype=np.int32), np.zeros((), dtype=np.int32)
    for d in range(nd - 1):
        r = np.arange(counts[d].max(), dtype=np.int32)
        shape = [1] * (2 * nd)
        shape[d], shape[nd + 1 + d] = n_basis[d], r.size
        start = start * n_basis[d] + (los[d][:, None] + r).reshape(shape)
        keep = keep & (r < counts[d][:, None]).reshape(shape)
        lead_shape, own_shape = [1] * (2 * nd), [1] * (2 * nd)
        lead_shape[nd + 1 + d], own_shape[d] = r.size, n_basis[d]
        lead = lead * r.size + r.reshape(lead_shape)
        own_lead = own_lead * r.size + owns[d].reshape(own_shape)
    shape = [1] * (2 * nd)
    shape[nd - 1], shape[nd] = n_basis[-1], nc
    cut = (lead == own_lead) * (nc * owns[-1][:, None] + comp).reshape(shape)  # the diagonal's position in its run
    keep = keep & (lead >= own_lead)
    start = nc * (start * n_basis[-1] + los[-1].reshape(shape[:nd] + [1] * nd)) + cut
    grid = n_basis + (nc,) + tuple(int(c.max()) for c in counts[:-1])
    keep = np.broadcast_to(keep, grid)
    start = np.broadcast_to(start, grid)[keep]
    run = np.broadcast_to((nc * counts[-1]).reshape(shape[:nd] + [1] * nd) - cut, grid)[keep]
    end = np.cumsum(run, dtype=np.int32)
    indices = np.repeat(start - end + run, run) + np.arange(int(indptr[-1]), dtype=np.int32)
    for a in (indptr, indices, slots):
        a.flags.writeable = False
    return ScatterPlan(indptr=indptr, indices=indices, slots=slots)


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


def _swap_correction(ke: np.ndarray, w: np.ndarray, c_swap: np.ndarray) -> None:
    """Correct ``ke``, the pair product of ``c_pair + c_swap``, to the pair plus swap terms in place.

    Entry (a i, b k) of an isotropic tangent's element matrices is the
    quadrature sum of ``c_pair w_ai w_bk + c_swap w_ak w_bi``.  Since
    ``w_ak w_bi = w_ai w_bk - (w_ai w_bk - w_ak w_bi)``, one pair product
    with ``c_pair + c_swap`` carries both, less, for each component pair
    i < k, the antisymmetric block ``X = M - M^T`` with
    ``M = sum_q c_swap w_ai w_bk``: X leaves block (i, k) and enters block
    (k, i), and the diagonal blocks need nothing.  ``ke`` is (ce, nloc, d,
    nloc, d).  The Neo-Hookean tangent has w = g F^-1 and (lam, mu - lam
    ln J) x wdet; its mu (g_a . g_b) delta_ik term is added once per patch
    (``PatchQuadrature.grad_data``).
    """
    nd = w.shape[3]
    for i in range(nd - 1):
        cw = (w[..., i] * c_swap[:, :, None]).transpose(0, 2, 1)  # (ce, nloc, nq)
        for k in range(i + 1, nd):
            X = np.matmul(cw, w[..., k])
            X = X - X.transpose(0, 2, 1)
            ke[:, :, i, :, k] -= X
            ke[:, :, k, :, i] += X


def assemble_stiffness(patch: NurbsPatch, mat: LinearMaterial) -> SymmetricCSR:
    """Linear elastic stiffness of the isoparametric displacement space, stored as its upper triangle.

    The material is isotropic, so the kernel needs only its Lame
    parameters: a_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk).
    ``tocsr()`` of the result is the full matrix.
    """
    nd = patch.ndim
    mu, lam = mat.lame()
    plan = scatter_plan(patch)
    data = np.zeros(plan.nnz)

    def upper_rows():
        for block in iter_element_blocks(patch, max(patch.degrees) + 1):
            # P = sum_q wdet g_ai g_bk carries all three terms: lam P, its swap mu P_(ak)(bi),
            # and mu (g_a . g_b) delta_ik from its trace over i = k; they are read at the
            # upper entries only
            P = _pair_products(block.grads_phys, block.wdet)
            ce, nloc = block.dofs.shape
            flat, swap, pair, diag = _upper_entries(nloc, nd)
            ke = lam * np.take(P.reshape(ce, -1), flat, axis=1)
            ke += mu * np.take(P.reshape(ce, -1), swap, axis=1)
            grad = mu * sum(P[:, :, i, :, i] for i in range(nd))
            ke[:, diag] += np.take(grad.reshape(ce, -1), pair[diag], axis=1)
            yield ke

    for start, ke in _in_groups(upper_rows()):
        plan.add(data, start, ke)
    return plan.matrix(data)


@dataclass(frozen=True)
class TraceQuadrature:
    """Gauss data on the elements of a boundary trace.

    The m points are the C-order grid of the per-direction ``abscissae``.
    ``values`` is the (m, n) matrix E of the primal surface basis at the
    points, so the moments integral(N_A f) of a field f sampled there
    are ``values.T @ (f * wmeas)``.
    """

    abscissae: tuple[np.ndarray, ...]  # per surface direction, the Gauss points of all its elements
    weights: np.ndarray  # (m,) gauss weight x parametric span factor
    measure: np.ndarray  # (m,) surface Jacobian
    phys: np.ndarray  # (m, d)
    values: sp.csr_matrix  # (m, n) primal surface basis values

    @property
    def wmeas(self) -> np.ndarray:
        return self.weights * self.measure


def build_trace_quadrature(trace: BoundaryTrace, n_gauss: int) -> TraceQuadrature:
    """Gauss data on the tensor grid of a trace's element Gauss points.

    One value/derivative matrix pair per surface direction gives both the
    basis matrix E and, by sum factorization, the points and measures.
    """
    rule = gauss_rule(n_gauss)
    kvs = trace.space.space.knot_vectors
    gauss = [_gauss_points(kv, rule) for kv in kvs]
    abscissae = tuple(pts.ravel() for pts, _ in gauss)
    mats = [_direction_matrices(kv, z) for kv, z in zip(kvs, abscissae)]
    phys, measure = trace_grid_map(trace, mats)
    return TraceQuadrature(
        abscissae=abscissae,
        weights=functools.reduce(np.multiply.outer, [wts.ravel() for _, wts in gauss]).ravel(),
        measure=measure,
        phys=phys,
        values=grid_basis_matrix([vals for vals, _ in mats], trace.space.weights),
    )


def assemble_load(patch: NurbsPatch, tractions: dict[int, np.ndarray]) -> np.ndarray:
    """Consistent load vector of constant face tractions, keyed by face id.

    A face's share is the moments integral(N_A t) of the traction t over
    its trace, ``E^T (t wmeas)`` with E the trace quadrature's basis matrix,
    added at the face's volume dofs.
    """
    nd = patch.ndim
    F = np.zeros(patch.space.dim * nd)
    for face, traction in tractions.items():
        trace = extract_trace(patch, face)
        tq = build_trace_quadrature(trace, max(patch.degrees) + 1)
        t = np.broadcast_to(np.asarray(traction, dtype=float), (tq.weights.size, nd))
        F.reshape(-1, nd)[trace.dof_map] += tq.values.T @ (t * tq.wmeas[:, None])
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


def dirichlet_on_face(patch: NurbsPatch, face: int, component: int, value: float = 0.0) -> dict[int, float]:
    """Fix one displacement component of every basis function on a face."""
    nd = patch.ndim
    return {int(b) * nd + component: float(value) for b in face_basis_indices(patch, face)}


def _canonical_csr(A) -> sp.csr_matrix:
    """A in CSR with sorted indices and no duplicates; a copy when A is not already so.

    A :class:`SymmetricCSR` gives its full matrix.
    """
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def apply_constraints(K, F: np.ndarray, constraints: dict[int, float]):
    """Symmetric elimination: unit diagonal rows/cols, right-hand side shifted.

    K is a sparse matrix or a :class:`SymmetricCSR`, taken in full; the
    result is a full CSR matrix.  Works on K's CSR slots in O(nnz): the entries of fixed rows and
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
    kept in the (e, a, (q, j)) layout only; ``grad_data`` is the part of
    the tangent that does not depend on the state, up to the factor mu,
    as data of the scatter plan's upper-triangle pattern.
    """

    dofs: np.ndarray  # (ne, nloc) flat basis indices
    gt: np.ndarray  # (ne, nloc, nq * d) physical gradients, _grad_layout
    wdet: np.ndarray  # (ne, nq) quadrature weight x |J|
    grad_data: np.ndarray  # (plan.nnz,) sum_q wdet g_qa . g_qb delta_ik, summed over elements
    plan: ScatterPlan

    @property
    def ndim(self) -> int:
        return self.gt.shape[2] // self.wdet.shape[1]


def patch_quadrature(patch: NurbsPatch) -> PatchQuadrature:
    blocks = iter_element_blocks(patch, max(patch.degrees) + 1)
    parts = [(b.dofs, _grad_layout(b.grads_phys), b.wdet) for b in blocks]
    dofs, gt, wdet = (np.concatenate(p) for p in zip(*parts))
    plan = scatter_plan(patch)
    _, _, pair, diag = _upper_entries(dofs.shape[1], patch.ndim)
    grad_data = np.zeros(plan.nnz)

    def upper_rows():
        size = _chunk(dofs.shape[1], patch.ndim)
        for start in range(0, dofs.shape[0], size):
            chunk = slice(start, start + size)
            k_grad = _grad_products(gt[chunk], wdet[chunk])
            yield np.take(k_grad.reshape(k_grad.shape[0], -1), pair, axis=1) * diag

    for start, rows in _in_groups(upper_rows()):
        plan.add(grad_data, start, rows)
    return PatchQuadrature(dofs=dofs, gt=gt, wdet=wdet, grad_data=grad_data, plan=plan)


@dataclass(frozen=True)
class NeoHookeanState:
    """The residual phase of a Neo-Hookean evaluation at one displacement state.

    ``f_int`` is the internal force; ``J`` and ``Finv`` are det F and F^-1
    at every quadrature point of the patch, all :func:`neo_hookean_tangent`
    needs of the state.
    """

    f_int: np.ndarray  # (n_dofs,)
    J: np.ndarray  # (ne, nq)
    Finv: np.ndarray  # (ne, nq, d, d)


def neo_hookean_residual(quad: PatchQuadrature, mat: NeoHookeanMaterial, u: np.ndarray) -> NeoHookeanState:
    """Internal force at displacement state u, with the kinematics its tangent needs.

    Total Lagrangian: gradients are taken with respect to the reference
    configuration; raises :class:`ElementInversionError` when det F <= 0
    at any quadrature point.
    """
    nd = quad.ndim
    ne, nloc, nqd = quad.gt.shape
    nq = nqd // nd
    u_mat = np.asarray(u, dtype=float).reshape(-1, nd)
    f_int = np.zeros(u_mat.size)
    J = np.empty((ne, nq))
    Finv = np.empty((ne, nq, nd, nd))
    comp = np.tile(np.arange(nd), nloc)

    def element_forces():
        size = _chunk(nloc, nd)
        for start in range(0, ne, size):
            chunk = slice(start, start + size)
            gt, wdet = quad.gt[chunk], quad.wdet[chunk]
            ce = gt.shape[0]
            # F^T = I + H^T in the (e, q, j, i) layout the force product reads, then P^T in place
            Ft = np.matmul(gt.transpose(0, 2, 1), np.take(u_mat, quad.dofs[chunk], axis=0))
            Ft = Ft.reshape(ce, nq, nd, nd)
            Ft.reshape(ce, nq, nd * nd)[:, :, :: nd + 1] += 1.0
            det_and_inverse(Ft.swapaxes(2, 3), J[chunk], Finv[chunk])
            Pt = mat.pk1(Ft, J[chunk], Finv[chunk].swapaxes(2, 3), out=Ft)
            Pt *= wdet[:, :, None, None]
            # f_ai = sum_q,j g_qaj P_qij wdet_q
            yield np.matmul(gt, Pt.reshape(ce, nq * nd, nd)).reshape(ce, -1)

    for start, fe in _in_groups(element_forces()):
        # the dof of every (element, local function, component), in the order of fe
        edofs = np.repeat(quad.dofs[start : start + len(fe)] * nd, nd).reshape(len(fe), -1) + comp
        f_int += np.bincount(edofs.ravel(), weights=fe.ravel(), minlength=f_int.size)
    return NeoHookeanState(f_int=f_int, J=J, Finv=Finv)


def neo_hookean_tangent(
    quad: PatchQuadrature, mat: NeoHookeanMaterial, state: NeoHookeanState
) -> SymmetricCSR:
    """Consistent tangent at the state whose residual phase gave ``state``, stored as its upper triangle.

    dP/dF = mu I (x) I + lam F^-T (x) F^-T + (mu - lam ln J) swap-term: the
    first term is the patch's ``grad_data`` times mu, and the other two are
    contracted per term with w = g F^-1 instead of forming the
    fourth-order tensor.  The tangent of a hyperelastic law is symmetric,
    so the element matrices' upper triangles are all that is scattered;
    ``tocsr()`` of the result is the full matrix.
    """
    nd = quad.ndim
    ne, nloc, nqd = quad.gt.shape
    nq = nqd // nd
    mu, lam = mat.lame()
    data = mu * quad.grad_data

    def upper_rows():
        size = _chunk(nloc, nd)
        for start in range(0, ne, size):
            chunk = slice(start, start + size)
            gt, wdet = quad.gt[chunk], quad.wdet[chunk]
            ce = gt.shape[0]
            w = np.matmul(gt.reshape(ce, nloc, nq, nd).transpose(0, 2, 1, 3), state.Finv[chunk])
            c_swap = (mu - lam * np.log(state.J[chunk])) * wdet
            ke = _pair_products(w, lam * wdet + c_swap)
            _swap_correction(ke, w, c_swap)
            del w  # freed before the scatter's temporaries, which set the peak memory
            yield np.take(ke.reshape(ce, -1), _upper_entries(nloc, nd)[0], axis=1)

    for start, ke in _in_groups(upper_rows()):
        quad.plan.add(data, start, ke)
    return quad.plan.matrix(data)


def neo_hookean_forces(
    patch: NurbsPatch, mat: NeoHookeanMaterial, u: np.ndarray, quad: PatchQuadrature | None = None
):
    """Internal force vector and consistent tangent at displacement state u.

    The two phases :func:`neo_hookean_residual` and
    :func:`neo_hookean_tangent` in one call, the tangent stored as its
    upper triangle (``tocsr()`` is the full matrix); raises
    :class:`ElementInversionError` when det F <= 0 at any quadrature
    point.  ``quad`` is the patch's :func:`patch_quadrature`; it is built
    here when not given.
    """
    if quad is None:
        quad = patch_quadrature(patch)
    state = neo_hookean_residual(quad, mat, u)
    return state.f_int, neo_hookean_tangent(quad, mat, state)
