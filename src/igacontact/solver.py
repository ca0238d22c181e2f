"""Active-set solvers for the mixed contact problem.

The stiffness and the Newton tangent come as their upper triangle
(:class:`~.assembly.SymmetricCSR`), which is all the factor reads, and
are applied from it; ``tocsr()`` gives the full matrix, which only
:func:`saddle_solve` and :func:`~.assembly.apply_constraints` build.
Every linear solve factors the shifted stiffness or tangent once, as a
banded Cholesky factorization ``A = L L^T`` in LAPACK's lower band
storage, in an order taken from the patch's basis grid
(:func:`band_order`), and condenses the active multipliers onto it:
each saddle solve is then a small dense system in the active
multipliers (:class:`_CondensedSaddle`).  The factorization is followed
by two forward sweeps, of the load and of the shift's unit vector, and
each solve by one back sweep for u; the triangular sweeps call LAPACK
directly.  Both drivers set up through one band layout per stored
pattern (:func:`_band_layout`), built once: it splits the constraint dict into
fixed dofs and prescribed values, walks the grid towards the contact
rows the driver expects active (the linear driver's warm set, else the
closest approach; the Newton driver's starting set), so that their
columns of the condensation come last in the band, and keeps the gather
indices, by which a matrix with that pattern goes into the band, and
the coupling as one dense block over the dofs it touches.  Its
``prescribe`` gives the right-hand side of the eliminated system.  One
active-set loop (:func:`_settle_active_set`) serves both drivers: on one
factor it alternates saddle solves (gap pinned to zero on the active
multiplier dofs) with activity updates (:mod:`.contact`), taking each
update's set, until the set is stable and complementarity holds; it
keeps no other state, and a loop that does not settle stops at its cap
with a :class:`SolverError`.  Small deformation runs it once, on the
stiffness.  Large deformation: Newton iterations on the combined
residual, from a given start (a displacement and an active set: the
benchmarks take the coarser level's, nested iteration, or the rest
state) in one step of the whole load, else in load steps from rest;
every unconverged iterate runs the loop on its own tangent's factor; the gap
is linear in u, so the set it settles is exact for the linearization,
and a change of activity costs a condensed solve, not a tangent and a
factorization.  Each Newton iterate evaluates the residual first, and
the tangent is assembled and factored, through the one layout of the tangent's fixed pattern, only when the
iterate is not converged.  The factor of a step's last Newton solve
serves the next step's first, with only its right-hand side replaced.
A correction keeps the factor of the one before it, once, when Newton's
quadratic rate predicts that a chord step on it converges (residual r,
r_prev where that factor was built: ``kappa r^2 / r_prev <= _NEWTON_TOL *
ref``, the convergence test's bound), as a fresh factor then buys
nothing; kappa, 1 at the start of a solve, is the largest factor by
which a kept correction of the solve has missed that prediction.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    SymmetricCSR,
    _canonical_csr,
    apply_constraints,  # noqa: F401  not called here, but perfbench/tracer.py wraps this name
    assemble_load,
    neo_hookean_forces,  # noqa: F401  not called here, but perfbench/tracer.py wraps this name
    neo_hookean_residual,
    neo_hookean_tangent,
    patch_quadrature,
)
from .contact import _GAP_TOL, ContactState, active_set_update, complementarity_ok
from .materials import ElementInversionError, NeoHookeanMaterial


class SolverError(RuntimeError):
    """Linear-solve failure or iteration-cap overrun."""


class _LoadIndependentError(SolverError):
    """A load step's first factorization, of the tangent at its start, failed: no smaller step changes that tangent."""


_MAX_ACTIVE_SET_ITERS = 60  # saddle solves of one active-set loop
_MAX_NEWTON_ITERS = 40  # Newton iterates of one load step
_NEWTON_TOL = 1e-10  # |r_u| <= _NEWTON_TOL * ref is converged, ref as in _newton_contact_step


@dataclass(frozen=True)
class IterationRecord:
    step: int
    iteration: int
    n_active: int
    residual_u: float
    residual_lam: float
    changed: int


@dataclass
class SolutionBundle:
    """Converged displacement/multiplier pair with the iteration history."""

    u: np.ndarray
    lam: np.ndarray
    active: np.ndarray
    weighted_gap: np.ndarray
    measures: np.ndarray
    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def state(self) -> ContactState:
        return ContactState(
            lam=self.lam, weighted_gap=self.weighted_gap, active=self.active, measures=self.measures
        )

    def log_text(self) -> str:
        lines = ["step iter n_active residual_u residual_lam changed_K"]
        for r in self.iterations:
            lines.append(
                f"{r.step} {r.iteration} {r.n_active} {r.residual_u:.6e} "
                f"{r.residual_lam:.6e} {r.changed}"
            )
        return "\n".join(lines) + "\n"


def saddle_solve(K: sp.spmatrix, F: np.ndarray, B_active: sp.spmatrix, g=None):
    """Direct solve of ``[[K, B^T], [B, 0]] [u, lam] = [F, g]``.

    With no active rows this reduces to ``K u = F``.  The factorization
    residual is checked against the right-hand side.
    """
    n = F.size
    nK = B_active.shape[0]
    if nK == 0:
        mat = _canonical_csr(K).tocsc()
        rhs = F
    else:
        mat = _saddle_matrix(K, B_active)
        rhs = np.concatenate([F, np.zeros(nK) if g is None else np.asarray(g, dtype=float)])
    try:
        lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(_diagnose_saddle_failure(K, B_active, exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SolverError(_diagnose_saddle_failure(K, B_active, "non-finite solution"))
    rhs_norm = np.linalg.norm(rhs)
    res = np.linalg.norm(mat @ x - rhs)
    # numerically singular factorizations leave O(1) relative residuals
    if res > 1e-4 * max(rhs_norm, 1e-300):
        raise SolverError(f"saddle solve residual {res:.3e} exceeds 1e-4 * |rhs|")
    return x[:n], x[n:]


def _saddle_matrix(K, B) -> sp.csc_matrix:
    """``[[K, B^T], [B, 0]]`` in CSC, the arrays ``sp.bmat`` gives, without its COO round trip.

    The first n columns are the CSC of the stacked rows ``[K; B]``; the
    last m, ``[B^T; 0]``, have B's CSR arrays as their CSC arrays.  K and
    B are taken in canonical form (sorted, duplicates summed), as bmat
    leaves them; a :class:`~.assembly.SymmetricCSR` is taken in full.
    """
    K, B = _canonical_csr(K), _canonical_csr(B)
    left = sp.vstack([K, B], format="csr").tocsc()  # CSR blocks stack by concatenation
    right = sp.csc_matrix((B.data, B.indices, B.indptr), shape=(left.shape[0], B.shape[0]))
    return sp.hstack([left, right], format="csc")


def _diagnose_saddle_failure(K, B_active, exc) -> str:
    nK = B_active.shape[0]
    if nK:
        Bd = B_active.toarray() if sp.issparse(B_active) else B_active
        rank = np.linalg.matrix_rank(Bd) if min(Bd.shape) else 0
        if rank < nK:
            sv = sla.svdvals(Bd)
            bad = int(nK - rank)
            return (
                f"rank-deficient active coupling block: rank {rank} < {nK} rows "
                f"({bad} dependent active dofs, smallest singular values {sv[-bad:]})"
            )
    return f"singular stiffness block: constraint deficiency ({exc})"


@dataclass(frozen=True)
class SmallDeformationProblem:
    """Assembled data of one linear contact solve.

    ``stiffness`` is stored as its upper triangle (``tocsr()`` gives the
    full matrix).  ``constraints`` maps a dof to its prescribed value.  ``initial_active``
    optionally seeds the active set and the band walk (a warm start: the
    benchmarks give the coarsest level the analytic mask and every finer
    level the coarser level's contact zone inside it); the loop still
    iterates to the same optimality conditions.
    """

    patch: object
    stiffness: SymmetricCSR
    load: np.ndarray
    constraints: dict[int, float]
    coupling: sp.csr_matrix
    gap_integrals: np.ndarray  # integral(B_K g0)
    measures: np.ndarray
    initial_active: np.ndarray | None = None


# a singular K with no active row left reads about 1e-16; solvable systems read
# 2e-5 and above up to 75,272 dofs (hertz2d p=0.01), falling about 2x per level
_RCOND_MIN = 1e-10


def band_order(shape, n_comp: int, last=()) -> np.ndarray:
    """Dof order in which the stiffness of a tensor-grid patch is banded.

    Entry k is the dof placed k-th.  The basis grid (flat C-order
    indices of shape ``shape``) is walked with its axes by decreasing
    length, the longest slowest (ties keep the earlier axis slower), and
    the ``n_comp`` components of a function stay adjacent.  With degree p
    in every direction the half-bandwidth is ``n_comp (p sum_a stride_a + 1) - 1``
    over the walked axes' strides, the smallest any axis order gives.
    Each axis is walked towards the mean grid position of the basis
    functions ``last`` (flat indices), so that they come as late as the
    walk allows; the direction leaves the bandwidth unchanged.
    """
    grid = np.arange(int(np.prod(shape)), dtype=np.int32).reshape(shape)
    if len(last):
        centre = np.mean(np.unravel_index(np.asarray(last), shape), axis=1)
        grid = np.flip(grid, axis=tuple(np.flatnonzero(centre < (np.array(shape) - 1) / 2)))
    grid = grid.transpose(np.argsort([-n for n in shape], kind="stable"))
    return (grid.reshape(-1, 1) * n_comp + np.arange(n_comp, dtype=np.int32)).ravel()


def _band_halfwidth(shape, n_comp: int, degree: int) -> int:
    """Half-bandwidth of a degree-``degree`` stiffness in :func:`band_order`, ``n_comp (p sum_a stride_a + 1) - 1``."""
    strides = np.cumprod([1] + sorted(shape)[:-1])  # the walk's strides, fastest axis first
    return int(n_comp * (degree * strides.sum() + 1) - 1)


@dataclass(frozen=True)
class _BandLayout:
    """What every condensed solve on one stored pattern shares, built once by :func:`_band_layout`.

    K is a :class:`~.assembly.SymmetricCSR`, the upper triangle U of a
    symmetric matrix.  The constraint dict is split into ``fixed`` dofs
    and their prescribed ``values``.  ``fill(data)`` is a gather: the
    lower band, in LAPACK storage ``ab[r - c, c]`` (the diagonal in row
    0), of ``P apply_constraints(K) P^T`` for the K with that pattern and
    data, where ``P`` puts dof ``order[k]`` in row k and the fixed rows
    and columns are dropped and get a unit diagonal; each stored entry
    goes to the band once, at its band rows in increasing order.  Its
    gather indices ``src`` and ``dest`` are two per stored entry: the
    linear driver fills once and then drops them (None), the Newton
    driver refills and keeps them.  :meth:`matvec` and :meth:`prescribe`
    apply K as ``U x + U^T x - diag(U) x`` (``K @ x``), so the residual
    checks use exactly the matrix that is factored.  The coupling B is kept as one dense block over the dofs
    where it has a stored entry (``cols``): ``B @ x`` is ``Bc @ x[cols]``
    and ``B^T lam`` is ``scatter(Bc^T lam)``; ``Bhc`` is the block of B
    with the fixed columns zeroed, and ``first`` is the first band row of
    every one of its rows.  ``i`` is the kernel dof of the shift (the dof
    of the largest column of ``Bhc``).
    """

    order: np.ndarray  # (n,) int32, the dof placed k-th
    pos: np.ndarray  # (n,) int32, band row of every dof
    u: int  # half-bandwidth
    src: np.ndarray | None  # data positions of the stored entries that go to the band
    dest: np.ndarray | None  # their flat positions in the C-order transpose, shape (n, u + 1), of the band
    fixed: np.ndarray  # (k,) int64, the constrained dofs in the constraint dict's order
    values: np.ndarray  # (k,) their prescribed values
    unit: np.ndarray  # flat positions of the fixed dofs' unit diagonals
    free: np.ndarray | None  # free-dof mask; None when nothing is fixed
    cols: np.ndarray  # sorted dofs where B has a stored entry
    bpos: np.ndarray  # their band rows, pos[cols]
    Bc: np.ndarray  # dense B[:, cols]
    Bhc: np.ndarray  # Bc with the fixed columns zeroed (Bc itself when none is coupled)
    first: np.ndarray  # first band row where each row of Bhc is nonzero (n when none)
    i: int

    def fill(self, data: np.ndarray) -> np.ndarray:
        n, w = self.order.size, self.u + 1
        abT = np.zeros(n * w)
        abT[self.dest] = np.take(data, self.src)
        abT[self.unit] = 1.0
        return abT.reshape(n, w).T

    def matvec(self, K: SymmetricCSR, x: np.ndarray) -> np.ndarray:
        """``apply_constraints(K) @ x``: fixed rows and columns act as the identity."""
        if self.free is None:
            return K @ x
        return np.where(self.free, K @ np.where(self.free, x, 0.0), x)

    def prescribe(self, rhs: np.ndarray, K: SymmetricCSR, x: np.ndarray) -> np.ndarray:
        """``rhs - K x`` on the free rows and ``x`` on the fixed ones; K is not read when x is zero.

        For an x that is zero on the free dofs, the eliminated system
        (:meth:`fill`) with this right-hand side is solved by the y that
        equals x on the fixed dofs and solves ``K y = rhs`` on the free rows.
        """
        out = rhs - K @ x if x.any() else rhs.copy()
        out[self.fixed] = x[self.fixed]
        return out

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """The n-vector that is ``values`` on ``cols`` and zero elsewhere."""
        out = np.zeros(self.pos.size)
        out[self.cols] = values
        return out

    def band_rows(self, rows: np.ndarray, r0: int) -> np.ndarray:
        """``(Bhat P^T)[rows, r0:]^T``: those rows of Bhc placed in band order from band row r0 on.

        Entries before r0 must be zero.
        """
        R = np.zeros((self.pos.size - r0, rows.size))
        late = self.bpos >= r0
        R[self.bpos[late] - r0] = self.Bhc[rows][:, late].T
        return R


def _band_layout(indptr, indices, shape, n_comp: int, B: sp.csr_matrix, constraints, expected) -> _BandLayout:
    """The :class:`_BandLayout` of a stored upper-triangle pattern and coupling B.

    ``indptr`` and ``indices`` are a :class:`~.assembly.SymmetricCSR`'s
    (sorted, no duplicates).  A stored entry (r, c) of two free dofs goes
    to band rows ``(min, max)`` of ``(pos[r], pos[c])``; the fixed dofs
    take band row -1, so one comparison keeps the free pairs.

    The dofs are those of a tensor-grid patch with basis grid ``shape`` and
    ``n_comp`` components; ``constraints`` maps a dof to its prescribed
    value.  The dof order is :func:`band_order` walked towards the
    functions that the rows ``expected`` (a mask) of Bhc couple to: a
    column of ``W = L^-1 P B^T`` is forward-substituted from its first
    nonzero row to the end, so the rows expected active go last.
    """
    n = indptr.size - 1
    fixed = np.fromiter(constraints.keys(), dtype=np.int64, count=len(constraints))
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    B = B.tocsr()
    cols = np.unique(B.indices)
    Bc = B[:, cols].toarray()
    Bhc = Bc if free[cols].all() else np.where(free[cols], Bc, 0.0)
    order = band_order(shape, n_comp, last=np.unique(cols[(Bhc[expected] != 0).any(axis=0)] // n_comp))
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    # the per-entry arrays are reused in place and freed early: at 149,768 dofs each is 15 MB,
    # and what they leave on the heap stays under the band for the rest of the solve
    band = np.where(free, pos, np.int32(-1))
    r, c = np.repeat(band, np.diff(indptr)), np.take(band, indices)
    lo = np.minimum(r, c)
    width = np.maximum(r, c, out=c)
    del r
    keep = lo >= 0
    lo, width = lo[keep], width[keep]
    width -= lo  # hi - lo
    u = int(width.max()) if width.size else 0
    index = np.int32 if n * (u + 1) < 2**31 else np.int64
    src = np.flatnonzero(keep).astype(index)
    del keep
    dest = lo.astype(index)
    dest *= u + 1
    dest += width  # the upper entry (lo, hi) stored as its transpose (hi, lo)
    bpos = pos[cols]
    weight = np.zeros(n)
    weight[cols] = (Bhc * Bhc).sum(axis=0)
    return _BandLayout(
        order=order,
        pos=pos,
        u=u,
        src=src,
        dest=dest,
        fixed=fixed,
        values=np.fromiter(constraints.values(), dtype=float, count=fixed.size),
        unit=pos[fixed].astype(index) * (u + 1),
        free=free if fixed.size else None,
        cols=cols,
        bpos=bpos,
        Bc=Bc,
        Bhc=Bhc,
        first=np.where(Bhc != 0, bpos, n).min(axis=1, initial=n),
        i=int(np.argmax(weight)),
    )


def _band_sweep(cb: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """``L^-1 b`` (``trans="N"``) or ``L^-T b`` (``"T"``) for a lower band factor L in LAPACK storage."""
    x, info = sla.lapack.dtbtrs(cb, b, uplo="L", trans=trans)
    if info != 0 or not np.all(np.isfinite(x)):
        raise SolverError(f"banded triangular solve failed (info {info}) or gave a non-finite result")
    return x


# batches of W columns up to this width take one dtbtrs sweep, wider ones the slab loop.  On the lower
# factor, one OpenBLAS thread, the sweep took 0.1-0.65x the loop's time up to 8 columns at half-bandwidths
# 25-205; at 12, 0.3-0.6x (u 61-109) and 0.94-1.2x (u 205); at 16, 0.4-0.7x and 1.3-1.75x; at 24 and more,
# 1.5-6x at u 205-781.  The benchmark batches are 1-12 or 22 and more columns wide, so 12-21 all split them alike
_SWEEP_COLUMNS = 16


def _forward_substitution(cb: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``L^-1 R`` in place of R, for a lower band factor L in LAPACK storage.

    The columns of R must come in order of their first nonzero row.  A
    slab of u rows of L couples only to the slab before it, through an
    upper triangular u x u block of L, so each slab is one triangular
    product (BLAS ``dtrmm``, which reads only that triangle of the band's
    window) and one dense triangular solve (LAPACK ``dtrtrs``), and it
    solves only the columns that have started: the rest of it is zero in
    R and in the result.
    """
    n, m = R.shape
    u = cb.shape[0] - 1
    s = max(u, 1)
    flat = cb.T.reshape(-1)  # L[r, c] = cb[r - c, c] sits at offset r + u c
    step = flat.itemsize

    def window(r0, c0, rows, cols):
        """L[r0:r0 + rows, c0:c0 + cols] where inside the band, other band entries elsewhere."""
        return np.lib.stride_tricks.as_strided(
            flat[r0 + u * c0 :], shape=(rows, cols), strides=(step, u * step)
        )

    upper = ~np.tri(s, k=-1, dtype=bool)  # the band part of a block L[a:a + s, a - s:a] when u >= 1
    nz = R != 0
    first = np.where(nz.any(axis=0), nz.argmax(axis=0), n)
    if np.any(np.diff(first) < 0):
        raise ValueError("columns must come in order of their first nonzero row")
    trtrs, trmm = sla.lapack.dtrtrs, sla.blas.dtrmm
    a0 = first[0] - first[0] % s if m else n  # earlier slabs are zero in every column
    for a in range(a0, n, s):
        h = min(s, n - a)
        k = int(np.searchsorted(first, a + h))
        rhs = R[a : a + h, :k]
        if a > a0 and u > 0:
            if h == s:
                # the s x s window is F-contiguous (leading dimension u = s): no copy
                rhs -= trmm(1.0, window(a, a - s, s, s), R[a - s : a, :k], lower=0, trans_a=0)
            else:  # the last, partial slab
                rhs -= np.where(upper[:h], window(a, a - s, h, s), 0.0) @ R[a - s : a, :k]
        # the diagonal block is read as lower triangular; its band holds all of it
        x, info = trtrs(window(a, a, h, h), rhs, lower=1, trans=0)
        if info != 0:
            raise SolverError(f"triangular solve failed at band row {a} (info {info})")
        R[a : a + h, :k] = x
    return R


class _CondensedSaddle:
    """Saddle solves ``[[K, B_A^T], [B_A, 0]] [u, lam] = [F, g]`` on one factorization of K.

    K, a :class:`~.assembly.SymmetricCSR`, is read through ``layout``
    (:func:`_band_layout`, built for K's stored pattern), which eliminates the layout's fixed dofs as
    :func:`apply_constraints` does, in the factor and in the residual
    check alike; ``B`` is the layout's coupling with the fixed columns
    zeroed, kept as one dense block.  K may have one kernel mode, a
    rigid translation normal to the plane, which the active rows remove.
    It is removed from the factorization exactly: with ``i`` the layout's
    kernel dof and ``rho = max|diag K|``, ``K~ = K + rho e_i e_i^T`` is
    factored and ``beta = rho u_i`` is one extra unknown, so that
    ``K u = K~ u - beta e_i``.  ``K~`` is symmetric positive definite; it
    is factored as ``P K~ P^T = L L^T`` by banded Cholesky in the
    layout's dof order, in LAPACK's lower band storage.  Two forward
    sweeps give ``z_F = L^-1 P F`` and ``z_e = L^-1 e_p`` with ``p =
    pos[i]`` (zero above row p); with ``W = L^-1 P B^T``, an active set A
    leaves the dense bordered system in ``(lam_A, beta)``

        [[-W_A^T W_A, W_A^T z_e], [-rho W_A^T z_e, rho z_e^T z_e - 1]]
        = [g - W_A^T z_F, -rho z_e^T z_F]

    (``B_A K~^-1 e_i = W_A^T z_e``, ``(K~^-1)_ii = z_e^T z_e``), and one
    back sweep gives ``u = P^T L^-T (z_F + beta z_e - W_A lam_A)``.  A
    column of W is solved the first time its dof is active, one blocked
    forward substitution per batch, and its Gram products with the
    earlier columns, ``z_F`` and ``z_e`` are kept.  :meth:`set_rhs`
    replaces F on the same factor: one forward sweep for ``z_F``, and
    ``W^T z_F`` re-read over the kept columns.  Each solve checks its
    residual and keeps the norm of its u rows, ``|K u + B_A^T lam - F|``,
    as ``residual_u``.
    """

    def __init__(self, K: SymmetricCSR, F: np.ndarray, layout: _BandLayout):
        n = F.size
        self.K, self.layout = K, layout
        ab = layout.fill(K.data)
        self.rho = float(np.abs(ab[0]).max())
        p = int(layout.pos[layout.i])
        ab[0, p] += self.rho
        try:
            self.cb = sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"shifted stiffness K + rho e_i e_i^T is not positive definite ({exc}): "
                "an indefinite tangent or a constraint deficiency"
            ) from exc
        self.p = p
        e = np.zeros(n - p)
        e[0] = 1.0
        self.z_e = np.zeros(n)
        self.z_e[p:] = _band_sweep(self.cb[:, p:], e, "N")
        self.x_ei = self.z_e[p:] @ self.z_e[p:]  # (K~^-1)_ii
        self.col = np.full(layout.Bhc.shape[0], -1)  # Gram index per multiplier dof
        self.W: list[tuple[int, int, np.ndarray]] = []  # (first row, first Gram index, rows of W) per batch
        self.G = np.empty((0, 0))  # Gram matrix W^T W of the solved columns
        self.Wz_e = np.empty(0)  # W^T z_e per solved column
        self.set_rhs(F)

    def set_rhs(self, F: np.ndarray) -> None:
        """Make F the right-hand side of the next solves, on the same factor and W columns."""
        self.F = F
        self.z_F = _band_sweep(self.cb, F[self.layout.order], "N")
        self.y_Fi = self.z_e[self.p :] @ self.z_F[self.p :]  # (K~^-1 F)_i
        # W^T z_F per solved column, batch by batch in Gram order
        self.Wz_F = np.concatenate([np.empty(0)] + [Wn.T @ self.z_F[r0:] for r0, _, Wn in self.W])

    def _add_columns(self, new: np.ndarray) -> None:
        first = self.layout.first[new]
        new = new[np.argsort(first, kind="stable")]
        r0 = int(first.min())  # rows before it are zero in every new column of W
        R = self.layout.band_rows(new, r0)
        if new.size <= _SWEEP_COLUMNS:
            Wn = _band_sweep(self.cb[:, r0:], R, "N")
        else:
            Wn = _forward_substitution(self.cb[:, r0:], R)
        # Gram products with each earlier batch, over the rows where both can be nonzero
        cross = [Wo[max(r0 - ro, 0) :].T @ Wn[max(ro - r0, 0) :] for ro, _, Wo in self.W]
        k = self.G.shape[0]
        G = np.empty((k + new.size,) * 2)
        G[:k, :k] = self.G
        G[:k, k:] = np.vstack(cross) if cross else np.empty((0, new.size))
        G[k:, :k] = G[:k, k:].T
        G[k:, k:] = Wn.T @ Wn
        self.G = G
        self.Wz_F = np.append(self.Wz_F, Wn.T @ self.z_F[r0:])
        self.Wz_e = np.append(self.Wz_e, Wn.T @ self.z_e[r0:])
        self.col[new] = k + np.arange(new.size)
        self.W.append((r0, k, Wn))

    def solve(self, act: np.ndarray, g: np.ndarray):
        new = act[self.col[act] < 0]
        if new.size:
            self._add_columns(new)
        c = self.col[act]
        nA, rho, layout = act.size, self.rho, self.layout
        B_A = layout.Bhc[act]
        M = np.empty((nA + 1, nA + 1))
        M[:nA, :nA] = -self.G[np.ix_(c, c)]
        M[:nA, nA] = self.Wz_e[c]
        M[nA, :nA] = -rho * self.Wz_e[c]
        M[nA, nA] = rho * self.x_ei - 1.0
        rhs = np.append(g - self.Wz_F[c], -rho * self.y_Fi)
        # rcond relative to the entries before the cancellation in rho x_ei - 1:
        # with a singular K and no row that removes its kernel mode, that entry
        # is rounding noise while the full-system residual stays small
        mag = np.abs(M)
        mag[nA, nA] = abs(rho * self.x_ei) + 1.0
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise SolverError(_diagnose_saddle_failure(self.K, B_A, exc)) from exc
        rcond = 1.0 / max((np.abs(Minv) @ mag).sum(axis=1).max(), 1e-300)
        if not rcond > _RCOND_MIN:
            raise SolverError(
                _diagnose_saddle_failure(self.K, B_A, f"condensed system rcond {rcond:.1e}")
            )
        z = Minv @ rhs
        lam, beta = z[:nA], z[nA]
        coef = np.zeros(self.G.shape[0])  # lam_A per solved column
        coef[c] = lam
        v = self.z_F + beta * self.z_e
        for r0, k0, Wn in self.W:
            part = coef[k0 : k0 + Wn.shape[1]]
            if part.any():
                v[r0:] -= Wn @ part
        if not np.all(np.isfinite(v)):
            raise SolverError(_diagnose_saddle_failure(self.K, B_A, "non-finite solution"))
        u = np.empty_like(v)
        u[layout.order] = _band_sweep(self.cb, v, "T")
        self.residual_u = np.linalg.norm(layout.matvec(self.K, u) + layout.scatter(B_A.T @ lam) - self.F)
        res = np.hypot(self.residual_u, np.linalg.norm(B_A @ u[layout.cols] - g))
        rhs_norm = np.hypot(np.linalg.norm(self.F), np.linalg.norm(g))
        if res > 1e-4 * max(rhs_norm, 1e-300):
            raise SolverError(f"saddle solve residual {res:.3e} exceeds 1e-4 * |rhs|")
        return u, lam


def _settle_active_set(saddle, active, gap, g, measures, records=None):
    """Active-set loop of one linear(ized) contact problem on the factor of ``saddle``.

    ``gap`` holds the gap integrals where the unknown x that ``saddle``
    solves for is zero, ``g`` the right-hand side of every gap row
    (``B x = g`` on the active rows), and ``active`` the starting set.
    Each iteration solves on the kept factor, takes the set that
    :func:`active_set_update` gives for the solved pair (lam, weighted gap
    ``(gap + B x) / measures``), and stops when that set is the solved one
    and :func:`complementarity_ok` holds.  When the stiffness alone is
    singular with no active row, the dof closest to contact is seeded.
    Each iteration is appended to ``records`` when it is given.  Returns x
    and the settled :class:`ContactState`; a loop still unsettled after
    ``_MAX_ACTIVE_SET_ITERS`` iterations raises :class:`SolverError` with
    the size of the last update's set and the number of dofs it changed.
    """
    layout = saddle.layout
    active = active.copy()
    seeded = False
    changed = 0
    for it in range(1, _MAX_ACTIVE_SET_ITERS + 1):
        act_idx = np.flatnonzero(active)
        try:
            x, lam_act = saddle.solve(act_idx, g[act_idx])
        except SolverError:
            if act_idx.size == 0 and not seeded:
                # tangent-plane start: every weighted gap is positive but the
                # stiffness alone is singular; seed the closest dof
                active[int(np.argmin(-g / measures))] = True
                seeded = True
                continue
            raise
        lam = np.zeros(active.size)
        lam[act_idx] = lam_act
        wg = (gap + layout.Bc @ x[layout.cols]) / measures
        state = ContactState(lam=lam, weighted_gap=wg, active=active, measures=measures)
        new_state, changed = active_set_update(state)
        if records is not None:
            res_lam = np.abs(wg[act_idx] * measures[act_idx]).max() if act_idx.size else 0.0
            records.append(
                IterationRecord(
                    step=0,
                    iteration=it,
                    n_active=int(active.sum()),
                    residual_u=saddle.residual_u,
                    residual_lam=res_lam,
                    changed=changed,
                )
            )
        if changed == 0 and complementarity_ok(new_state):
            return x, new_state
        active = new_state.active
    raise SolverError(
        f"active-set loop did not converge in {_MAX_ACTIVE_SET_ITERS} iterations: "
        f"last |A| {int(active.sum())}, last update changed {changed} dofs"
    )


def solve_small_deformation(problem: SmallDeformationProblem) -> SolutionBundle:
    """The active-set loop (:func:`_settle_active_set`) on the linear saddle problem.

    The assembled stiffness is factored once per call through a band layout that
    eliminates the constrained dofs, with no constrained copy of K; each iteration
    solves a dense system in its active multipliers (:class:`_CondensedSaddle`).
    """
    K = problem.stiffness
    B, measures, warm, patch = problem.coupling, problem.measures, problem.initial_active, problem.patch
    # the band walks towards the warm set, else the rows in contact before the prescribed
    # displacements act, else the closest approach
    wg = problem.gap_integrals / measures
    expected = warm if warm is not None else wg <= _GAP_TOL
    if not expected.any():
        expected = wg == wg.min()
    shape = patch.space.space.n_basis
    layout = _band_layout(K.indptr, K.indices, shape, patch.ndim, B, problem.constraints, expected)
    u_fix = np.zeros(K.shape[0])
    u_fix[layout.fixed] = layout.values
    gap0 = problem.gap_integrals + B @ u_fix
    active = warm.copy() if warm is not None else gap0 / measures <= _GAP_TOL
    records: list[IterationRecord] = []
    saddle = _CondensedSaddle(K, layout.prescribe(problem.load, K, u_fix), layout)
    # K is factored once, so the gather indices are not needed past its fill
    saddle.layout = layout = replace(layout, src=None, dest=None)
    u, state = _settle_active_set(saddle, active, problem.gap_integrals, -gap0, measures, records)
    return SolutionBundle(
        u=u,
        lam=state.lam,
        active=state.active,
        weighted_gap=state.weighted_gap,
        measures=measures,
        iterations=records,
    )


@dataclass(frozen=True)
class LargeDeformationProblem:
    """Data of a finite-deformation contact run (dead loads, fixed plane normal)."""

    patch: object
    material: NeoHookeanMaterial
    tractions: dict[int, np.ndarray]
    constraints: dict[int, float]  # values at full load
    coupling: sp.csr_matrix
    gap_integrals: np.ndarray
    measures: np.ndarray


def rest_start(problem: LargeDeformationProblem):
    """u = 0 and its active set: the dofs in contact there, else the closest one."""
    wg0 = problem.gap_integrals / problem.measures
    active = wg0 <= _GAP_TOL
    if not active.any():
        active[int(np.argmin(wg0))] = True
    return np.zeros(problem.patch.space.dim * problem.patch.ndim), active


def solve_large_deformation(problem: LargeDeformationProblem, n_steps: int = 10, start=None) -> SolutionBundle:
    """Incremental loading with Newton iterations, the active set settled on each Newton factor.

    Both tractions and prescribed displacements are scaled by the load
    factor.  With no ``start`` the load goes on in ``n_steps`` equal
    steps from the rest state (:func:`rest_start`).  A ``start`` ``(u0,
    active0)`` begins at load factor 0 with u = u0, lam = 0 and the set
    ``active0``, and takes the whole load in one step; the benchmarks
    give every level one, the coarser level's converged displacement,
    prolongated, and its contact zone (nested iteration), or the rest
    state.  If that step fails, the solve steps the load up from rest
    as with no ``start``.  Otherwise element inversion inside a step, a
    failed solve or an active-set loop that does not settle triggers
    step halving (up to 20 halvings), the retry starting where the last
    step converged; after a halving the step doubles back up to ``1 /
    n_steps``.  A step whose first factorization, of the tangent where it
    starts, fails raises at once: the tangent does not depend on the load
    factor, so a halved step would factor the same matrix.
    The patch's element data and scatter plan are
    built once and reused for every tangent of the solve, and so is the
    band layout of the tangent's pattern: each tangent goes into the
    banded factor by one gather.  A step starts at the u where the last
    step converged, so the residual phase its convergence check evaluated
    there is carried into its first iteration, and so is the last
    :class:`_CondensedSaddle` of that step: its factor, of the tangent
    one or two Newton corrections before u, serves the first solve.
    Neither is kept past that step, so a retry after a halving, which
    starts from the same u, evaluates and factors afresh.
    """
    patch = problem.patch
    quad = patch_quadrature(patch)
    nd = patch.ndim
    F_full = assemble_load(patch, problem.tractions)
    B, measures = problem.coupling, problem.measures

    lam = np.zeros(B.shape[0])
    dt_base = 1.0 / n_steps
    if start is None:
        u, active = rest_start(problem)
        dt = dt_base
    else:
        u, active = start
        dt = 1.0
    shape = patch.space.space.n_basis
    layout = _band_layout(quad.plan.indptr, quad.plan.indices, shape, nd, B, problem.constraints, active)

    records: list[IterationRecord] = []
    # (residual state at u, saddle or None) in a list the step takes it from: the
    # step drops it once used, and a retry after a halving evaluates it again
    carried = [(neo_hookean_residual(quad, problem.material, u), None)]
    kappa = 1.0  # the kept-factor prediction's calibration, carried from step to step
    t = 0.0
    halvings = 0
    step = 0
    while t < 1.0 - 1e-12:
        t_try = min(t + dt, 1.0)
        step += 1
        if not carried:
            carried.append((neo_hookean_residual(quad, problem.material, u), None))
        try:
            u, lam, active, wg, kappa, *carried, recs = _newton_contact_step(
                problem, quad, u, lam, active, layout, F_full * t_try, t_try, step, kappa, carried.pop()
            )
        except (ElementInversionError, SolverError) as exc:
            step -= 1
            if start is not None:
                # the whole load from the start failed: step it up from rest instead
                u, active = rest_start(problem)
                start, dt = None, dt_base
                continue
            if isinstance(exc, _LoadIndependentError):
                raise SolverError(
                    f"the tangent at load factor {t:.6g} does not factor, "
                    f"and a smaller step factors the same one: {exc}"
                ) from None
            halvings += 1
            if halvings > 20:
                raise SolverError("load step halved more than 20 times without progress")
            dt *= 0.5
            continue
        records.extend(recs)
        t = t_try
        halvings = 0
        dt = min(2.0 * dt, dt_base)  # recover after halvings
    return SolutionBundle(
        u=u,
        lam=lam,
        active=active,
        weighted_gap=wg,
        measures=measures,
        iterations=records,
    )


def _keeps_factor(res: float, factored_at: float, tol: float, kappa: float) -> bool:
    """Whether the correction at residual norm ``res`` keeps the factor built at ``factored_at``.

    Newton's quadratic rate predicts ``res^2 / factored_at`` after a chord
    step on that factor, up to the factor ``kappa`` >= 1 by which the
    solve's kept corrections have missed it so far; the factor is
    kept when ``kappa res^2 / factored_at`` is within ``tol``.  A factor
    built at zero residual (a displacement-driven start) or kept once (0) never is.
    """
    return factored_at > 0.0 and kappa * res * res / factored_at <= tol


def _newton_contact_step(problem, quad, u0, lam0, active0, layout, F_t, t, step, kappa, start):
    """Newton iterations of one load step from ``u0`` to load factor ``t``.

    ``F_t`` is the load at ``t``, and the prescribed displacements there
    are ``t`` times the layout's values.  ``start`` is the pair ``(residual, saddle)``: the residual phase at
    ``u0`` and a :class:`_CondensedSaddle` of the previous step or None.
    Every iterate evaluates the residual (:func:`neo_hookean_residual`),
    and one that is not converged assembles the tangent from it and
    factors it.  On that factor it settles the active set of its
    linearization (:func:`_settle_active_set`): the multipliers are solved
    in total form, ``K_T du + B_A^T lam = F_t - f_int``, with the gap rows
    linearized at u, and activity is decided on the predicted pair
    ``(lam, weighted gap at u + du)``, which is exact because the gap is
    linear in u.  The first solve reuses the factor of ``saddle`` with its
    right-hand side replaced, or factors the tangent at ``u0`` when
    ``saddle`` is None; if that factorization fails, the step raises
    :class:`_LoadIndependentError`.  An iterate is converged when
    ``|r_u| <= _NEWTON_TOL ref``, with ``ref`` the larger of ``|F_t|`` and
    ``|f_int|`` plus, in a step that prescribes an increment, the norm of
    its first solve's right-hand side (``|r| <= tau_r |r_0| + tau_a``,
    Kelley 2003): that scale stays when a push moves the body rigidly,
    with no load and no stress.  A later solve keeps the factor of the one before
    when :func:`_keeps_factor` predicts that a chord step on it converges,
    and else factors the tangent at u.  ``kappa`` calibrates that
    prediction: it is the largest ratio of the residual after a kept
    correction to the predicted one, over the kept corrections of the
    solve so far that did not converge, and 1 before any did.
    Every solve keeps its checks, the residual one against the K its
    factor was built from.  Returns the converged ``(u, lam, active,
    weighted gap)``, the updated ``kappa``, the pair ``(residual, saddle)``
    of the residual phase at that u and the step's last saddle, and the
    iteration records.
    """
    residual, saddle = start
    del start  # the saddle is referenced here alone, so the step can free its factor
    measures = problem.measures
    cols, Bc = layout.cols, layout.Bc
    u = u0.copy()
    # prescribed increments enter through the first tangent solve so the free
    # dofs follow along; jumping u[fixed] directly inverts elements next to
    # the constrained faces
    dv = np.zeros(u.size)
    dv[layout.fixed] = layout.values * t - u[layout.fixed]
    lam, active = lam0, active0
    records: list[IterationRecord] = []
    first_res = None
    scale = 0.0  # the norm of the first solve's right-hand side when the step prescribes an increment
    fresh = saddle is None  # the next solve factors the tangent at the current u
    factored_at = None  # residual norm where the last correction's factor was built, 0 if it was kept
    predicted = 0.0  # the residual a correction on a kept factor was predicted to leave, 0 if none
    for it in range(1, _MAX_NEWTON_ITERS + 1):
        if it > 1:
            residual = neo_hookean_residual(quad, problem.material, u)
        f_int = residual.f_int
        r_u = f_int + layout.scatter(Bc.T @ lam) - F_t
        r_u[layout.fixed] = 0.0
        gap = problem.gap_integrals + Bc @ u[cols]
        wg = gap / measures
        state = ContactState(lam=lam, weighted_gap=wg, active=active, measures=measures)
        new_state, changed = active_set_update(state)
        cur_idx = np.flatnonzero(active)
        ref = max(np.linalg.norm(F_t), np.linalg.norm(f_int), 1e-30) + scale
        res_u = np.linalg.norm(r_u)
        converged = res_u <= _NEWTON_TOL * ref
        if predicted and not converged:
            kappa = max(kappa, res_u / predicted)  # the last kept factor missed its prediction
        predicted = 0.0
        res_lam = np.linalg.norm(wg[cur_idx] * measures[cur_idx])
        records.append(
            IterationRecord(
                step=step,
                iteration=it,
                n_active=int(active.sum()),
                residual_u=res_u,
                residual_lam=res_lam,
                changed=changed,
            )
        )
        pending = bool(dv.any())
        if not pending and changed == 0 and converged and complementarity_ok(new_state):
            return u, new_state.lam, new_state.active, wg, kappa, (residual, saddle), records
        if first_res is None and not converged:
            # a converged residual carried over from the previous step is no scale: a
            # displacement-driven step's increment enters through dv, not r_u
            first_res = res_u
        if it > 6 and first_res is not None and res_u > 1e3 * first_res:
            raise SolverError("Newton residual diverged")
        # a loaded step's first solve starts from the inherited/seeded set; the
        # not-yet-displaced state would deactivate everything
        if not (it == 1 and (pending or not converged)):
            active = new_state.active
        if not pending and res_u == 0.0 and not active.any():
            lam = new_state.lam
            continue  # exact equilibrium, only activity bookkeeping changed
        if factored_at is not None:
            fresh = not _keeps_factor(res_u, factored_at, _NEWTON_TOL * ref, kappa)
            if not fresh:
                predicted = res_u * res_u / factored_at
        factored_at = res_u if fresh else 0.0
        if fresh:
            saddle = K_T = None  # free the last factor and its tangent before the next are built
            K_T = neo_hookean_tangent(quad, problem.material, residual)
        else:
            K_T = saddle.K
        rhs_u = layout.prescribe(F_t - f_int, K_T, dv)
        if pending:
            scale = np.linalg.norm(rhs_u)
        if not fresh:
            saddle.set_rhs(rhs_u)
        else:
            try:
                saddle = _CondensedSaddle(K_T, rhs_u, layout)
            except SolverError as exc:
                if it > 1:
                    raise
                raise _LoadIndependentError(str(exc)) from exc
        du, settled = _settle_active_set(saddle, active, gap, -(gap + Bc @ dv[cols]), measures)
        u = u + du
        lam, active = settled.lam, settled.active
        dv[:] = 0.0
    raise SolverError(f"Newton did not converge in {_MAX_NEWTON_ITERS} iterations")


def inf_sup_estimate(coupling_scalar, mass_primal, mass_multiplier) -> float:
    """Discrete stability constant of a trace/multiplier pairing.

    Computes the square root of the smallest nonzero eigenvalue of the
    Gram-normalized Schur operator; both norms are L2 on the contact
    boundary.  Identical spaces give exactly 1.
    """
    B = np.asarray(coupling_scalar, dtype=float)
    Mp = np.asarray(mass_primal, dtype=float)
    Mm = np.asarray(mass_multiplier, dtype=float)
    try:
        S = B @ sla.solve(Mp, B.T, assume_a="pos")
        vals = sla.eigh(0.5 * (S + S.T), Mm, eigvals_only=True)
    except (sla.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SolverError(f"singular Gram matrix in stability estimate: {exc}") from exc
    cutoff = 1e-12 * max(vals.max(), 1e-300)
    positive = vals[vals > cutoff]
    if positive.size == 0:
        raise SolverError("no nonzero eigenvalues: coupling has empty range")
    return float(np.sqrt(positive.min()))
