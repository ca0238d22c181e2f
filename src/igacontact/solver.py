"""Active-set solvers for the mixed contact problem.

Every linear solve factors the shifted stiffness or tangent once, as a
banded Cholesky factorization in an order taken from the patch's basis
grid (:func:`band_order`), and condenses the active multipliers onto it:
each saddle solve is then a small dense system in the active
multipliers (:class:`_CondensedSaddle`).  The factorization is followed
by two forward sweeps, of the load and of the shift's unit vector, and
each solve by one back sweep for u; the triangular sweeps call LAPACK
directly.  The grid is walked towards the contact rows expected active,
so that their columns of the condensation come last in the band.  The
band layout of a CSR pattern (order, fixed dofs, gather indices, and the
coupling as one dense block over the dofs it touches) is built once, and
a matrix with that pattern goes into the band by one gather.  One
active-set loop (:func:`_settle_active_set`) serves both drivers: on one
factor it alternates saddle solves (gap pinned to zero on the active
multiplier dofs) with activity updates until the set is stable and
complementarity holds.  Small deformation runs it once, on the
stiffness.  Large deformation: load stepping with Newton iterations on
the combined residual, where every unconverged iterate runs the loop on
its own tangent's factor; the gap is linear in u, so the set it settles
is exact for the linearization, and a change of activity costs a
condensed solve, not a tangent and a factorization.  Each Newton iterate
evaluates the residual first, and the tangent is assembled and factored,
through the one layout of the tangent's fixed pattern, only when the
iterate is not converged.  The factor of a step's last Newton solve
serves the next step's first, with only its right-hand side replaced.
A correction keeps the factor of the one before it, once, when Newton's
quadratic rate predicts that a chord step on it converges (residual r,
r_prev where that factor was built: ``r^2 / r_prev <= newton_tol * ref``,
the convergence test's bound), as a fresh factor then buys nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    GlobalSystem,
    _canonical_csr,
    apply_constraints,  # noqa: F401  not called here, but perfbench/tracer.py wraps this name
    assemble_load,
    neo_hookean_forces,  # noqa: F401  not called here, but perfbench/tracer.py wraps this name
    neo_hookean_residual,
    neo_hookean_tangent,
    patch_quadrature,
)
from .contact import ContactState, active_set_update
from .materials import ElementInversionError, NeoHookeanMaterial


class SolverError(RuntimeError):
    """Linear-solve failure, cycling, or iteration-cap overrun."""


@dataclass(frozen=True)
class SolveSettings:
    max_active_set_iters: int = 60
    max_newton_iters: int = 40
    newton_tol: float = 1e-10
    gap_tol: float = 1e-10

    def __post_init__(self):
        if self.max_active_set_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.newton_tol <= 0 or self.gap_tol <= 0:
            raise ValueError("tolerances must be positive")


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
    converged: bool = False

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
        mat = sp.csc_matrix(K)
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
    leaves them.  K is converted, not read as its own transpose: a
    Newton tangent need not be bitwise symmetric.
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


def complementarity_ok(state: ContactState, gap_tol: float, pressure_scale: float = 1.0) -> bool:
    """Discrete complementarity: feasible signs and vanishing products."""
    lam, wg = state.lam, state.weighted_gap
    if np.any(lam > 1e-10 * pressure_scale):
        return False
    inactive = ~state.active
    if np.any(wg[inactive] < -max(1e-8, 100 * gap_tol)):
        return False
    floor = 1e-14 * pressure_scale
    bound = 1e-8 * (np.abs(lam).max() * np.abs(wg).max() + floor)
    return bool(np.abs(lam * wg).max() <= max(bound, floor))


@dataclass(frozen=True)
class SmallDeformationProblem:
    """Assembled data of one linear contact solve.

    ``initial_active`` optionally seeds the active set (a warm start);
    the loop still iterates to the same optimality conditions.
    """

    system: GlobalSystem
    coupling: sp.csr_matrix
    gap_integrals: np.ndarray  # integral(B_K g0)
    measures: np.ndarray
    initial_active: np.ndarray | None = None


def _masked_coupling(coupling: sp.csr_matrix, fixed: np.ndarray, n: int) -> sp.csr_matrix:
    if fixed.size == 0:
        return coupling
    free = np.ones(n)
    free[fixed] = 0.0
    return (coupling @ sp.diags(free)).tocsr()


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


def _contact_order(shape, n_comp: int, Bhat: sp.csr_matrix, expected: np.ndarray) -> np.ndarray:
    """:func:`band_order` walked towards the functions the expected-active rows of Bhat couple to.

    A column of ``W = U^-T P B^T`` is forward-substituted from its first
    nonzero row to the end, so the rows expected active go last.
    """
    rows = Bhat[np.flatnonzero(expected)]
    return band_order(shape, n_comp, last=np.unique(rows.indices[rows.data != 0] // n_comp))


@dataclass(frozen=True)
class _BandLayout:
    """What every condensed solve on one CSR pattern shares, built once by :func:`_band_layout`.

    ``fill(data)`` is a gather: the upper band, in LAPACK storage
    ``ab[u + r - c, c]``, of ``P apply_constraints(K) P^T`` for the K with
    that pattern and data, where ``P`` puts dof ``order[k]`` in row k and
    the fixed rows and columns are dropped and get a unit diagonal.  A
    tangent that is symmetric up to rounding is read as its upper half.
    The coupling B is kept as one dense block over the dofs where it has
    a stored entry (``cols``): ``B @ x`` is ``Bc @ x[cols]`` and
    ``B^T lam`` is ``scatter(Bc^T lam)``; ``Bhc`` is the block of B with
    the fixed columns zeroed, and ``first`` is the first band row of
    every one of its rows.  ``i`` is the kernel dof of the shift (the dof
    of the largest column of ``Bhc``).
    """

    order: np.ndarray  # (n,) int32, the dof placed k-th
    pos: np.ndarray  # (n,) int32, band row of every dof
    u: int  # half-bandwidth
    src: np.ndarray  # CSR data positions of the band entries
    dest: np.ndarray  # their flat positions in the C-order transpose, shape (n, u + 1), of the band
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

    def matvec(self, K: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        """``apply_constraints(K) @ x``: fixed rows and columns act as the identity."""
        if self.free is None:
            return K @ x
        return np.where(self.free, K @ np.where(self.free, x, 0.0), x)

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


def _band_layout(indptr, indices, order, B: sp.csr_matrix, fixed=()) -> _BandLayout:
    """The :class:`_BandLayout` of a canonical CSR pattern (sorted, no duplicates) and coupling B."""
    n = indptr.size - 1
    fixed = np.asarray(fixed, dtype=np.int64)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    r, c = pos[rows], pos[indices]
    src = np.flatnonzero((r <= c) & free[rows] & free[indices])
    r, c = r[src], c[src]
    u = int((c - r).max()) if src.size else 0
    index = np.int32 if n * (u + 1) < 2**31 else np.int64
    dest = c.astype(index) * (u + 1) + (u + r - c)
    B = B.tocsr()
    cols = np.unique(B.indices)
    Bc = B[:, cols].toarray()
    Bhc = Bc if free[cols].all() else np.where(free[cols], Bc, 0.0)
    bpos = pos[cols]
    weight = np.zeros(n)
    weight[cols] = (Bhc * Bhc).sum(axis=0)
    return _BandLayout(
        order=np.asarray(order, dtype=np.int32),
        pos=pos,
        u=u,
        src=src.astype(index),
        dest=dest,
        unit=pos[fixed].astype(index) * (u + 1) + u,
        free=free if fixed.size else None,
        cols=cols,
        bpos=bpos,
        Bc=Bc,
        Bhc=Bhc,
        first=np.where(Bhc != 0, bpos, n).min(axis=1, initial=n),
        i=int(np.argmax(weight)),
    )


def _band_sweep(cb: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """``U^-T b`` (``trans="T"``) or ``U^-1 b`` (``"N"``) for an upper band factor U in LAPACK storage."""
    x, info = sla.lapack.dtbtrs(cb, b, uplo="U", trans=trans)
    if info != 0 or not np.all(np.isfinite(x)):
        raise SolverError(f"banded triangular solve failed (info {info}) or gave a non-finite result")
    return x


# batches of W columns up to this width take one dtbtrs sweep, wider ones the slab loop: on one OpenBLAS
# thread the sweep took at most 0.95x the loop's time up to 16 columns (half-bandwidths 25-781), 1.3x at 64
_SWEEP_COLUMNS = 16


def _forward_substitution(cb: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``U^-T R`` in place of R, for an upper band factor U in LAPACK storage.

    The columns of R must come in order of their first nonzero row.  A
    slab of u rows of ``U^T`` couples only to the slab before it, so each
    slab is one matmul and one dense triangular solve (LAPACK ``dtrtrs``),
    and it solves only the columns that have started: the rest of it is
    zero in R and in the result.
    """
    n, m = R.shape
    u = cb.shape[0] - 1
    s = max(u, 1)
    flat = cb.T.reshape(-1)  # U[r, c] = cb[u + r - c, c] sits at offset u + r + u c
    step = flat.itemsize

    def window(r0, c0, rows, cols):
        """U[r0:r0 + rows, c0:c0 + cols] where inside the band, other band entries elsewhere."""
        return np.lib.stride_tricks.as_strided(
            flat[u + r0 + u * c0 :], shape=(rows, cols), strides=(step, u * step)
        )

    below = np.tri(s, k=u - s, dtype=bool)  # the band part of a block U[a - s:a, a:a + s]
    nz = R != 0
    first = np.where(nz.any(axis=0), nz.argmax(axis=0), n)
    if np.any(np.diff(first) < 0):
        raise ValueError("columns must come in order of their first nonzero row")
    trtrs = sla.lapack.dtrtrs
    a0 = first[0] - first[0] % s if m else n  # earlier slabs are zero in every column
    for a in range(a0, n, s):
        h = min(s, n - a)
        k = int(np.searchsorted(first, a + h))
        rhs = R[a : a + h, :k]
        if a > a0:
            coupling = np.where(below[:, :h], window(a - s, a, s, h), 0.0)
            rhs -= coupling.T @ R[a - s : a, :k]
        # the diagonal block is read as upper triangular; its band holds all of it
        x, info = trtrs(window(a, a, h, h), rhs, trans=1)
        if info != 0:
            raise SolverError(f"triangular solve failed at band row {a} (info {info})")
        R[a : a + h, :k] = x
    return R


class _CondensedSaddle:
    """Saddle solves ``[[K, B_A^T], [B_A, 0]] [u, lam] = [F, g]`` on one factorization of K.

    K is read through ``layout`` (:func:`_band_layout`, built for K's
    pattern), which eliminates the layout's fixed dofs as
    :func:`apply_constraints` does, in the factor and in the residual
    check alike; ``B`` is the layout's coupling with the fixed columns
    zeroed, kept as one dense block.  K may have one kernel mode, a
    rigid translation normal to the plane, which the active rows remove.
    It is removed from the factorization exactly: with ``i`` the layout's
    kernel dof and ``rho = max|diag K|``, ``K~ = K + rho e_i e_i^T`` is
    factored and ``beta = rho u_i`` is one extra unknown, so that
    ``K u = K~ u - beta e_i``.  ``K~`` is symmetric positive definite; it
    is factored as ``P K~ P^T = U^T U`` by banded Cholesky in the
    layout's dof order.  Two forward sweeps give ``z_F = U^-T P F`` and
    ``z_e = U^-T e_p`` with ``p = pos[i]`` (zero above row p); with
    ``W = U^-T P B^T``, an active set A leaves the dense bordered system
    in ``(lam_A, beta)``

        [[-W_A^T W_A, W_A^T z_e], [-rho W_A^T z_e, rho z_e^T z_e - 1]]
        = [g - W_A^T z_F, -rho z_e^T z_F]

    (``B_A K~^-1 e_i = W_A^T z_e``, ``(K~^-1)_ii = z_e^T z_e``), and one
    back sweep gives ``u = P^T U^-1 (z_F + beta z_e - W_A lam_A)``.  A
    column of W is solved the first time its dof is active, one blocked
    forward substitution per batch, and its Gram products with the
    earlier columns, ``z_F`` and ``z_e`` are kept.  :meth:`set_rhs`
    replaces F on the same factor: one forward sweep for ``z_F``, and
    ``W^T z_F`` re-read over the kept columns.
    """

    def __init__(self, K: sp.csr_matrix, F: np.ndarray, layout: _BandLayout):
        n = F.size
        self.K, self.layout = K, layout
        ab = layout.fill(K.data)
        self.rho = float(np.abs(ab[layout.u]).max())
        p = int(layout.pos[layout.i])
        ab[layout.u, p] += self.rho
        try:
            self.cb = sla.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"shifted stiffness K + rho e_i e_i^T is not positive definite ({exc}): "
                "an indefinite tangent or a constraint deficiency"
            ) from exc
        self.p = p
        e = np.zeros(n - p)
        e[0] = 1.0
        self.z_e = np.zeros(n)
        self.z_e[p:] = _band_sweep(self.cb[:, p:], e, "T")
        self.x_ei = self.z_e[p:] @ self.z_e[p:]  # (K~^-1)_ii
        self.col = np.full(layout.Bhc.shape[0], -1)  # Gram index per multiplier dof
        self.W: list[tuple[int, int, np.ndarray]] = []  # (first row, first Gram index, rows of W) per batch
        self.G = np.empty((0, 0))  # Gram matrix W^T W of the solved columns
        self.Wz_e = np.empty(0)  # W^T z_e per solved column
        self.set_rhs(F)

    def set_rhs(self, F: np.ndarray) -> None:
        """Make F the right-hand side of the next solves, on the same factor and W columns."""
        self.F = F
        self.z_F = _band_sweep(self.cb, F[self.layout.order], "T")
        self.y_Fi = self.z_e[self.p :] @ self.z_F[self.p :]  # (K~^-1 F)_i
        # W^T z_F per solved column, batch by batch in Gram order
        self.Wz_F = np.concatenate([np.empty(0)] + [Wn.T @ self.z_F[r0:] for r0, _, Wn in self.W])

    def _add_columns(self, new: np.ndarray) -> None:
        first = self.layout.first[new]
        new = new[np.argsort(first, kind="stable")]
        r0 = int(first.min())  # rows before it are zero in every new column of W
        R = self.layout.band_rows(new, r0)
        if new.size <= _SWEEP_COLUMNS:
            Wn = _band_sweep(self.cb[:, r0:], R, "T")
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
        u[layout.order] = _band_sweep(self.cb, v, "N")
        res = np.hypot(
            np.linalg.norm(layout.matvec(self.K, u) + layout.scatter(B_A.T @ lam) - self.F),
            np.linalg.norm(B_A @ u[layout.cols] - g),
        )
        rhs_norm = np.hypot(np.linalg.norm(self.F), np.linalg.norm(g))
        if res > 1e-4 * max(rhs_norm, 1e-300):
            raise SolverError(f"saddle solve residual {res:.3e} exceeds 1e-4 * |rhs|")
        return u, lam


def _settle_active_set(saddle, active, gap, g, measures, settings, records=None):
    """Active-set loop of one linear(ized) contact problem on the factor of ``saddle``.

    ``gap`` holds the gap integrals where the unknown x that ``saddle``
    solves for is zero, ``g`` the right-hand side of every gap row
    (``B x = g`` on the active rows), and ``active`` the starting set.
    Each iteration solves on the kept factor, takes the bare
    :func:`active_set_update` of the solved pair (lam, weighted gap
    ``(gap + B x) / measures``), and stops when the set is stable and
    complementarity holds.  When a set recurs, the larger of the
    repeating sets is kept and the gap test tightened tenfold.  When the
    stiffness alone is singular with no active row, the dof closest to
    contact is seeded.  Each iteration is appended to ``records`` when it
    is given.  Returns x and the settled :class:`ContactState`.
    """
    layout = saddle.layout
    gap_tol = settings.gap_tol
    active = active.copy()
    seen: dict[bytes, int] = {}
    seeded = False
    it = 0
    while it < settings.max_active_set_iters:
        it += 1
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
        new_state, changed = active_set_update(state, gap_tol)
        if records is not None:
            res_u = np.linalg.norm(layout.matvec(saddle.K, x) + layout.scatter(layout.Bhc.T @ lam) - saddle.F)
            res_lam = np.abs(wg[act_idx] * measures[act_idx]).max() if act_idx.size else 0.0
            records.append(
                IterationRecord(
                    step=0,
                    iteration=it,
                    n_active=int(active.sum()),
                    residual_u=res_u,
                    residual_lam=res_lam,
                    changed=changed,
                )
            )
        if changed == 0 and complementarity_ok(new_state, gap_tol):
            return x, new_state
        key = new_state.active.tobytes()
        if key in seen and changed:
            # cycling: keep the larger of the repeating sets, tighten the gap test
            if new_state.active.sum() < active.sum():
                new_active = active
            else:
                new_active = new_state.active
            gap_tol = gap_tol / 10.0
            seen.clear()
            active = new_active.copy()
        else:
            seen[key] = it
            active = new_state.active.copy()
    raise SolverError(f"active-set loop did not converge in {settings.max_active_set_iters} iterations")


def solve_small_deformation(
    problem: SmallDeformationProblem, settings: SolveSettings = SolveSettings()
) -> SolutionBundle:
    """The active-set loop (:func:`_settle_active_set`) on the linear saddle problem.

    The assembled stiffness is factored once per call through a band layout that
    eliminates the constrained dofs, with no constrained copy of K; each iteration
    solves a dense system in its active multipliers (:class:`_CondensedSaddle`).
    """
    system = problem.system
    K = _canonical_csr(system.stiffness)
    n = K.shape[0]
    fixed = np.fromiter(system.constraints.keys(), dtype=np.int64) if system.constraints else np.empty(0, np.int64)
    u_fix = np.zeros(n)
    u_fix[fixed] = np.fromiter(system.constraints.values(), dtype=float, count=fixed.size)
    # the layout drops the fixed rows and columns: shift the load by their values
    F = system.load - K @ u_fix
    F[fixed] = u_fix[fixed]
    B = problem.coupling
    Bhat = _masked_coupling(B, fixed, n)
    gap0 = problem.gap_integrals + B @ u_fix
    wg0 = gap0 / problem.measures
    active = problem.initial_active.copy() if problem.initial_active is not None else wg0 <= settings.gap_tol
    # the rows expected active: the starting set, else the closest approach
    expected = active if active.any() else wg0 == wg0.min()
    order = _contact_order(system.grid_shape, system.n_comp, Bhat, expected)
    layout = _band_layout(K.indptr, K.indices, order, B, fixed)
    records: list[IterationRecord] = []
    u, state = _settle_active_set(
        _CondensedSaddle(K, F, layout), active, problem.gap_integrals, -gap0, problem.measures, settings,
        records,
    )
    return SolutionBundle(
        u=u,
        lam=state.lam,
        active=state.active,
        weighted_gap=state.weighted_gap,
        measures=problem.measures,
        iterations=records,
        converged=True,
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
    n_gauss: int | None = None


def solve_large_deformation(
    problem: LargeDeformationProblem,
    settings: SolveSettings = SolveSettings(),
    n_steps: int = 10,
) -> SolutionBundle:
    """Incremental loading with Newton iterations, the active set settled on each Newton factor.

    Both tractions and prescribed displacements are scaled by the load
    factor.  Element inversion inside a step, a failed solve or an
    active-set loop that does not settle triggers step halving (up to 20
    halvings).  The patch's element data and scatter plan are
    built once and reused for every tangent of the solve, and so is the
    band layout of the tangent's pattern: each tangent goes into the
    banded factor by one gather.  A step starts at the u where the last
    step converged, so the residual phase its convergence check evaluated
    there is carried into its first iteration, and so is the last
    :class:`_CondensedSaddle` of that step: its factor, of the tangent
    one or two Newton corrections before u, serves the first solve.
    Neither is kept past that step, so a retry after a halving, which
    starts from the same u, evaluates and factors afresh.  The active set
    starts at the dofs in contact at u = 0, else the closest one.
    """
    patch = problem.patch
    quad = patch_quadrature(patch, problem.n_gauss)
    nd = patch.ndim
    n = patch.space.dim * nd
    F_full = assemble_load(patch, problem.tractions, n_gauss=problem.n_gauss)
    fixed = (
        np.fromiter(problem.constraints.keys(), dtype=np.int64)
        if problem.constraints
        else np.empty(0, np.int64)
    )
    vals_full = np.array([problem.constraints[d] for d in fixed], dtype=float)
    B = problem.coupling
    Bhat = _masked_coupling(B, fixed, n)
    measures = problem.measures

    u = np.zeros(n)
    lam = np.zeros(B.shape[0])
    wg0 = problem.gap_integrals / measures
    active = wg0 <= settings.gap_tol
    if not active.any():
        active[int(np.argmin(wg0))] = True
    order = _contact_order(patch.space.space.n_basis, nd, Bhat, active)
    layout = _band_layout(quad.plan.indptr, quad.plan.indices, order, B, fixed)

    records: list[IterationRecord] = []
    # (residual state at u, saddle or None) in a list the step takes it from: the
    # step drops it once used, and a retry after a halving evaluates it again
    carried = [(neo_hookean_residual(quad, problem.material, u), None)]
    t = 0.0
    dt_base = 1.0 / n_steps
    dt = dt_base
    halvings = 0
    step = 0
    while t < 1.0 - 1e-12:
        t_try = min(t + dt, 1.0)
        step += 1
        if not carried:
            carried.append((neo_hookean_residual(quad, problem.material, u), None))
        try:
            u, lam, active, wg, *carried, recs = _newton_contact_step(
                problem, quad, settings, u, lam, active, layout, F_full * t_try, fixed,
                vals_full * t_try, step, carried.pop(),
            )
        except (ElementInversionError, SolverError):
            halvings += 1
            if halvings > 20:
                raise SolverError("load step halved more than 20 times without progress")
            dt *= 0.5
            step -= 1
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
        converged=True,
    )


def _keeps_factor(res: float, factored_at: float, tol: float) -> bool:
    """Whether the correction at residual norm ``res`` keeps the factor built at ``factored_at``.

    Newton's quadratic rate predicts ``res^2 / factored_at`` after a chord
    step on that factor; it is kept when that is within ``tol``.  A factor
    built at zero residual (a displacement-driven start) or kept once (0) never is.
    """
    return factored_at > 0.0 and res * res / factored_at <= tol


def _newton_contact_step(
    problem, quad, settings, u0, lam0, active0, layout, F_t, fixed, vals_t, step, start
):
    """Newton iterations of one load step from ``u0``.

    ``start`` is the pair ``(residual, saddle)``: the residual phase at
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
    ``saddle`` is None.  A later solve keeps the factor of the one before
    when :func:`_keeps_factor` predicts that a chord step on it converges,
    and else factors the tangent at u.  Every solve keeps its checks, the
    residual one against the K its factor was built from.  Returns the
    converged ``(u, lam, active, weighted gap)``, the pair ``(residual,
    saddle)`` of the residual phase at that u and the step's last saddle,
    and the iteration records.
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
    dv[fixed] = vals_t - u[fixed]
    lam, active = lam0, active0
    records: list[IterationRecord] = []
    first_res = None
    fresh = saddle is None  # the next solve factors the tangent at the current u
    factored_at = None  # residual norm where the last correction's factor was built, 0 if it was kept
    for it in range(1, settings.max_newton_iters + 1):
        if it > 1:
            residual = neo_hookean_residual(quad, problem.material, u)
        f_int = residual.f_int
        r_u = f_int + layout.scatter(Bc.T @ lam) - F_t
        r_u[fixed] = 0.0
        gap = problem.gap_integrals + Bc @ u[cols]
        wg = gap / measures
        state = ContactState(lam=lam, weighted_gap=wg, active=active, measures=measures)
        new_state, changed = active_set_update(state, settings.gap_tol)
        cur_idx = np.flatnonzero(active)
        ref = max(np.linalg.norm(F_t), np.linalg.norm(f_int), 1e-30)
        res_u = np.linalg.norm(r_u)
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
        converged = res_u <= settings.newton_tol * ref
        pending = bool(np.abs(dv).max() > 0.0) if dv.size else False
        if not pending and changed == 0 and converged and complementarity_ok(
            new_state, settings.gap_tol
        ):
            return u, new_state.lam, new_state.active, wg, (residual, saddle), records
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
            fresh = not _keeps_factor(res_u, factored_at, settings.newton_tol * ref)
        factored_at = res_u if fresh else 0.0
        if fresh:
            saddle = K_T = None  # free the last factor and its tangent before the next are built
            K_T = neo_hookean_tangent(quad, problem.material, residual)
        else:
            K_T = saddle.K
        rhs_u = F_t - f_int
        rhs_u[fixed] = 0.0
        if pending:
            rhs_u -= K_T @ dv
            rhs_u[fixed] = dv[fixed]
        if fresh:
            saddle = _CondensedSaddle(K_T, rhs_u, layout)
        else:
            saddle.set_rhs(rhs_u)
        du, settled = _settle_active_set(saddle, active, gap, -(gap + Bc @ dv[cols]), measures, settings)
        u = u + du
        lam, active = settled.lam, settled.active
        dv[:] = 0.0
    raise SolverError(f"Newton did not converge in {settings.max_newton_iters} iterations")


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
