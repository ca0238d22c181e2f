"""B-spline and NURBS basis machinery on open knot vectors.

Univariate evaluation follows the span-local Cox-de Boor recursion
(NURBS Book algorithms A2.1-A2.3), vectorized over evaluation points;
knot insertion builds a direction's whole insertion matrix in one pass
of the Oslo algorithm.

Every evaluation of a tensor-product or rational (NURBS) space is on a
tensor grid: the C-order grid of per-direction abscissae.  One sparse
value matrix per direction, with a derivative matrix where gradients are
wanted (:func:`_direction_matrices`), is the whole evaluator.  Their Kronecker
product is the basis matrix of the grid (:func:`grid_basis_matrix`,
rational with weights), and applied one axis at a time to a homogeneous
(weight-scaled) coefficient net they give rational fields and their
parametric gradients by sum factorization (:func:`_grid_fields`).  The
multiplier space used by the contact formulation is derived here by
stripping boundary knots and dropping two degrees.

Conventions:
    * indices are 0-based everywhere,
    * the parametric domain is closed; the right endpoint evaluates in
      the last nonempty span,
    * degree-0 functions are element indicators with the half-open
      convention (closed on the last element).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp


class SplineError(ValueError):
    """Invalid knot vector, degree, or evaluation point."""


_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class KnotVector:
    """Univariate knot vector with degree bookkeeping.

    ``knots`` must be non-decreasing.  Open knot vectors (end knots
    repeated ``degree + 1`` times) are produced by
    :func:`make_open_knot_vector`; raw construction only validates
    monotonicity and a positive basis count.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        if self.degree < 0:
            raise SplineError(f"degree must be non-negative, got {self.degree}")
        if knots.ndim != 1 or knots.size < self.degree + 2:
            raise SplineError("knot vector too short for degree")
        if np.any(np.diff(knots) < 0):
            raise SplineError("knots must be non-decreasing")
        if self.n_basis < 1:
            raise SplineError("knot vector defines no basis functions")

    @property
    def n_basis(self) -> int:
        return self.knots.size - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-self.degree - 1])

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.unique(self.knots)

    @cached_property
    def spans(self) -> np.ndarray:
        """Indices of nonempty knot spans inside the domain."""
        lo, hi = self.degree, self.knots.size - self.degree - 2
        idx = np.arange(lo, hi + 1)
        return idx[self.knots[idx] < self.knots[idx + 1]]

    @cached_property
    def element_bounds(self) -> np.ndarray:
        """(n_elements, 2) parametric bounds of the nonempty spans."""
        s = self.spans
        return np.column_stack([self.knots[s], self.knots[s + 1]])

    @property
    def n_elements(self) -> int:
        return self.spans.size

    def greville(self) -> np.ndarray:
        """Greville abscissae (knot averages) of a degree >= 1 knot vector."""
        p = self.degree
        return np.array([self.knots[i + 1 : i + p + 1].mean() for i in range(self.n_basis)])


def make_open_knot_vector(breakpoints, degree, interior_multiplicities=None) -> KnotVector:
    """Build the open knot vector over the given breakpoints.

    End breakpoints get multiplicity ``degree + 1``; interior
    multiplicities default to 1 and must stay below the degree so the
    basis keeps at least C^1 continuity inside the domain.
    """
    z = np.asarray(breakpoints, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise SplineError("need at least two breakpoints")
    if np.any(np.diff(z) <= 0):
        raise SplineError("breakpoints must be strictly increasing")
    n_int = z.size - 2
    if interior_multiplicities is None:
        mult = np.ones(n_int, dtype=int)
    else:
        mult = np.asarray(interior_multiplicities, dtype=int)
        if mult.size != n_int:
            raise SplineError("one interior multiplicity per interior breakpoint")
    if n_int and (mult.min() < 1 or mult.max() > max(degree - 1, 1)):
        raise SplineError(f"interior multiplicities must lie in [1, {max(degree - 1, 1)}]")
    knots = np.concatenate(
        [np.full(degree + 1, z[0])]
        + [np.full(m, zb) for zb, m in zip(z[1:-1], mult)]
        + [np.full(degree + 1, z[-1])]
    )
    return KnotVector(knots, degree)


def find_spans(kv: KnotVector, zetas) -> np.ndarray:
    z = np.asarray(zetas, dtype=float)
    lo, hi = kv.domain
    slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
    if np.any(z < lo - slack) or np.any(z > hi + slack):
        raise SplineError(f"evaluation point outside parametric domain [{lo}, {hi}]")
    z = np.clip(z, lo, hi)
    spans = np.searchsorted(kv.knots, z, side="right") - 1
    return np.minimum(spans, kv.spans[-1])


def _basis_tables(kv: KnotVector, spans: np.ndarray, z: np.ndarray, n_deriv: int):
    """Vectorized Cox-de Boor values and first derivatives (A2.2, and A2.3 at k = 1, over many points).

    Returns ``(values, ders)`` with shapes (m, p+1) and (m, n_deriv, p+1);
    ``n_deriv`` is 0 or 1.
    """
    if n_deriv > 1:
        raise SplineError("only values and first derivatives are evaluated")
    p = kv.degree
    U = kv.knots
    m = z.size
    ndu = np.zeros((m, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    left = np.zeros((m, p + 1))
    right = np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = z - U[spans + 1 - j]
        right[:, j] = U[spans + j] - z
        saved = np.zeros(m)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            temp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        ndu[:, j, j] = saved
    values = ndu[:, :, p].copy()
    if n_deriv == 0:
        return values, np.zeros((m, 0, p + 1))
    # N'_r = p (t_(r-1) - t_r), t_r the r-th nonzero degree p-1 function over the length of
    # its support (the upper and lower triangles of ndu), t_(-1) = t_p = 0
    t = np.zeros((m, p + 2))
    t[:, 1:-1] = (1.0 / ndu[:, p, :p]) * ndu[:, :p, p - 1]
    return values, ((t[:, :-1] - t[:, 1:]) * p)[:, None, :]


def eval_basis_batch(kv: KnotVector, zetas, n_deriv: int = 0):
    """Values, and first derivatives when ``n_deriv`` is 1, of the p+1 nonzero functions at each point.

    Returns ``(first_indices, values, derivatives)`` with shapes (m,),
    (m, p+1) and (m, n_deriv, p+1); ``values[i, j]`` is function
    ``first_indices[i] + j`` at point i.
    """
    z = np.asarray(zetas, dtype=float)
    spans = find_spans(kv, z)
    lo, hi = kv.domain
    z = np.clip(z, lo, hi)
    values, ders = _basis_tables(kv, spans, z, n_deriv)
    return spans - kv.degree, values, ders


def insertion_matrix(kv: KnotVector, values):
    """Refined knot vector and the knot-insertion matrix of inserting ``values``.

    The matrix T (n_fine, n_coarse) maps coefficients on ``kv`` to the
    same function's coefficients on the refined knots, ``c_fine = T @
    c_coarse``.  Its rows are the discrete B-splines of the Oslo
    algorithm (Cohen, Lyche & Riesenfeld 1980), all rows in one pass.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = kv.domain
    if np.any(values <= lo) or np.any(values >= hi):
        raise SplineError("insertion points must lie strictly inside the domain")
    p, t = kv.degree, kv.knots
    tau = np.sort(np.concatenate([t, values]))
    mult = np.searchsorted(tau, values, side="right") - np.searchsorted(tau, values, side="left")
    if mult.max(initial=0) > max(p - 1, 1):
        raise SplineError(f"an inserted knot's multiplicity would exceed {max(p - 1, 1)}")
    n = tau.size - p - 1
    rows = np.arange(n)
    mu = np.searchsorted(t, tau[:n], side="right")[:, None] - 1  # t[mu] <= tau[i] < t[mu + 1]
    b = np.ones((n, 1))
    for k in range(1, p + 1):
        j = np.arange(k)
        t1, t2 = t[mu - k + 1 + j], t[mu + 1 + j]
        w = (tau[rows + k][:, None] - t1) / (t2 - t1)
        b = np.pad((1.0 - w) * b, ((0, 0), (0, 1))) + np.pad(w * b, ((0, 0), (1, 0)))
    T = np.zeros((n, kv.n_basis))
    T[rows[:, None], mu - p + np.arange(p + 1)] = b
    return KnotVector(tau, p), T


def interior_knot_vector(kv: KnotVector) -> KnotVector:
    """Strip one knot from each end; the result carries degree p - 2."""
    if kv.degree < 2:
        raise SplineError("degree must be at least 2 to derive an interior knot vector")
    if kv.n_basis < 3:
        raise SplineError("need at least 3 basis functions")
    return KnotVector(kv.knots[1:-1], kv.degree - 2)


def _clamp_end_multiplicity(kv: KnotVector) -> KnotVector:
    """Reduce end-knot multiplicities to degree + 1, dropping zero-support functions."""
    target = kv.degree + 1
    knots = kv.knots
    lead = int(np.count_nonzero(knots == knots[0]))
    trail = int(np.count_nonzero(knots == knots[-1]))
    lo = max(lead - target, 0)
    hi = knots.size - max(trail - target, 0)
    return KnotVector(knots[lo:hi], kv.degree)


@dataclass(frozen=True)
class TensorSpace:
    """Tensor product of univariate B-spline spaces."""

    knot_vectors: tuple[KnotVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "knot_vectors", tuple(self.knot_vectors))

    @property
    def ndim(self) -> int:
        return len(self.knot_vectors)

    @property
    def n_basis(self) -> tuple[int, ...]:
        return tuple(kv.n_basis for kv in self.knot_vectors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.n_basis))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(kv.degree for kv in self.knot_vectors)


@dataclass(frozen=True)
class WeightedSpace:
    """NURBS space: a tensor B-spline space with positive weights."""

    space: TensorSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "weights", w)
        if w.size != self.space.dim:
            raise SplineError("one weight per basis function required")
        if np.any(w <= 0):
            raise SplineError("weights must be strictly positive")

    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def dim(self) -> int:
        return self.space.dim

    def homogeneous(self, coefs) -> np.ndarray:
        """Fields of coefficients ``coefs`` (n, k) as the (k + 1, n_0, ..., n_{d-1}) net :func:`_grid_fields` reads.

        The coefficients are scaled by the weights, and the weights come last.
        """
        w = self.weights[:, None]
        return np.hstack([coefs * w, w]).T.reshape((-1,) + self.space.n_basis)


def multiplier_space(primal: TensorSpace) -> TensorSpace:
    """Degree p-2 multiplier space paired with a degree-p trace space.

    Per direction the first and last knots are stripped and the degree
    dropped by two.  Leftover end-knot repetitions beyond degree - 1
    only generate identically-zero functions, so end multiplicities are
    clamped to the new degree + 1; for p = 2 the result is the space of
    element indicator functions.
    """
    reduced = []
    for kv in primal.knot_vectors:
        if kv.degree < 2:
            raise SplineError("multiplier space needs primal degree >= 2")
        reduced.append(_clamp_end_multiplicity(interior_knot_vector(kv)))
    return TensorSpace(tuple(reduced))


def _point_basis_matrix(idx: np.ndarray, vals: np.ndarray, n: int) -> sp.csr_matrix:
    """(m, n) CSR matrix of a basis at m points from the (m, nloc) indices and values of one evaluation.

    Row q holds the nonzero functions at point q, in the ascending index
    order the evaluation returns them in.
    """
    m, nloc = idx.shape
    return sp.csr_matrix((vals.ravel(), idx.ravel(), np.arange(0, m * nloc + 1, nloc)), shape=(m, n))


def _direction_matrices(kv: KnotVector, z: np.ndarray, n_deriv: int = 1) -> tuple:
    """Sparse (z.size, n_basis) basis matrices of one knot vector at z.

    Returns ``(values, derivatives)``, or ``(values,)`` when ``n_deriv`` is 0.
    """
    first, vals, ders = eval_basis_batch(kv, z, n_deriv)
    idx = first[:, None] + np.arange(kv.degree + 1)
    return tuple(_point_basis_matrix(idx, t, kv.n_basis) for t in (vals, *np.moveaxis(ders, 1, 0)))


def grid_basis_matrix(value_mats, weights=None) -> sp.csr_matrix:
    """(m, n) CSR matrix of a tensor basis on the C-order grid of the per-direction value matrices.

    The Kronecker product of ``value_mats`` (one :func:`_direction_matrices`
    value matrix per direction): row q holds the products of one nonzero
    function per direction at grid point q, in ascending flat C-order
    index.  With ``weights`` the basis is rational, w_A N_A / sum_B w_B N_B.
    """
    E = reduce(lambda A, B: sp.kron(A, B, format="csr"), value_mats)
    if weights is None:
        return E
    num = (weights[E.indices] * E.data).reshape(E.shape[0], -1)
    return sp.csr_matrix(((num / num.sum(axis=1)[:, None]).ravel(), E.indices, E.indptr), shape=E.shape)


def _along(mat, X: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis ``axis`` of X with the sparse (Q, n) matrix ``mat``."""
    X = np.moveaxis(X, axis, 0)
    Y = mat @ X.reshape(X.shape[0], -1)
    return np.moveaxis(Y.reshape((mat.shape[0],) + X.shape[1:]), 0, axis)


def _grid_fields(coefs: np.ndarray, mats, rows: slice | None):
    """Rational fields and their parametric gradients on a tensor grid, or on a slab of it.

    ``coefs`` (k, n_0, ..., n_{d-1}) holds homogeneous coefficients, the
    weights last (:meth:`WeightedSpace.homogeneous`); ``mats[a]`` is the
    :func:`_direction_matrices` of direction a, of which direction 0
    keeps only the grid rows ``rows`` (all of them when ``rows`` is
    None).  Returns the k - 1 fields (k-1, Q_s, Q_1, ...) and their
    gradients (k-1, d, Q_s, Q_1, ...) by the quotient rule; the
    gradients are None when every direction has its values only.
    """
    grid = {None: coefs}  # keyed by the differentiated direction, None for values
    for a, (vals, *ders) in enumerate(mats):
        if a == 0 and rows is not None:
            vals, ders = vals[rows], [d[rows] for d in ders]
        nxt = {key: _along(vals, arr, a + 1) for key, arr in grid.items()}
        if ders:
            nxt[a] = _along(ders[0], grid[None], a + 1)
        grid = nxt
    W = grid[None][-1]
    f = grid[None][:-1] / W
    if len(grid) == 1:
        return f, None
    grads = [(grid[a][:-1] - f * grid[a][-1]) / W for a in range(len(mats))]
    return f, np.stack(grads, axis=1)
