"""B-spline and NURBS basis machinery on open knot vectors.

Univariate evaluation follows the span-local Cox-de Boor recursion
(NURBS Book algorithms A2.1-A2.3), vectorized over evaluation points;
knot insertion builds a direction's whole insertion matrix in one pass
of the Oslo algorithm.
Tensor-product and rational (NURBS) spaces are thin wrappers combining
per-direction evaluations; the multiplier space used by the contact
formulation is derived here by stripping boundary knots and dropping
two degrees.

Conventions:
    * indices are 0-based everywhere,
    * the parametric domain is closed; the right endpoint evaluates in
      the last nonempty span,
    * degree-0 functions are element indicators with the half-open
      convention (closed on the last element).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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

    @cached_property
    def _local_offsets(self) -> np.ndarray:
        grids = np.meshgrid(*[np.arange(kv.degree + 1) for kv in self.knot_vectors], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)  # (nloc, ndim)

    def eval_many(self, points, n_grad: int = 0):
        """Nonzero basis values (and parametric gradients) at many points.

        Returns ``(indices, values, grads)``: flat C-order basis indices
        (m, nloc), values (m, nloc) and gradients (m, nloc, ndim); the
        gradient array is ``None`` when ``n_grad == 0``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ndim:
            raise SplineError(f"points must have {self.ndim} coordinates")
        m = pts.shape[0]
        firsts, vals, ders = [], [], []
        for d, kv in enumerate(self.knot_vectors):
            f, v, de = eval_basis_batch(kv, pts[:, d], min(n_grad, 1))
            firsts.append(f)
            vals.append(v)
            ders.append(de[:, 0, :] if n_grad else None)
        offs = self._local_offsets
        strides = np.array([int(np.prod(self.n_basis[d + 1 :])) for d in range(self.ndim)])
        indices = np.zeros((m, offs.shape[0]), dtype=np.int64)
        for d in range(self.ndim):
            indices += (firsts[d][:, None] + offs[None, :, d]) * strides[d]
        values = np.ones((m, offs.shape[0]))
        for d in range(self.ndim):
            values *= vals[d][:, offs[:, d]]
        grads = None
        if n_grad:
            grads = np.empty((m, offs.shape[0], self.ndim))
            for g in range(self.ndim):
                acc = np.ones((m, offs.shape[0]))
                for d in range(self.ndim):
                    table = ders[d] if d == g else vals[d]
                    acc *= table[:, offs[:, d]]
                grads[:, :, g] = acc
        return indices, values, grads


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

    def eval_many(self, points, n_grad: int = 0):
        """Rational basis values/gradients by the quotient rule."""
        indices, bvals, bgrads = self.space.eval_many(points, n_grad)
        wloc = self.weights[indices]
        num = wloc * bvals
        W = num.sum(axis=1)
        if np.any(W <= 0):
            raise SplineError("nonpositive weight function; invalid weights")
        values = num / W[:, None]
        grads = None
        if n_grad:
            dnum = wloc[:, :, None] * bgrads
            dW = dnum.sum(axis=1)
            grads = (dnum - values[:, :, None] * dW[:, None, :]) / W[:, None, None]
        return indices, values, grads


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
