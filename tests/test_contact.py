"""Contact machinery tests: weighted averages, gaps, coupling, active set."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from igacontact import solver
from igacontact.assembly import assemble_stiffness, dirichlet_on_face
from igacontact.contact import (
    ContactState,
    active_set_update,
    coupling_matrix,
    dump_contact_state,
    multiplier_basis,
    scalar_coupling_and_masses,
    weighted_gap,
)
from igacontact.geometry import (
    QUARTER_DISC_CONTACT_FACE,
    SPHERE_OCTANT_CONTACT_FACE,
    extract_trace,
    face_id,
    quarter_disc_patch,
    sphere_octant_patch,
    unit_square_patch,
)
from igacontact.materials import LinearMaterial

from helpers import GapField, basis_at, grid_points

PLANE_NORMAL_2D = np.array([-1.0, 0.0])  # rigid half-space {x >= R}


def flat_trace(n_spans=4, degree=2, normal=(0.0, 1.0)):
    """Bottom edge of the unit square over a rigid plane of outward normal ``normal`` (y = 0 by default)."""
    patch = unit_square_patch(degree, n_spans)
    return extract_trace(patch, face_id(1, 0), rigid_normal=normal), patch


def disc_trace(n=8):
    breaks = np.linspace(0, 1, n + 1)[1:-1]
    patch = quarter_disc_patch(1.0).refine_to_breakpoints([breaks, breaks])
    return extract_trace(patch, QUARTER_DISC_CONTACT_FACE, rigid_normal=PLANE_NORMAL_2D), patch


def octant_trace():
    patch = sphere_octant_patch(1.0).refine_to_breakpoints([[0.5], [0.25, 0.5], [0.5]])
    return extract_trace(patch, SPHERE_OCTANT_CONTACT_FACE, rigid_normal=[0.0, 0.0, 1.0]), patch


def point_basis_data(basis):
    """Quadrature weights and the (indices, values) of the trace and multiplier bases at the points."""
    tq = basis.quadrature
    params = grid_points(tq.abscissae)
    idx, vals = basis_at(basis.trace.space, params)
    mult_idx, mult_vals = basis_at(basis.space, params)
    return tq.wmeas, idx, vals, mult_idx, mult_vals


def coupling_oracle(basis, n_comp, n_vol_basis):
    """The coupling summed from one block per quadrature point and normal component, through COO."""
    w, idx, vals, mult_idx, mult_vals = point_basis_data(basis)
    n = basis.trace.normal
    rows, cols, data = [], [], []
    vol_dofs = basis.trace.dof_map[idx]  # (m, nloc_t)
    for c in range(n_comp):
        if n[c] == 0.0:
            continue
        block = np.einsum("mk,ma,m->mka", mult_vals, vals, w * n[c])
        rows.append(np.broadcast_to(mult_idx[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(vol_dofs[:, None, :] * n_comp + c, block.shape).ravel())
        data.append(block.ravel())
    shape = (basis.space.dim, n_vol_basis * n_comp)
    B = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape)
    return B.tocsr()


def scalar_coupling_and_masses_oracle(basis):
    """(B, M_primal, M_mult) scattered point by point with ``np.add.at``."""
    w, idx, vals, mult_idx, mult_vals = point_basis_data(basis)
    nP, nM = basis.trace.space.dim, basis.space.dim
    B, Mp, Mm = np.zeros((nM, nP)), np.zeros((nP, nP)), np.zeros((nM, nM))
    for out, (ri, rv), (ci, cv) in (
        (B, (mult_idx, mult_vals), (idx, vals)),
        (Mp, (idx, vals), (idx, vals)),
        (Mm, (mult_idx, mult_vals), (mult_idx, mult_vals)),
    ):
        shape = ri.shape + (ci.shape[1],)
        rows = np.broadcast_to(ri[:, :, None], shape)
        cols = np.broadcast_to(ci[:, None, :], shape)
        np.add.at(out, (rows, cols), np.einsum("mk,ma,m->mka", rv, cv, w))
    return B, Mp, Mm


# the oblique normal is the one case with two nonzero components, whose columns interleave
TRACES = {
    "disc": lambda: disc_trace(6),
    "octant": octant_trace,
    "flat-oblique": lambda: flat_trace(5, degree=3, normal=(0.6, 0.8)),
}


class TestMultiplierBasis:
    def test_measures_sum_to_trace_length(self):
        trace, _ = flat_trace(5)
        basis = multiplier_basis(trace)
        assert basis.space.dim == 5
        assert abs(basis.measures.sum() - 1.0) <= 1e-10

    def test_measures_sum_on_arc(self):
        trace, _ = disc_trace(8)
        basis = multiplier_basis(trace)
        assert abs(basis.measures.sum() - math.pi / 2) <= 1e-10


class TestWeightedGap:
    def test_constants_reproduced(self):
        trace, _ = disc_trace(6)
        basis = multiplier_basis(trace)
        c = 0.731
        avg = weighted_gap(np.full(basis.quadrature.weights.size, c), basis)
        np.testing.assert_allclose(avg, c, atol=1e-13)

    def test_zero_field(self):
        trace, _ = flat_trace(3)
        basis = multiplier_basis(trace)
        np.testing.assert_array_equal(weighted_gap(np.zeros(basis.quadrature.weights.size), basis), 0.0)

    def test_linear_field_single_element(self):
        trace, _ = flat_trace(1)
        basis = multiplier_basis(trace)
        avg = weighted_gap(basis.quadrature.phys[:, 0], basis)
        assert avg.size == 1
        assert abs(avg[0] - 0.5) <= 1e-14  # int_0^1 x dx / int_0^1 dx

    def test_interpolation_error_decay_for_quadratic(self):
        # local L2 error of the weighted-average interpolant halves under refinement
        errors = []
        for n in (8, 16):
            trace, _ = flat_trace(n)
            basis = multiplier_basis(trace)
            tq = basis.quadrature
            v = tq.phys[:, 0] ** 2
            vK = basis.values @ weighted_gap(v, basis)
            errors.append(math.sqrt(((v - vK) ** 2 * tq.wmeas).sum()))
        rate = math.log2(errors[0] / errors[1])
        assert rate >= 0.9


class TestGapField:
    def test_touching_pole(self):
        trace, _ = disc_trace(8)
        gap = GapField(trace=trace, normal=PLANE_NORMAL_2D, offset=-1.0)
        assert abs(gap.gap_at([[0.0]])[0]) <= 1e-14  # pole (R, 0) touches the plane x = 1

    def test_translation_affinity(self):
        trace, patch = disc_trace(8)
        gap = GapField(trace=trace, normal=PLANE_NORMAL_2D, offset=-1.0)
        delta = 0.1
        u = np.zeros(patch.space.dim * 2)
        u[0::2] = delta  # rigid translation toward the plane
        zs = np.linspace(0, 1, 7)
        for z in zs:
            g0 = gap.gap_at([[z]])[0]
            g1 = gap.gap_at([[z]], u)[0]
            assert abs((g0 - g1) - delta) <= 1e-13

    def test_gap_at_45_degrees(self):
        trace, _ = disc_trace(8)
        gap = GapField(trace=trace, normal=PLANE_NORMAL_2D, offset=-1.0)
        g = gap.gap_at([[0.5]])[0]  # arc midpoint sits at 45 degrees
        assert abs(g - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-14


class TestCouplingMatrix:
    def test_constant_pairing_measures_trace(self):
        trace, patch = flat_trace(4)
        basis = multiplier_basis(trace)
        B = coupling_matrix(basis, 2, patch.space.dim)
        mu = np.ones(basis.space.dim)
        v = np.zeros(patch.space.dim * 2)
        v[1::2] = 1.0  # unit normal displacement (n = e_y)
        assert abs(mu @ (B @ v) - 1.0) <= 1e-13

    def test_row_sums_give_measures_times_normal(self):
        trace, patch = disc_trace(6)
        basis = multiplier_basis(trace)
        B = coupling_matrix(basis, 2, patch.space.dim)
        Bd = B.toarray().reshape(basis.space.dim, patch.space.dim, 2)
        for c in range(2):
            np.testing.assert_allclose(
                Bd[:, :, c].sum(axis=1), basis.measures * trace.normal[c], atol=1e-13
            )

    def test_pairing_matches_direct_quadrature(self):
        trace, patch = disc_trace(5)
        basis = multiplier_basis(trace)
        B = coupling_matrix(basis, 2, patch.space.dim)
        rng = np.random.default_rng(23)
        mu = rng.normal(size=basis.space.dim)
        v = rng.normal(size=patch.space.dim * 2)
        lhs = mu @ (B @ v)
        tq = basis.quadrature
        mu_vals = basis.values @ mu
        vn = (tq.values @ v.reshape(-1, 2)[trace.dof_map]) @ trace.normal
        rhs = (mu_vals * vn * tq.wmeas).sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("case", sorted(TRACES))
    def test_products_match_pointwise_oracles(self, case):
        """The moment products give the pointwise-scattered coupling and masses, on the same pattern."""
        trace, patch = TRACES[case]()
        basis = multiplier_basis(trace)
        nd = patch.ndim
        B, ref = coupling_matrix(basis, nd, patch.space.dim), coupling_oracle(basis, nd, patch.space.dim)
        assert B.shape == ref.shape
        np.testing.assert_array_equal(B.indptr, ref.indptr)
        np.testing.assert_array_equal(B.indices, ref.indices)
        assert np.all(B.data != 0.0)
        np.testing.assert_allclose(B.data, ref.data, rtol=1e-14, atol=0.0)
        for got, want in zip(scalar_coupling_and_masses(basis), scalar_coupling_and_masses_oracle(basis)):
            np.testing.assert_array_equal(got != 0.0, want != 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestActiveSetUpdate:
    def make_state(self, lam, gap):
        lam = np.asarray(lam, dtype=float)
        return ContactState(
            lam=lam,
            weighted_gap=np.asarray(gap, dtype=float),
            active=np.zeros(lam.size, dtype=bool),
            measures=np.ones(lam.size),
        )

    def test_zero_multiplier_positive_gap_inactive(self):
        state, _ = active_set_update(self.make_state([0.0], [0.5]))
        assert not state.active[0]

    def test_zero_multiplier_negative_gap_active(self):
        state, _ = active_set_update(self.make_state([0.0], [-0.2]))
        assert state.active[0]

    def test_negative_multiplier_stays_active(self):
        for gap in (-1.0, 0.0, 2.0):
            state, _ = active_set_update(self.make_state([-0.3], [gap]))
            assert state.active[0]

    def test_positive_multiplier_reset_and_deactivated(self):
        state, _ = active_set_update(self.make_state([0.7], [-1.0]))
        assert not state.active[0]
        assert state.lam[0] == 0.0

    def test_changed_count(self):
        base = ContactState(
            lam=np.array([-1.0, 0.0, 0.0]),
            weighted_gap=np.array([0.0, -1.0, 1.0]),
            active=np.array([True, False, True]),
            measures=np.ones(3),
        )
        new, changed = active_set_update(base)
        assert list(new.active) == [True, True, False]
        assert changed == 2


class TestContactResidualAndTangent:
    """The contact blocks of the residual and tangent, as the solvers read them.

    The contact force ``B^T lam`` and the active constraint rows of the
    coupling come from the dense block of a band layout over the dofs the
    coupling touches (``solver._BandLayout``).
    """

    def layout(self, n_spans, fixed_face=None):
        trace, patch = flat_trace(n_spans)
        basis = multiplier_basis(trace)
        B = coupling_matrix(basis, 2, patch.space.dim)
        constraints = {} if fixed_face is None else dirichlet_on_face(patch, fixed_face, component=1)
        K = assemble_stiffness(patch, LinearMaterial(1.0, 0.3))
        none = np.zeros(B.shape[0], dtype=bool)  # plain band order, no walk
        layout = solver._band_layout(K.stencil, B, constraints, none)
        fixed = np.fromiter(constraints, dtype=np.int64, count=len(constraints))
        assert np.array_equal(layout.fixed, fixed)  # the layout's split of the constraints
        return layout, B, basis, fixed

    def test_zero_multipliers_zero_force(self):
        layout, B, basis, _ = self.layout(3)
        r_u = layout.scatter(layout.Bc.T @ np.zeros(basis.space.dim))
        assert r_u.shape == (B.shape[1],) and np.all(r_u == 0.0)

    def test_zero_gap_zero_constraint_residual(self):
        # the face on the plane, slid along it: every weighted gap stays zero; lifted
        # by d, every weighted gap is d
        layout, B, basis, _ = self.layout(3)
        g0 = GapField(trace=basis.trace, normal=np.array([0.0, 1.0]), offset=0.0).gap_at(
            grid_points(basis.quadrature.abscissae)
        )
        gap_integrals = weighted_gap(g0, basis) * basis.measures
        u = np.zeros(B.shape[1])
        u[0::2] = 0.37
        np.testing.assert_array_equal(gap_integrals + layout.Bc @ u[layout.cols], 0.0)
        u[1::2] = 0.25
        wg = (gap_integrals + layout.Bc @ u[layout.cols]) / basis.measures
        np.testing.assert_allclose(wg, 0.25, rtol=1e-13)

    def test_force_matches_coupling_transpose(self):
        layout, B, basis, _ = self.layout(1)
        lam = np.array([-1.0])
        np.testing.assert_allclose(layout.scatter(layout.Bc.T @ lam), B.T @ lam, atol=1e-13)

    def test_tangent_rows(self):
        # the active rows of the masked block are those of the coupling, with the
        # fixed columns zeroed
        layout, B, basis, fixed = self.layout(5, fixed_face=face_id(1, 0))
        assert fixed.size and np.isin(fixed, layout.cols).any()
        n = B.shape[1]
        free = np.ones(n)
        free[fixed] = 0.0
        Bhat = (B @ sp.diags(free)).toarray()
        rng = np.random.default_rng(2)
        for mask in (np.zeros(5, bool), np.ones(5, bool), rng.uniform(size=5) < 0.5):
            rows = np.flatnonzero(mask)
            full = np.zeros((rows.size, n))
            full[:, layout.cols] = layout.Bhc[rows]
            np.testing.assert_allclose(full, Bhat[rows], atol=1e-15)
        full = np.zeros(B.shape)
        full[:, layout.cols] = layout.Bc
        assert np.array_equal(full, B.toarray())


class TestStateDump:
    def test_csv_schema(self, tmp_path):
        trace, _ = flat_trace(2)
        basis = multiplier_basis(trace)
        state = ContactState(
            lam=np.array([-0.5, 0.0]),
            weighted_gap=np.array([0.0, 0.25]),
            active=np.array([True, False]),
            measures=basis.measures,
        )
        path = tmp_path / "contact_state.csv"
        dump_contact_state(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "K,lambda,weighted_gap,status,measure"
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "active"
        assert lines[2].split(",")[3] == "inactive"
