"""Spline core tests: knot vectors, Cox-de Boor evaluation, insertion, refinement, multiplier spaces."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igacontact.assembly import _gauss_points, gauss_rule, iter_element_blocks
from igacontact.geometry import elevate_bezier_degree, quarter_disc_patch, sphere_octant_patch
from igacontact.splines import (
    KnotVector,
    SplineError,
    TensorSpace,
    WeightedSpace,
    _direction_matrices,
    _grid_fields,
    eval_basis_batch,
    find_spans,
    grid_basis_matrix,
    insertion_matrix,
    interior_knot_vector,
    make_open_knot_vector,
    multiplier_space,
)

from helpers import basis_at, map_at, map_points


def eval_at(kv, z, n_deriv=0):
    """Basis functions at one point through eval_basis_batch: (first index, values, derivative rows)."""
    first, values, ders = eval_basis_batch(kv, np.array([z]), n_deriv)
    return int(first[0]), values[0], ders[0]


def knot_insertion(kv, controls, zeta_new):
    """Oracle: Boehm insertion of a single knot; leading axis of ``controls`` indexes basis functions."""
    p, U = kv.degree, kv.knots
    k = int(find_spans(kv, [zeta_new])[0])
    out = np.empty((controls.shape[0] + 1,) + controls.shape[1:])
    out[: k - p + 1] = controls[: k - p + 1]
    out[k + 1 :] = controls[k:]
    for i in range(k - p + 1, k + 1):
        alpha = (zeta_new - U[i]) / (U[i + p] - U[i])
        out[i] = alpha * controls[i] + (1.0 - alpha) * controls[i - 1]
    return KnotVector(np.insert(U, k + 1, zeta_new), p), out


def boehm_refine(patch, breakpoints_per_axis):
    """Oracle: the patch refined by sequential Boehm insertion of each new breakpoint."""
    kvs = list(patch.knot_vectors)
    hw = patch.homogeneous_controls().reshape(patch.space.space.n_basis + (patch.ndim + 1,))
    for axis, breaks in enumerate(breakpoints_per_axis):
        hw = np.moveaxis(hw, axis, 0)
        for z in breaks:
            kvs[axis], flat = knot_insertion(kvs[axis], hw.reshape(hw.shape[0], -1), z)
            hw = flat.reshape((-1,) + hw.shape[1:])
        hw = np.moveaxis(hw, 0, axis)
    return kvs, hw[..., :-1].reshape(-1, patch.ndim) / hw[..., -1].reshape(-1, 1), hw[..., -1].ravel()


def expand_by_multiplicity(breakpoints, degree, interior):
    """Independent oracle: open knot vector as the brute-force expansion."""
    mult = [degree + 1] + list(interior) + [degree + 1]
    out = []
    for z, m in zip(breakpoints, mult):
        out.extend([z] * m)
    return np.array(out)


@st.composite
def open_knot_vectors(draw):
    degree = draw(st.integers(min_value=1, max_value=4))
    n_interior = draw(st.integers(min_value=0, max_value=4))
    interior = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.05, max_value=0.95),
                min_size=n_interior,
                max_size=n_interior,
                unique=True,
            )
        )
    )
    breaks = [0.0] + interior + [1.0]
    mults = [draw(st.integers(min_value=1, max_value=max(degree - 1, 1))) for _ in interior]
    return make_open_knot_vector(breaks, degree, mults)


class TestMakeOpenKnotVector:
    def test_single_bezier_element(self):
        kv = make_open_knot_vector([0, 1], 2)
        assert np.array_equal(kv.knots, [0, 0, 0, 1, 1, 1])
        assert kv.n_basis == 3

    def test_interior_breakpoint_count(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        assert np.array_equal(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])
        assert kv.n_basis == 4

    def test_matches_expansion_oracle(self):
        # frozen from the expand-by-multiplicity oracle
        expected = expand_by_multiplicity([0, 0.5, 1], 3, [2])
        assert np.array_equal(expected, [0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1])
        kv = make_open_knot_vector([0, 0.5, 1], 3, [2])
        assert np.array_equal(kv.knots, expected)
        assert kv.n_basis == 6  # sum(m_j) - p - 1

    def test_rejects_non_increasing(self):
        with pytest.raises(SplineError):
            make_open_knot_vector([0, 0.5, 0.5, 1], 2)

    def test_rejects_multiplicity_out_of_range(self):
        with pytest.raises(SplineError):
            make_open_knot_vector([0, 0.5, 1], 2, [2])
        with pytest.raises(SplineError):
            make_open_knot_vector([0, 0.5, 1], 3, [0])


class TestFindSpan:
    def test_single_span(self):
        kv = make_open_knot_vector([0, 1], 2)
        assert find_spans(kv, [0.5])[0] == 2

    def test_second_span(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        assert find_spans(kv, [0.75])[0] == 3

    def test_right_endpoint_maps_to_last_span(self):
        kv = make_open_knot_vector([0, 1], 2)
        assert find_spans(kv, [1.0])[0] == 2

    def test_outside_domain_raises(self):
        kv = make_open_knot_vector([0, 1], 2)
        with pytest.raises(SplineError):
            find_spans(kv, [1.5])


class TestEvalBasis:
    def test_quadratic_bernstein_midpoint(self):
        kv = make_open_knot_vector([0, 1], 2)
        first, values, _ = eval_at(kv, 0.5)
        assert first == 0
        np.testing.assert_allclose(values, [0.25, 0.5, 0.25], atol=1e-15)

    @given(open_knot_vectors(), st.floats(min_value=0.0, max_value=1.0))
    def test_partition_of_unity(self, kv, z):
        _, values, _ = eval_at(kv, z)
        assert abs(values.sum() - 1.0) <= 1e-12
        assert np.all(values >= -1e-15)

    def test_derivative_matches_finite_differences(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        z, h = 0.25, 1e-6
        _, _, ders = eval_at(kv, z, n_deriv=1)
        assert abs(ders[0].sum()) <= 1e-10
        plus = eval_at(kv, z + h)[1]
        minus = eval_at(kv, z - h)[1]
        fd = (plus - minus) / (2 * h)
        np.testing.assert_allclose(ders[0], fd, atol=1e-6)

    @given(open_knot_vectors())
    @settings(max_examples=40)
    def test_derivative_rows_sum_to_zero(self, kv):
        if kv.degree < 1:
            return
        z = 0.37
        _, _, ders = eval_at(kv, z, n_deriv=1)
        for row in ders:
            scale = max(np.abs(row).max(), 1.0)
            assert abs(row.sum()) <= 1e-10 * scale

    def test_second_derivatives_rejected(self):
        kv = make_open_knot_vector([0, 0.5, 1], 3)
        with pytest.raises(SplineError, match="first derivatives"):
            eval_at(kv, 0.25, n_deriv=2)

    def test_local_support(self):
        kv = make_open_knot_vector(np.linspace(0, 1, 6), 3)
        rng = np.random.default_rng(7)
        for z in rng.uniform(0, 1, 50):
            first, values, _ = eval_at(kv, z)
            assert values.size == kv.degree + 1
            # function i vanishes outside [knots[i], knots[i+p+1]]
            for j, v in enumerate(values):
                i = first + j
                if v > 1e-14:
                    assert kv.knots[i] <= z <= kv.knots[i + kv.degree + 1]

    def test_partition_of_unity_bulk(self):
        kv = make_open_knot_vector(np.linspace(0, 1, 9), 3, [1, 2, 1, 2, 1, 2, 1])
        rng = np.random.default_rng(123)
        z = rng.uniform(0, 1, 10_000)
        _, values, _ = eval_basis_batch(kv, z)
        np.testing.assert_array_less(np.abs(values.sum(axis=1) - 1.0), 1e-12)
        assert values.min() >= -1e-15

    def test_degree_zero_indicators(self):
        kv = KnotVector(np.array([0.0, 0.5, 1.0]), 0)
        first, values, _ = eval_at(kv, 0.25)
        assert first == 0 and values[0] == 1.0
        assert eval_at(kv, 0.5)[0] == 1  # half-open convention
        assert eval_at(kv, 1.0)[0] == 1  # right endpoint stays in the last element

    def test_degree_zero_derivatives_are_zero(self):
        kv = KnotVector(np.array([0.0, 0.5, 1.0]), 0)
        _, values, ders = eval_basis_batch(kv, np.array([0.1, 0.6, 0.9]), 1)
        assert ders.shape == (3, 1, 1) and np.all(ders == 0.0)
        np.testing.assert_array_equal(values, 1.0)


class TestNurbsBasis:
    def test_unit_weights_reduce_to_bsplines(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        ws = WeightedSpace(TensorSpace((kv,)), np.ones(kv.n_basis))
        idx, vals = basis_at(ws, [[0.3]])
        first, values, _ = eval_at(kv, 0.3)
        np.testing.assert_allclose(vals[0], values, atol=1e-15)
        assert idx[0, 0] == first

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_rational_partition_of_unity(self, z):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        ws = WeightedSpace(TensorSpace((kv,)), np.array([1.0, 0.5, 2.0, 1.5]))
        _, vals = basis_at(ws, [[z]])
        assert abs(vals.sum() - 1.0) <= 1e-12

    def test_circle_arc_weights_midpoint(self):
        kv = make_open_knot_vector([0, 1], 2)
        w = np.array([1.0, 1.0 / math.sqrt(2.0), 1.0])
        ws = WeightedSpace(TensorSpace((kv,)), w)
        _, vals = basis_at(ws, [[0.5]])
        # direct formula: w_i B_i / sum(w B) with Bernstein (0.25, 0.5, 0.25)
        raw = w * np.array([0.25, 0.5, 0.25])
        np.testing.assert_allclose(vals[0], raw / raw.sum(), atol=1e-15)

    def test_gradient_quotient_rule_against_fd(self):
        kvx = make_open_knot_vector([0, 0.5, 1], 2, [1])
        kvy = make_open_knot_vector([0, 1], 2)
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, 4 * 3)
        ws = WeightedSpace(TensorSpace((kvx, kvy)), w)
        pt = np.array([0.3, 0.6])
        # the rational functions themselves are the map whose control points are the identity
        _, grads = map_at(ws, np.eye(ws.dim), pt)
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            vp, _ = map_at(ws, np.eye(ws.dim), pt + e)
            vm, _ = map_at(ws, np.eye(ws.dim), pt - e)
            np.testing.assert_allclose(grads[0, :, d], (vp[0] - vm[0]) / (2 * h), atol=1e-6)


class TestKnotInsertion:
    def test_identity_line_preserved(self):
        kv = make_open_knot_vector([0, 1], 2)
        controls = np.array([0.0, 0.5, 1.0])  # identity map coefficients
        kv2, T = insertion_matrix(kv, [0.5])
        c2 = T @ controls
        zs = np.linspace(0, 1, 10)
        for z in zs:
            first, values, _ = eval_at(kv2, z)
            val = values @ c2[first : first + kv2.degree + 1]
            assert abs(val - z) <= 1e-14

    def test_insertions_commute(self):
        # inserting 0.3 then 0.7, 0.7 then 0.3, or both at once gives one refinement
        kv = make_open_knot_vector([0, 1], 3)
        rng = np.random.default_rng(11)
        controls = rng.normal(size=(4, 2))
        kv3, T3 = insertion_matrix(kv, [0.3])
        kva, Ta = insertion_matrix(kv3, [0.7])
        kv7, T7 = insertion_matrix(kv, [0.7])
        kvb, Tb = insertion_matrix(kv7, [0.3])
        kvc, Tc = insertion_matrix(kv, [0.7, 0.3])
        assert np.array_equal(kva.knots, kvb.knots) and np.array_equal(kva.knots, kvc.knots)
        np.testing.assert_allclose(Ta @ T3 @ controls, Tb @ T7 @ controls, atol=1e-15)
        np.testing.assert_allclose(Tc @ controls, Ta @ T3 @ controls, atol=1e-15)

    def test_random_quadratic_curve_sample_and_compare(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2, [1])
        rng = np.random.default_rng(42)
        controls = rng.normal(size=(4, 2))

        def sample(k, c, z):
            first, values, _ = eval_at(k, z)
            return values @ c[first : first + k.degree + 1]

        before = np.array([sample(kv, controls, z) for z in np.linspace(0, 1, 17)])
        kv2, T = insertion_matrix(kv, [0.3])
        after = np.array([sample(kv2, T @ controls, z) for z in np.linspace(0, 1, 17)])
        np.testing.assert_allclose(after, before, rtol=1e-13, atol=1e-14)

    def test_multiplicity_overflow(self):
        kv, _ = insertion_matrix(make_open_knot_vector([0, 1], 3), [0.5, 0.5])
        with pytest.raises(SplineError):
            insertion_matrix(kv, [0.5])  # would reach multiplicity 3 > p - 1 = 2

    def test_outside_domain_raises(self):
        with pytest.raises(SplineError):
            insertion_matrix(make_open_knot_vector([0, 1], 2), [1.0])

    @pytest.mark.parametrize(
        "kv",
        [
            make_open_knot_vector([0, 1], 2),
            make_open_knot_vector([0, 0.3, 1], 2),
            make_open_knot_vector([0, 0.5, 1], 3, [2]),
            make_open_knot_vector([0, 0.2, 0.6, 1], 4, [3, 1]),
        ],
        ids=["p2-bezier", "p2", "p3-double-knot", "p4-triple-knot"],
    )
    def test_matches_sequential_boehm(self, kv):
        rng = np.random.default_rng(kv.degree)
        new = np.sort(rng.uniform(0.01, 0.99, 9))
        controls = rng.normal(size=(kv.n_basis, 3))
        kv_seq, c_seq = kv, controls
        for z in new:
            kv_seq, c_seq = knot_insertion(kv_seq, c_seq, z)
        kv_one, T = insertion_matrix(kv, new)
        assert np.array_equal(kv_one.knots, kv_seq.knots)
        assert np.abs(T @ controls - c_seq).max() <= 1e-14 * np.abs(c_seq).max()


def _patch_cases():
    graded = np.array([0.05, 0.1, 0.15, 0.2, 0.5, 0.8])
    return {
        "2d-p2": (quarter_disc_patch(1.0), [1 - graded[::-1], graded]),
        "2d-p3": (elevate_bezier_degree(quarter_disc_patch(1.0)), [[0.25, 0.5, 0.75], graded]),
        "3d": (sphere_octant_patch(1.0), [[0.5], graded[:4], [0.3, 0.9]]),
    }


class TestRefineToBreakpoints:
    @pytest.mark.parametrize("case", ["2d-p2", "2d-p3", "3d"])
    def test_matches_sequential_boehm(self, case):
        base, breaks = _patch_cases()[case]
        refined = base.refine_to_breakpoints(breaks)
        kvs, controls, weights = boehm_refine(base, breaks)
        for got, want in zip(refined.knot_vectors, kvs):
            assert np.array_equal(got.knots, want.knots)
        assert np.abs(refined.control_points - controls).max() <= 1e-14 * np.abs(controls).max()
        assert np.abs(refined.space.weights - weights).max() <= 1e-14 * weights.max()

    @pytest.mark.parametrize("case", ["2d-p2", "2d-p3", "3d"])
    def test_map_unchanged(self, case):
        base, breaks = _patch_cases()[case]
        refined = base.refine_to_breakpoints(breaks)
        pts = np.random.default_rng(4).uniform(0, 1, (200, base.ndim))
        want = map_points(base, pts)
        assert np.abs(map_points(refined, pts) - want).max() <= 1e-14 * np.abs(want).max()

    def test_existing_breakpoints_skipped(self):
        base, breaks = _patch_cases()["2d-p2"]
        refined = base.refine_to_breakpoints(breaks)
        assert refined.refine_to_breakpoints(breaks) is refined
        again = refined.refine_to_breakpoints([breaks[0], [0.5, 0.9]])
        assert again.knot_vectors[0] is refined.knot_vectors[0]
        want = np.union1d(refined.knot_vectors[1].breakpoints, [0.9])
        assert np.array_equal(again.knot_vectors[1].breakpoints, want)


class TestInteriorKnotVector:
    def test_strip_single_element(self):
        kv = interior_knot_vector(make_open_knot_vector([0, 1], 2))
        assert np.array_equal(kv.knots, [0, 0, 1, 1])
        assert kv.degree == 0

    def test_strip_two_elements(self):
        kv = interior_knot_vector(make_open_knot_vector([0, 0.5, 1], 2, [1]))
        assert np.array_equal(kv.knots, [0, 0, 0.5, 1, 1])

    def test_degree_zero_space_counts_nonempty_spans(self):
        kv = interior_knot_vector(make_open_knot_vector([0, 0.5, 1], 2, [1]))
        assert kv.n_elements == 2  # piecewise constants live on nonempty spans only

    def test_degree_too_small(self):
        with pytest.raises(SplineError):
            interior_knot_vector(make_open_knot_vector([0, 1], 1))


class TestMultiplierSpace:
    def test_one_constant_per_element(self):
        kv = make_open_knot_vector(np.linspace(0, 1, 5), 2)  # 4 elements
        ms = multiplier_space(TensorSpace((kv,)))
        assert ms.dim == 4
        assert ms.degrees == (0,)

    def test_tensor_product_dimension(self):
        kvx = make_open_knot_vector(np.linspace(0, 1, 5), 2)  # 4 elements
        kvy = make_open_knot_vector(np.linspace(0, 1, 4), 2)  # 3 elements
        ms = multiplier_space(TensorSpace((kvx, kvy)))
        assert ms.dim == 12

    def test_cubic_primal_gives_linear_multipliers(self):
        kv = make_open_knot_vector([0, 0.5, 1], 3, [1])
        ms = multiplier_space(TensorSpace((kv,)))
        # eta = |stripped knots| - (p-2) - 1 after dropping zero-support functions
        assert ms.degrees == (1,)
        assert ms.dim == 3

    def test_multiplier_partition_of_unity(self):
        kv = make_open_knot_vector(np.linspace(0, 1, 6), 2)
        ms = multiplier_space(TensorSpace((kv,)))
        z = np.linspace(0, 1, 101)[:, None]
        _, vals = basis_at(ms, z)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-14)


class TestTensorSpace:
    def test_dimension_product(self):
        kvx = make_open_knot_vector([0, 0.5, 1], 2, [1])
        kvy = make_open_knot_vector([0, 1], 2)
        ts = TensorSpace((kvx, kvy))
        assert ts.dim == 4 * 3

    def test_values_factorize(self):
        kvx = make_open_knot_vector([0, 0.5, 1], 2, [1])
        kvy = make_open_knot_vector([0, 1], 2)
        ts = TensorSpace((kvx, kvy))
        pt = np.array([[0.3, 0.7]])
        idx, vals = basis_at(ts, pt)
        (fx, vx, _), (fy, vy, _) = eval_at(kvx, 0.3), eval_at(kvy, 0.7)
        expected = np.outer(vx, vy).ravel()
        np.testing.assert_allclose(vals[0], expected, atol=1e-15)
        multi0 = (fx, fy)
        assert idx[0, 0] == np.ravel_multi_index(multi0, ts.n_basis)


class TestGridEvaluator:
    @pytest.mark.parametrize(
        "patch",
        [
            quarter_disc_patch(1.0).refine_to_breakpoints([[0.3, 0.6], [0.1, 0.25, 0.5]]),
            sphere_octant_patch(1.0).refine_to_breakpoints([[0.5], [0.25, 0.5], [0.5]]),
        ],
        ids=["disc", "octant"],
    )
    def test_matches_element_blocks(self, patch):
        # rational values from the basis matrix, and physical gradients from the gradients of
        # the identity-coefficient fields and of the map, at the Gauss grid of the elements
        nd, n, n_gauss = patch.ndim, patch.space.dim, max(patch.degrees) + 1
        kvs = patch.knot_vectors
        abscissae = [_gauss_points(kv, gauss_rule(n_gauss))[0].ravel() for kv in kvs]
        mats = [_direction_matrices(kv, z) for kv, z in zip(kvs, abscissae)]
        values = grid_basis_matrix([v for v, _ in mats], patch.space.weights).toarray()  # (m, n)
        m = values.shape[0]
        grads = _grid_fields(patch.space.homogeneous(np.eye(n)), mats, None)[1].reshape(n, nd, m)
        jac = _grid_fields(patch.space.homogeneous(patch.control_points), mats, None)[1].reshape(nd, nd, m)
        jac_inv = np.linalg.inv(np.moveaxis(jac, -1, 0))  # (m, j, i): dzeta_j / dx_i
        grads_phys = np.einsum("ajq,qji->qai", grads, jac_inv)  # (m, n, d)
        # grid point of Gauss point q of element e: e_d * n_gauss + q_d in each direction
        elems = np.indices([kv.n_elements for kv in kvs]).reshape(nd, -1).T
        local = np.indices((n_gauss,) * nd).reshape(nd, -1).T
        at = np.ravel_multi_index(
            tuple(elems[:, None, d] * n_gauss + local[None, :, d] for d in range(nd)), [z.size for z in abscissae]
        )
        blocks = list(iter_element_blocks(patch, n_gauss))
        dofs = np.concatenate([b.dofs for b in blocks])
        want_values = np.concatenate([b.values for b in blocks])
        want_grads = np.concatenate([b.grads_phys for b in blocks])
        got_values = values[at[:, :, None], dofs[:, None, :]]
        got_grads = grads_phys[at[:, :, None], dofs[:, None, :]]
        assert np.abs(got_values - want_values).max() <= 1e-13 * np.abs(want_values).max()
        assert np.abs(got_grads - want_grads).max() <= 1e-13 * np.abs(want_grads).max()
        assert np.allclose(values[at].sum(axis=-1), 1.0, rtol=0, atol=1e-14)

    def test_basis_matrix_is_kronecker_product_in_c_order(self):
        kvx = make_open_knot_vector([0, 0.5, 1], 2, [1])
        kvy = make_open_knot_vector([0, 1], 3)
        zx, zy = np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.7])
        E = grid_basis_matrix([_direction_matrices(kvx, zx)[0], _direction_matrices(kvy, zy)[0]])
        for i, x in enumerate(zx):
            for j, y in enumerate(zy):
                (fx, vx, _), (fy, vy, _) = eval_at(kvx, x), eval_at(kvy, y)
                row = E[i * zy.size + j].toarray().reshape(kvx.n_basis, kvy.n_basis)
                want = np.zeros_like(row)
                want[fx : fx + 3, fy : fy + 4] = np.outer(vx, vy)
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)
