"""Verification tests: closed-form contact values, error norms, rate fitting."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from igacontact import assembly, verification
from igacontact.assembly import AssemblyError, iter_element_blocks
from igacontact.benchmarks import RunConfig, quarter_disc_level_patch, sphere_octant_level_patch
from igacontact.contact import multiplier_basis
from igacontact.geometry import (
    NurbsPatch,
    extract_trace,
    face_id,
    quarter_disc_patch,
    unit_square_patch,
)
from igacontact.materials import ElementInversionError
from igacontact.verification import (
    VerificationError,
    arc_coordinate_2d,
    displacement_errors,
    fit_rate,
    geodesic_coordinate_3d,
    hertz_2d,
    hertz_3d,
    multiplier_error_analytic,
    multiplier_error_reference,
)

from helpers import grid_map


class TestHertz2D:
    def test_reference_load(self):
        sol = hertz_2d(1.0, 1.0, 0.3, 0.003)
        assert abs(sol.a - 0.083378) <= 5e-6
        assert abs(sol.p0 - 0.045812) <= 5e-6

    def test_higher_load(self):
        sol = hertz_2d(1.0, 1.0, 0.3, 0.01)
        assert abs(sol.a - 0.15223) <= 5e-6
        assert abs(sol.p0 - 0.083641) <= 5e-6

    def test_zero_load_degenerate(self):
        sol = hertz_2d(1.0, 1.0, 0.3, 0.0)
        assert sol.a == 0.0 and sol.p0 == 0.0
        np.testing.assert_array_equal(sol.pressure_profile([0.0, 0.1]), 0.0)

    def test_defining_identity(self):
        sol = hertz_2d(2.0, 3.0, 0.25, 0.004)
        assert abs(math.pi * sol.a * sol.p0 / 4.0 - sol.radius * sol.load) <= 1e-12

    def test_profile_shape(self):
        sol = hertz_2d(1.0, 1.0, 0.3, 0.003)
        assert sol.pressure_profile(0.0) == pytest.approx(sol.p0)
        assert sol.pressure_profile(sol.a) == 0.0
        assert sol.pressure_profile(2 * sol.a) == 0.0


class TestHertz3D:
    def test_reference_load(self):
        sol = hertz_3d(1.0, 1.0, 0.3, 1e-4)
        assert abs(sol.a - 0.059853) <= 5e-6
        assert abs(sol.p0 - 0.041872) <= 5e-6

    def test_higher_load(self):
        sol = hertz_3d(1.0, 1.0, 0.3, 5e-4)
        assert abs(sol.a - 0.10235) <= 5e-6

    def test_cube_root_scaling(self):
        base = hertz_3d(1.0, 1.0, 0.3, 1e-4)
        scaled = hertz_3d(1.0, 1.0, 0.3, 8e-4)
        assert abs(scaled.a - 2 * base.a) <= 1e-12

    def test_defining_identity(self):
        sol = hertz_3d(1.5, 2.0, 0.3, 2e-4)
        assert abs(2 * sol.a ** 2 * sol.p0 / 3.0 - sol.radius ** 2 * sol.load) <= 1e-12


def displacement_errors_oracle(u_coarse, patch_coarse, u_ref, patch_ref, n_gauss=None):
    """Per-element L2 and H1 difference norms: the reference patch's element
    blocks, the coarse field and the reference geometry evaluated on each
    element's own Gauss grid, LAPACK inverses of the reference geometry
    Jacobian."""
    nd = patch_ref.ndim
    n_gauss = n_gauss or max(patch_ref.degrees) + 1
    uc = np.asarray(u_coarse, dtype=float).reshape(-1, nd)
    ur = np.asarray(u_ref, dtype=float).reshape(-1, nd)
    # parametric points of every element, elements and points in C-order
    x, _ = np.polynomial.legendre.leggauss(n_gauss)
    tables = []
    for kv in patch_ref.knot_vectors:
        b = kv.element_bounds
        tables.append(0.5 * (b[:, :1] + b[:, 1:]) + 0.5 * (b[:, 1:] - b[:, :1]) * x)
    elems = np.indices([t.shape[0] for t in tables]).reshape(nd, -1).T
    l2_sq = 0.0
    h1_semi_sq = 0.0
    start = 0
    for block in iter_element_blocks(patch_ref, n_gauss):
        ce = block.wdet.shape[0]
        # each element's points are the C-order grid of its per-direction Gauss points
        grids = [[tables[d][e[d]] for d in range(nd)] for e in elems[start : start + ce]]
        start += ce
        jac_inv = np.linalg.inv([grid_map(patch_ref.space, patch_ref.control_points, g)[1] for g in grids])
        vals_r = np.einsum("eqa,ead->eqd", block.values, ur[block.dofs])
        grad_r = np.einsum("eai,eqaj->eqij", ur[block.dofs], block.grads_phys)
        coarse = [grid_map(patch_coarse.space, uc, g) for g in grids]
        vals_cc = np.array([u for u, _ in coarse])
        grad_param = np.array([du for _, du in coarse])
        grad_cc = np.einsum("eqdj,eqji->eqdi", grad_param, jac_inv)
        dv = vals_cc - vals_r
        dg = grad_cc - grad_r
        l2_sq += float(np.einsum("eqd,eqd,eq->", dv, dv, block.wdet))
        h1_semi_sq += float(np.einsum("eqij,eqij,eq->", dg, dg, block.wdet))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + h1_semi_sq)


def _disc_config(degree=2):
    return RunConfig(benchmark="hertz2d", degree=degree, base_spans=(3, 6), grading=(0.8, 0.1))


def _octant_config():
    return RunConfig(benchmark="hertz3d", base_spans=(2, 4, 2), grading=(0.5, 0.2))


def _non_nested_pair():
    base = quarter_disc_patch(1.0)
    coarse = base.refine_to_breakpoints([[1.0 / 3.0], [0.3, 0.55]])
    ref = base.refine_to_breakpoints([[0.25, 0.5, 0.75], np.linspace(0.0, 1.0, 7)[1:-1]])
    return coarse, ref


ORACLE_PAIRS = {
    "disc-0-vs-2": lambda: (
        quarter_disc_level_patch(_disc_config(), 0),
        quarter_disc_level_patch(_disc_config(), 2),
    ),
    "disc-cubic-0-vs-1": lambda: (
        quarter_disc_level_patch(_disc_config(3), 0),
        quarter_disc_level_patch(_disc_config(3), 1),
    ),
    "octant-0-vs-1": lambda: (
        sphere_octant_level_patch(_octant_config(), 0),
        sphere_octant_level_patch(_octant_config(), 1),
    ),
    "non-nested": _non_nested_pair,
}


class TestDisplacementErrors:
    @pytest.mark.parametrize("pair", ORACLE_PAIRS.values(), ids=ORACLE_PAIRS.keys())
    @pytest.mark.parametrize("slab_points", [None, 1], ids=["default-slabs", "row-slabs"])
    def test_matches_per_element_oracle(self, pair, slab_points, monkeypatch):
        if slab_points:  # one element row per slab: the slab sums add up to the same norms
            monkeypatch.setattr(verification, "_SLAB_POINTS", slab_points)
        coarse, ref = pair()
        nd = ref.ndim
        rng = np.random.default_rng(23)
        u_c = rng.normal(size=coarse.space.dim * nd)
        u_r = rng.normal(size=ref.space.dim * nd)
        got = displacement_errors([(u_c, coarse)], u_r, ref)[0]
        want = displacement_errors_oracle(u_c, coarse, u_r, ref)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w

    def test_reference_evaluated_once_for_all_levels(self, monkeypatch):
        # three coarse fields in one call: each equals its own call bit for bit, and
        # every slab evaluates the reference once and each coarse field once
        monkeypatch.setattr(verification, "_SLAB_POINTS", 1)
        config = _disc_config()
        ref = quarter_disc_level_patch(config, 3)
        rng = np.random.default_rng(29)
        u_r = rng.normal(size=ref.space.dim * 2)
        coarse = []
        for level in range(3):
            patch = quarter_disc_level_patch(config, level)
            coarse.append((rng.normal(size=patch.space.dim * 2), patch))
        alone = [displacement_errors([pair], u_r, ref)[0] for pair in coarse]
        evaluations = []
        original = verification._grid_fields

        def counting(coefs, mats, rows):
            evaluations.append(coefs.shape[0])
            return original(coefs, mats, rows)

        monkeypatch.setattr(verification, "_grid_fields", counting)
        together = displacement_errors(coarse + [(u_r, ref)], u_r, ref)
        assert together == alone + [(0.0, 0.0)]
        n_slabs = evaluations.count(5)  # reference: geometry, u_ref and the weight
        assert n_slabs > 1 and len(evaluations) == 4 * n_slabs

    def test_no_element_block_pass(self, monkeypatch):
        passes = []
        original = assembly.iter_element_blocks

        def counting(*args, **kwargs):
            passes.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(assembly, "iter_element_blocks", counting)
        monkeypatch.setattr(verification, "iter_element_blocks", counting, raising=False)
        coarse, ref = _non_nested_pair()
        u_c = np.ones(coarse.space.dim * 2)
        u_r = np.zeros(ref.space.dim * 2)
        ((l2, _),) = displacement_errors([(u_c, coarse)], u_r, ref)
        assert l2 > 0.0
        assert passes == []

    def test_inverted_geometry_raises_assembly_error(self):
        patch = unit_square_patch(2, 2)
        mirrored = NurbsPatch(patch.space, patch.control_points * [-1.0, 1.0])
        u = np.ones(patch.space.dim * 2)
        with pytest.raises(AssemblyError, match="inverted geometry Jacobian") as err:
            displacement_errors([(u, patch)], np.zeros_like(u), mirrored)
        assert not isinstance(err.value, ElementInversionError)

    def test_identical_solutions_give_zero(self):
        patch = unit_square_patch(2, 3)
        u = np.random.default_rng(1).normal(size=patch.space.dim * 2)
        ((l2, h1),) = displacement_errors([(u, patch)], u, patch)
        assert l2 == 0.0 and h1 == 0.0

    def test_constant_difference(self):
        patch = unit_square_patch(2, 3)
        rng = np.random.default_rng(2)
        u = rng.normal(size=patch.space.dim * 2)
        c = 0.37
        v = u.copy()
        v[0::2] += c
        ((l2, h1),) = displacement_errors([(v, patch)], u, patch)
        assert abs(l2 - c) <= 1e-12
        assert abs(h1 - c) <= 1e-12

    def test_polynomial_difference_closed_form(self):
        # difference (x^2, 0) on the unit square:
        #   L2^2 = int x^4 = 1/5, |grad|^2 = int (2x)^2 = 4/3
        coarse = unit_square_patch(2, 2)
        ref = coarse.refine_to_breakpoints([[0.25, 0.75], [0.25, 0.75]])
        g = coarse.knot_vectors[0].greville()
        # quadratic splines represent x^2 with Greville-product coefficients
        kv = coarse.knot_vectors[0]
        p = kv.degree
        coef_x2 = np.array(
            [
                kv.knots[i + 1 : i + p + 1].prod() if p == 2 else 0.0
                for i in range(kv.n_basis)
            ]
        )
        u_c = np.zeros(coarse.space.dim * 2)
        u_c[0::2] = np.repeat(coef_x2, coarse.space.space.n_basis[1])
        u_r = np.zeros(ref.space.dim * 2)
        ((l2, h1),) = displacement_errors([(u_c, coarse)], u_r, ref)
        assert abs(l2 - math.sqrt(1.0 / 5.0)) <= 1e-10
        assert abs(h1 - math.sqrt(1.0 / 5.0 + 4.0 / 3.0)) <= 1e-10

    def test_dimension_mismatch_raises(self):
        p2 = unit_square_patch(2, 2)
        with pytest.raises(VerificationError):
            displacement_errors([(np.zeros(4), p2)], np.zeros(p2.space.dim * 2), p2)


class TestMultiplierErrors:
    def flat_basis(self, n):
        patch = unit_square_patch(2, n)
        trace = extract_trace(patch, face_id(1, 0), rigid_normal=[0.0, 1.0])
        return multiplier_basis(trace)

    def r_flat(self, tq):
        return tq.abscissae[0] if hasattr(tq, "abscissae") else np.atleast_2d(tq)[:, 0]

    def test_zero_multiplier_error_is_profile_norm(self):
        basis = self.flat_basis(64)
        analytic = hertz_2d(1.0, 1.0, 0.3, 0.003)
        err = multiplier_error_analytic(
            np.zeros(basis.space.dim), basis, analytic, self.r_flat, n_gauss=10
        )
        # closed form: int_0^a p0^2 (1 - r^2/a^2) dr = (2/3) p0^2 a on the half band
        exact = analytic.p0 * math.sqrt(2.0 * analytic.a / 3.0)
        assert abs(err - exact) <= 1e-4 * exact

    def test_best_constant_residual_single_active_element(self):
        # two elements with the contact edge a = 0.5 on the boundary; one
        # active multiplier equal to the profile mean leaves exactly the
        # least-squares residual, the second element carries zero pressure
        basis = self.flat_basis(2)
        a_target = 0.5
        from dataclasses import replace

        analytic = replace(hertz_2d(1.0, 1.0, 0.3, 0.003), a=a_target)
        profile = lambda r: analytic.pressure_profile(r)
        mean = quad(profile, 0.0, a_target)[0] / a_target
        lam = -np.array([mean, 0.0])
        err = multiplier_error_analytic(lam, basis, analytic, self.r_flat, n_gauss=30)
        resid_sq, _ = quad(lambda r: (profile(r) - mean) ** 2, 0.0, a_target)
        assert abs(err - math.sqrt(resid_sq)) <= 1e-4 * math.sqrt(resid_sq)

    def test_reference_mode_self_comparison_is_zero(self):
        basis = self.flat_basis(4)
        lam = np.array([-1.0, -2.0, -0.5, 0.0])
        err = multiplier_error_reference(lam, basis, lam, basis)
        assert err <= 1e-15

    def test_arc_coordinate_quarter_circle(self):
        from igacontact.geometry import QUARTER_DISC_CONTACT_FACE, quarter_disc_patch

        trace = extract_trace(
            quarter_disc_patch(1.0).refine_to_breakpoints([[], np.linspace(0, 1, 9)[1:-1]]),
            QUARTER_DISC_CONTACT_FACE,
        )
        r_of = arc_coordinate_2d(trace)
        r_end = r_of(np.array([[1.0]]))[0]
        assert abs(r_end - math.pi / 2) <= 1e-6
        r_mid = r_of(np.array([[0.5]]))[0]
        assert abs(r_mid - math.pi / 4) <= 1e-6  # midpoint of a symmetric conic

    def test_geodesic_coordinate(self):
        r_of = geodesic_coordinate_3d(2.0, [0.0, 0.0, -1.0])
        pts = np.array([[0.0, 0.0, -2.0], [2.0, 0.0, 0.0]])
        np.testing.assert_allclose(r_of(pts), [0.0, 2.0 * math.pi / 2], atol=1e-12)


class TestFitRate:
    def test_exact_quadratic(self):
        assert abs(fit_rate([(0.1, 0.01), (0.05, 0.0025)]) - 2.0) <= 1e-12

    def test_stagnation(self):
        assert abs(fit_rate([(0.1, 3.0), (0.05, 3.0)])) <= 1e-12

    def test_noisy_three_halves(self):
        rng = np.random.default_rng(77)
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        errs = 0.7 * hs ** 1.5 * (1.0 + rng.uniform(-0.01, 0.01, 4))
        slope = fit_rate(list(zip(hs, errs)))
        assert 1.45 <= slope <= 1.55

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scaling_invariance(self, scale):
        pairs = [(0.1, 0.02), (0.05, 0.007), (0.025, 0.0024)]
        scaled = [(h, scale * e) for h, e in pairs]
        assert abs(fit_rate(pairs) - fit_rate(scaled)) <= 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(VerificationError):
            fit_rate([(0.1, 0.01)])
        with pytest.raises(VerificationError):
            fit_rate([(0.1, -0.01), (0.05, 0.003)])
