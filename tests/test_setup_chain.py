"""The per-level set-up chain against its earlier formulations, bit for bit, and the breakpoint matching.

Every level builds its refined patch, its multiplier basis on the contact
trace and the coupling between the two.  The chain builds each array once
(Oslo rows in one array, breakpoints matched by sorted searches, the
contact moments summed from per-point tables); the oracles in ``helpers``
are the formulations it replaced, and the arrays must be the same bytes.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from igacontact import benchmarks
from igacontact.assembly import assemble_load
from igacontact.benchmarks import RunConfig, bisect_breakpoints
from igacontact.contact import multiplier_basis, scalar_coupling_and_masses
from igacontact.geometry import (
    QUARTER_DISC_CONTACT_FACE,
    QUARTER_DISC_LOAD_FACE,
    SPHERE_OCTANT_CONTACT_FACE,
    SPHERE_OCTANT_LOAD_FACE,
    NurbsPatch,
    _new_breakpoints,
    elevate_bezier_degree,
    extract_trace,
    graded_breakpoints,
    quarter_disc_patch,
    sphere_octant_patch,
)
from igacontact.splines import TensorSpace, WeightedSpace, insertion_matrix, make_open_knot_vector

from helpers import (
    bisect_sorted,
    contact_setup_oracle,
    level_patch_oracle,
    load_oracle,
    new_breakpoints_isclose,
    oslo_rows_padded,
    refine_oracle,
)


def assert_bits(got, want):
    """Same dtype, shape and bytes: -0.0 and 0.0 differ, and so would any rounding."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_csr_bits(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert_bits(getattr(got, name), getattr(want, name))


# the levels of the gated workloads, hertz3d-coarse and one degree-3 level
LEVELS = {
    "hertz2d-p003": (RunConfig("hertz2d", pressure=0.003, base_spans=(3, 6), grading=(0.8, 0.1)), (0, 1, 2, 4)),
    "hertz2d-large-p01": (RunConfig("hertz2d-large", pressure=0.1, base_spans=(3, 6), grading=(0.7, 0.45)), (0, 1, 3)),
    "hertz3d-coarse": (RunConfig("hertz3d", pressure=1e-4, base_spans=(2, 4, 2), grading=(0.5, 0.2)), (0, 2)),
    "hertz2d-p3": (RunConfig("hertz2d", degree=3, pressure=0.003, base_spans=(3, 6), grading=(0.8, 0.1)), (2,)),
}
CASES = [(name, level) for name, (_, levels) in LEVELS.items() for level in levels]


def level_patch(config, level):
    if config.benchmark == "hertz3d":
        return benchmarks.sphere_octant_level_patch(config, level)
    return benchmarks.quarter_disc_level_patch(config, level)


def faces(config):
    """Contact face, rigid normal and load face of a run's patch."""
    if config.benchmark == "hertz3d":
        return SPHERE_OCTANT_CONTACT_FACE, [0.0, 0.0, 1.0], SPHERE_OCTANT_LOAD_FACE
    return QUARTER_DISC_CONTACT_FACE, [-1.0, 0.0], QUARTER_DISC_LOAD_FACE


@pytest.mark.parametrize("name,level", CASES, ids=[f"{n}-L{l}" for n, l in CASES])
class TestLevelsMatchOracles:
    def test_patch(self, name, level):
        config, levels = LEVELS[name]
        patch, want = level_patch(config, level), level_patch_oracle(config, level)
        for got_kv, want_kv in zip(patch.knot_vectors, want.knot_vectors):
            assert_bits(got_kv.knots, want_kv.knots)
        assert_bits(patch.control_points, want.control_points)
        assert_bits(patch.space.weights, want.space.weights)
        if level != levels[0]:  # the coarser level's net prolongated to this one, as a Newton start is
            coarse = level_patch(config, levels[levels.index(level) - 1])
            field = NurbsPatch(coarse.space, np.arange(coarse.control_points.size, dtype=float).reshape(-1, patch.ndim))
            breaks = [kv.breakpoints for kv in patch.knot_vectors]
            assert_bits(field.refine_to_breakpoints(breaks).control_points, refine_oracle(field, breaks).control_points)

    def test_contact_setup_and_load(self, name, level):
        config, _ = LEVELS[name]
        patch = level_patch(config, level)
        face, normal, load_face = faces(config)
        setup = benchmarks._contact_setup(patch, face, normal, -config.radius)
        want = contact_setup_oracle(patch, face, normal, -config.radius)
        tq = setup.basis.quadrature
        for key, got in (("phys", tq.phys), ("weights", tq.weights), ("measure", tq.measure)):
            assert_bits(got, want[key])
        assert_csr_bits(tq.values, want["E"])
        assert_csr_bits(setup.basis.values, want["M"])
        assert_bits(setup.basis.measures, want["measures"])
        assert_bits(setup.gap_integrals, want["gap_integrals"])
        assert_csr_bits(setup.coupling, want["coupling"])
        traction = {load_face: np.linspace(0.5, 1.5, patch.ndim)}
        assert_bits(assemble_load(patch, traction), load_oracle(patch, traction))


@pytest.mark.parametrize("name,level", [("hertz2d-p003", 1), ("hertz3d-coarse", 0), ("hertz2d-p3", 2)])
def test_stability_masses_are_the_sparse_products(name, level):
    config, _ = LEVELS[name]
    face, normal, _ = faces(config)
    basis = multiplier_basis(extract_trace(level_patch(config, level), face, normal))
    M, E, w = basis.values, basis.quadrature.values, basis.quadrature.wmeas

    def weighted(A):
        return sp.csr_matrix((A.data * np.repeat(w, np.diff(A.indptr)), A.indices, A.indptr), shape=A.shape)

    want = (M.T @ weighted(E)).toarray(), (E.T @ weighted(E)).toarray(), (M.T @ weighted(M)).toarray()
    for got, product in zip(scalar_coupling_and_masses(basis), want):
        assert_bits(got, product)


def _knot_vectors():
    return [
        make_open_knot_vector([0, 1], 2),
        make_open_knot_vector([0, 0.3, 1], 2),
        make_open_knot_vector([0, 0.5, 1], 3, [2]),
        make_open_knot_vector([0, 0.2, 0.6, 1], 4, [3, 1]),
        quarter_disc_patch(1.0).knot_vectors[1],
    ]


class TestRefinementPieces:
    @pytest.mark.parametrize("kv", _knot_vectors(), ids=["p2-bezier", "p2", "p3-double-knot", "p4-triple-knot", "arc"])
    def test_insertion_matrix_is_the_padded_oslo_rows(self, kv):
        rng = np.random.default_rng(kv.degree + kv.knots.size)
        for new in (np.sort(rng.uniform(0.01, 0.99, 9)), bisect_breakpoints(graded_breakpoints(6, 0.7, 0.45), 4)[1:-1]):
            new = new[np.isin(new, kv.knots, invert=True)]
            refined, T = insertion_matrix(kv, new)
            tau, want = oslo_rows_padded(kv, new)
            assert_bits(refined.knots, tau)
            assert_bits(T, want)

    def test_bisection_is_the_sorted_one(self):
        rng = np.random.default_rng(5)
        cases = [graded_breakpoints(6, 0.8, 0.1), np.linspace(0.0, 1.0, 4), np.cumsum(rng.uniform(1e-9, 1.0, 12))]
        for breaks in cases:
            for times in range(6):
                assert_bits(bisect_breakpoints(breaks, times), bisect_sorted(breaks, times))

    def test_gated_breakpoints_match_the_isclose_filter(self):
        # on the levels of the gated workloads no two breakpoints lie within 1e-5 of each other
        for config, levels in LEVELS.values():
            base = benchmarks._base_patch(config)
            for level in levels:
                for kv, breaks in zip(base.knot_vectors, benchmarks._level_breakpoints(config, level)):
                    assert_bits(_new_breakpoints(kv, breaks), new_breakpoints_isclose(kv, breaks))

    def test_base_patches_match_their_loop_constructions(self):
        for z, degree, mult in (([0, 1], 2, None), ([0, 0.25, 0.5, 1], 3, [2, 1]), ([0, 0.5, 1], 2, [1])):
            mult = [1] * (len(z) - 2) if mult is None else mult
            ends = np.full(degree + 1, float(z[0])), np.full(degree + 1, float(z[-1]))
            want = np.concatenate([ends[0]] + [np.full(m, float(b)) for b, m in zip(z[1:-1], mult)] + [ends[1]])
            assert_bits(make_open_knot_vector(z, degree, mult if len(z) > 2 else None).knots, want)
        octant = sphere_octant_patch(1.3)
        assert_bits(octant.control_points, _octant_by_loop(1.3).control_points)
        assert_bits(octant.space.weights, _octant_by_loop(1.3).space.weights)
        for base in (quarter_disc_patch(1.0), octant):
            got, want = elevate_bezier_degree(base), _elevate_by_loop(base)
            assert_bits(got.control_points, want.control_points)
            assert_bits(got.space.weights, want.space.weights)


def _octant_by_loop(R):
    """The sphere octant with its surface net filled one polar row at a time."""
    kv = make_open_knot_vector([0, 1], 2)
    aw = 1.0 / np.sqrt(2.0)
    profile, profile_w = np.array([[0.0, 0.0, -R], [R, 0.0, -R], [R, 0.0, 0.0]]), np.array([1.0, aw, 1.0])
    surf_ctrl, surf_w = np.zeros((3, 3, 3)), np.zeros((3, 3))
    for j in range(3):
        r, z = profile[j, 0], profile[j, 2]
        surf_ctrl[:, j] = [[r, 0.0, z], [r, r, z], [0.0, r, z]]
        surf_w[:, j] = profile_w[j] * np.array([1.0, aw, 1.0])
    ctrl = np.zeros((3, 3, 3, 3))
    ctrl[:, :, 1] = 0.5 * surf_ctrl
    ctrl[:, :, 2] = surf_ctrl
    weights = np.repeat(surf_w[:, :, None], 3, axis=2)
    return NurbsPatch(WeightedSpace(TensorSpace((kv, kv, kv)), weights.ravel()), ctrl.reshape(-1, 3))


def _elevate_by_loop(patch):
    """Bezier degree elevation one new control point at a time."""
    hw = np.concatenate([patch.control_points * patch.space.weights[:, None], patch.space.weights[:, None]], axis=1)
    hw = hw.reshape(patch.space.space.n_basis + (patch.ndim + 1,))
    kvs = []
    for axis, kv in enumerate(patch.knot_vectors):
        p = kv.degree
        old = np.moveaxis(hw, axis, 0)
        new = np.zeros((p + 2,) + old.shape[1:])
        for i in range(p + 2):
            a = i / (p + 1.0)
            new[i] = old[0] if i == 0 else old[p] if i == p + 1 else a * old[i - 1] + (1 - a) * old[i]
        hw = np.moveaxis(new, 0, axis)
        kvs.append(make_open_knot_vector(list(kv.domain), p + 1))
    weights = hw[..., -1].ravel()
    controls = hw[..., :-1].reshape(-1, patch.ndim) / weights[:, None]
    return NurbsPatch(WeightedSpace(TensorSpace(tuple(kvs)), weights), controls)


class TestBreakpointMatching:
    def test_close_breakpoint_is_inserted(self):
        # 3e-6 from 0.5 is within np.isclose's default 1e-5 of it, but is a breakpoint of its own
        kv = make_open_knot_vector([0, 0.5, 1], 2)
        close = 0.5 + 3e-6
        assert_bits(_new_breakpoints(kv, [0.5, close]), np.array([close]))
        assert _new_breakpoints(kv, [0.5 + 1e-13]).size == 1  # about 450 ulps away: only the last few ulps match
        patch = quarter_disc_patch(1.0).refine_to_breakpoints([[0.5], [0.5]]).refine_to_breakpoints([[close], []])
        assert patch.knot_vectors[0].breakpoints.tolist() == [0.0, 0.5, close, 1.0]

    def test_breakpoint_a_few_ulps_away_is_the_same(self):
        kv = make_open_knot_vector([0, 0.5, 1], 2)
        ulps = [np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
        assert _new_breakpoints(kv, ulps).size == 0

    def test_finely_graded_level_keeps_every_breakpoint(self):
        # radial spans of 7.8e-6 next to the outer radius: every one of the 193 breakpoints is a knot
        config = RunConfig("hertz2d", levels=6, base_spans=(3, 6), grading=(0.7, 0.001))
        patch = benchmarks.quarter_disc_level_patch(config, 6)
        assert patch.knot_vectors[0].breakpoints.size == 193
        base = benchmarks._base_patch(config)
        assert base.refined_grid_shape(benchmarks._level_breakpoints(config, 6)) == patch.space.space.n_basis


def test_levels_fit_check_builds_the_base_patch_once(monkeypatch):
    config = RunConfig("hertz2d", degree=3, pressure=0.003, levels=4, base_spans=(3, 6), grading=(0.8, 0.1))
    calls = []

    def counted(patch):
        calls.append(patch)
        return elevate_bezier_degree(patch)

    monkeypatch.setattr(benchmarks, "elevate_bezier_degree", counted)
    benchmarks._check_levels_fit(config, [0, 1, 2, 4])
    assert len(calls) == 1
