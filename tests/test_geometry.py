"""Geometry tests: graded meshes, benchmark patches, traces, mesh views."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from igacontact.assembly import (
    AssemblyError,
    _geometry_det_and_inverse,
    build_trace_quadrature,
    iter_element_blocks,
)
from igacontact.geometry import (
    QUARTER_DISC_CONTACT_FACE,
    QUARTER_DISC_LOAD_FACE,
    QUARTER_DISC_SYMMETRY_FACE,
    SPHERE_OCTANT_CONTACT_FACE,
    GeometryError,
    elevate_bezier_degree,
    extract_trace,
    face_id,
    graded_breakpoints,
    graded_breakpoints_toward_end,
    mesh_view,
    quarter_disc_patch,
    sphere_octant_patch,
    trace_mesh_sizes,
    unit_square_patch,
)

from helpers import jacobians, map_points


def refine_patch(patch, n_per_dir):
    breaks = [np.linspace(0, 1, n + 1)[1:-1] for n in n_per_dir]
    return patch.refine_to_breakpoints(breaks)


def jacobian(patch, zeta):
    """Jacobian matrix and determinant at one parametric point."""
    J, det = jacobians(patch, np.atleast_2d(zeta))
    return J[0], det[0]


def corner_sizes(knot_vectors, mapper, nd):
    """Oracle: element bounds and sizes from the 2^d corners of every element, mapped one by one."""
    per_dir = [kv.element_bounds for kv in knot_vectors]
    combos = list(product(*[range(len(b)) for b in per_dir]))
    bounds = np.array([[per_dir[d][c[d]] for d in range(nd)] for c in combos])
    corners = np.array(list(product(*[(0, 1)] * nd)))  # (2^d, nd)
    pts = bounds[:, :, 0][:, None, :] + corners[None, :, :] * (bounds[:, :, 1] - bounds[:, :, 0])[:, None, :]
    mapped = mapper(pts.reshape(-1, nd)).reshape(len(combos), len(corners), -1)
    diff = mapped[:, :, None, :] - mapped[:, None, :, :]
    return bounds, np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))


def patch_volume(patch, n_per_dir, n_gauss=8):
    refined = refine_patch(patch, n_per_dir)
    return sum(block.wdet.sum() for block in iter_element_blocks(refined, n_gauss))


class TestGradedBreakpoints:
    def test_ten_spans_eighty_ten(self):
        z = graded_breakpoints(10, 0.8, 0.1)
        expected = np.concatenate([np.linspace(0, 0.1, 9), [0.55, 1.0]])
        np.testing.assert_allclose(z, expected, atol=1e-15)

    def test_symmetric_split(self):
        np.testing.assert_allclose(graded_breakpoints(2, 0.5, 0.5), [0, 0.5, 1])

    def test_band_formula(self):
        z = graded_breakpoints(4, 0.75, 0.1)
        np.testing.assert_allclose(z, [0, 0.1 / 3, 0.2 / 3, 0.1, 1.0], atol=1e-15)

    def test_strictly_increasing_endpoints(self):
        z = graded_breakpoints(17, 0.8, 0.1)
        assert z[0] == 0.0 and z[-1] == 1.0
        assert np.all(np.diff(z) > 0)

    def test_invalid_fractions(self):
        with pytest.raises(GeometryError):
            graded_breakpoints(10, 1.2, 0.1)
        with pytest.raises(GeometryError):
            graded_breakpoints(10, 0.8, 0.0)

    def test_mirrored_variant(self):
        z = graded_breakpoints_toward_end(10, 0.8, 0.1)
        assert z[0] == 0.0 and z[-1] == 1.0
        assert np.all(np.diff(z) > 0)
        assert np.sum(z > 0.9 - 1e-12) == 9  # 8 fine spans near 1


class TestQuarterDisc:
    def test_arc_midpoint_is_45_degrees(self):
        R = 1.0
        patch = quarter_disc_patch(R)
        trace = extract_trace(patch, QUARTER_DISC_CONTACT_FACE)
        pt = map_points(trace, np.array([[0.5]]))[0]
        np.testing.assert_allclose(pt, [R / math.sqrt(2), R / math.sqrt(2)], atol=1e-14)

    def test_arc_samples_on_circle(self):
        R = 2.5
        trace = extract_trace(quarter_disc_patch(R), QUARTER_DISC_CONTACT_FACE)
        zs = np.linspace(0, 1, 97)[:, None]
        pts = map_points(trace, zs)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), R, atol=1e-13)

    def test_area_by_quadrature(self):
        R = 1.0
        area = patch_volume(quarter_disc_patch(R), (16, 16), n_gauss=10)
        assert abs(area - math.pi * R ** 2 / 4) <= 1e-10 * area

    def test_straight_edges(self):
        patch = quarter_disc_patch(1.0)
        load = extract_trace(patch, QUARTER_DISC_LOAD_FACE)
        pts = map_points(load, np.linspace(0, 1, 11)[:, None])
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-15)  # x = 0 edge
        sym = extract_trace(patch, QUARTER_DISC_SYMMETRY_FACE)
        pts = map_points(sym, np.linspace(0, 1, 11)[:, None])
        np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-15)  # y = 0 edge


class TestSphereOctant:
    def test_surface_samples_on_sphere(self):
        R = 1.0
        trace = extract_trace(sphere_octant_patch(R), SPHERE_OCTANT_CONTACT_FACE)
        rng = np.random.default_rng(3)
        pts = map_points(trace, rng.uniform(0, 1, (200, 2)))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), R, atol=1e-10)

    def test_volume_by_quadrature(self):
        R = 1.0
        vol = patch_volume(sphere_octant_patch(R), (6, 6, 6), n_gauss=8)
        exact = (4.0 / 3.0) * math.pi * R ** 3 / 8.0
        assert abs(vol - exact) <= 1e-6 * exact

    def test_octant_in_expected_region(self):
        patch = sphere_octant_patch(1.0)
        rng = np.random.default_rng(4)
        pts = map_points(patch, rng.uniform(0.05, 0.95, (100, 3)))
        assert np.all(pts[:, 0] >= -1e-12)
        assert np.all(pts[:, 1] >= -1e-12)
        assert np.all(pts[:, 2] <= 1e-12)

    def test_axis_swap_symmetry(self):
        # swapping x and y maps the control net onto itself (azimuth reversal)
        patch = sphere_octant_patch(1.0)
        shape = patch.space.space.n_basis + (3,)
        ctrl = patch.control_points.reshape(shape)
        swapped = ctrl[::-1, :, :, :][..., [1, 0, 2]]
        np.testing.assert_allclose(swapped, ctrl, atol=1e-15)


class TestJacobian:
    def test_identity_patch(self):
        patch = unit_square_patch(2, 3)
        for zeta in ([0.2, 0.7], [0.5, 0.5], [0.9, 0.1]):
            J, det = jacobian(patch, zeta)
            np.testing.assert_allclose(J, np.eye(2), atol=1e-13)
            assert abs(det - 1.0) <= 1e-13

    def test_affine_patch(self):
        A = np.array([[2.0, 0.5], [0.0, 1.5]])
        b = np.array([1.0, -2.0])
        base = unit_square_patch(2, 2)
        patch = type(base)(base.space, base.control_points @ A.T + b)
        J, det = jacobian(patch, [0.3, 0.8])
        np.testing.assert_allclose(J, A, atol=1e-13)
        assert abs(det - np.linalg.det(A)) <= 1e-13

    def test_quarter_disc_matches_finite_differences(self):
        patch = quarter_disc_patch(1.0)
        rng = np.random.default_rng(8)
        h = 1e-6
        for zeta in rng.uniform(0.1, 0.9, (5, 2)):
            J, det = jacobian(patch, zeta)
            assert det > 0
            for d in range(2):
                e = np.zeros(2)
                e[d] = h
                fd = (map_points(patch, [zeta + e])[0] - map_points(patch, [zeta - e])[0]) / (2 * h)
                np.testing.assert_allclose(J[:, d], fd, atol=1e-6)

    def test_degenerate_center_rejected(self):
        # the collapsed center edge has det J = 0, which assembly's closed-form inverse rejects
        patch = quarter_disc_patch(1.0)
        J, det = jacobians(patch, [[0.0, 0.5]])
        assert abs(det[0]) <= 1e-14
        with pytest.raises(AssemblyError):
            _geometry_det_and_inverse(J)


class TestExtractTrace:
    def test_unit_square_bottom_length(self):
        patch = unit_square_patch(2, 4)
        trace = extract_trace(patch, face_id(1, 0), rigid_normal=[0.0, 1.0])
        tq = build_trace_quadrature(trace, 4)
        assert abs(tq.wmeas.sum() - 1.0) <= 1e-14
        pts = map_points(trace, np.linspace(0, 1, 9)[:, None])
        np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-15)

    def test_quarter_disc_arc_length(self):
        R = 1.0
        trace = extract_trace(quarter_disc_patch(R).refine_to_breakpoints(
            [np.linspace(0, 1, 9)[1:-1]] * 2
        ), QUARTER_DISC_CONTACT_FACE)
        tq = build_trace_quadrature(trace, 10)
        assert abs(tq.wmeas.sum() - math.pi * R / 2) <= 1e-10

    def test_face_dof_map_matches_volume_slice(self):
        patch = quarter_disc_patch(1.0).refine_to_breakpoints([[0.5], [0.25, 0.5]])
        trace = extract_trace(patch, QUARTER_DISC_CONTACT_FACE)
        n0, n1 = patch.space.space.n_basis
        expected = np.array([(n0 - 1) * n1 + j for j in range(n1)])
        np.testing.assert_array_equal(trace.dof_map, expected)
        np.testing.assert_allclose(
            trace.control_points, patch.control_points[expected], atol=0
        )

    def test_invalid_face(self):
        with pytest.raises(GeometryError):
            extract_trace(quarter_disc_patch(1.0), 7)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(GeometryError):
            extract_trace(quarter_disc_patch(1.0), QUARTER_DISC_CONTACT_FACE, [1.0, 1.0])


class TestMeshView:
    def test_partition_and_sizes(self):
        patch = unit_square_patch(2, 4)
        bounds, sizes = mesh_view(patch)
        assert bounds.shape == (16, 2, 2) and sizes.shape == (16,)
        np.testing.assert_allclose(sizes, math.sqrt(2) / 4, atol=1e-14)

    def test_quasi_uniform_within_grading_bands(self):
        arc = graded_breakpoints(8, 0.8, 0.1)
        rad = graded_breakpoints_toward_end(8, 0.8, 0.1)
        patch = quarter_disc_patch(1.0).refine_to_breakpoints([rad[1:-1], arc[1:-1]])
        bounds, all_sizes = mesh_view(patch)
        mids = 0.5 * (bounds[:, :, 0] + bounds[:, :, 1])
        band_r = mids[:, 0] > 0.9
        band_a = mids[:, 1] < 0.1
        for sel in (
            band_r & band_a,
            band_r & ~band_a,
            ~band_r & band_a,
            ~band_r & ~band_a,
        ):
            sizes = all_sizes[sel]
            assert sizes.size > 0
            assert sizes.max() / sizes.min() <= 2.0

    @pytest.mark.parametrize(
        "patch",
        [
            quarter_disc_patch(1.0).refine_to_breakpoints(
                [graded_breakpoints_toward_end(8, 0.8, 0.1)[1:-1], graded_breakpoints(12, 0.8, 0.1)[1:-1]]
            ),
            elevate_bezier_degree(quarter_disc_patch(1.0)).refine_to_breakpoints([[0.3, 0.6], [0.1, 0.5]]),
            sphere_octant_patch(1.0).refine_to_breakpoints(
                [[0.5], graded_breakpoints(4, 0.5, 0.2)[1:-1], [0.4, 0.8]]
            ),
        ],
        ids=["2d", "2d-p3", "3d"],
    )
    def test_sizes_match_corner_oracle(self, patch):
        mv_bounds, mv_sizes = mesh_view(patch)
        bounds, sizes = corner_sizes(patch.knot_vectors, lambda pts: map_points(patch, pts), patch.ndim)
        assert np.array_equal(mv_bounds, bounds)
        assert np.abs(mv_sizes - sizes).max() <= 1e-14 * sizes.max()
        face = QUARTER_DISC_CONTACT_FACE if patch.ndim == 2 else SPHERE_OCTANT_CONTACT_FACE
        trace = extract_trace(patch, face)
        t_bounds, t_sizes = trace_mesh_sizes(trace)
        bounds, sizes = corner_sizes(trace.space.space.knot_vectors, lambda pts: map_points(trace, pts), trace.ndim)
        assert np.array_equal(t_bounds, bounds)
        assert np.abs(t_sizes - sizes).max() <= 1e-14 * sizes.max()


class TestDegreeElevation:
    def test_quarter_disc_elevated_keeps_geometry(self):
        base = quarter_disc_patch(1.0)
        cubic = elevate_bezier_degree(base)
        assert cubic.degrees == (3, 3)
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, (40, 2))
        np.testing.assert_allclose(map_points(cubic, pts), map_points(base, pts), atol=1e-14)

