"""Assembly tests: quadrature, stiffness, loads, constraints, Neo-Hookean forces."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from igacontact import assembly
from igacontact.assembly import (
    AssemblyError,
    _grad_products,
    _pair_products,
    _swap_correction,
    apply_constraints,
    assemble_load,
    assemble_stiffness,
    build_trace_quadrature,
    dirichlet_on_face,
    gauss_rule,
    iter_element_blocks,
    merge_constraints,
    neo_hookean_forces,
    neo_hookean_residual,
    patch_quadrature,
)
from igacontact import splines
from igacontact.benchmarks import RunConfig, quarter_disc_level_patch
from igacontact.geometry import (
    QUARTER_DISC_CONTACT_FACE,
    QUARTER_DISC_LOAD_FACE,
    QUARTER_DISC_SYMMETRY_FACE,
    SPHERE_OCTANT_CONTACT_FACE,
    GeometryError,
    NurbsPatch,
    elevate_bezier_degree,
    extract_trace,
    face_basis_indices,
    face_id,
    quarter_disc_patch,
    sphere_octant_patch,
    unit_square_patch,
)
from igacontact.materials import (
    ElementInversionError,
    LinearMaterial,
    MaterialError,
    NeoHookeanMaterial,
    det_and_inverse,
)
from igacontact.splines import TensorSpace, WeightedSpace, make_open_knot_vector

MAT = LinearMaterial(young=1.0, poisson=0.3)


def disc_patch(n=4):
    breaks = np.linspace(0, 1, n + 1)[1:-1]
    return quarter_disc_patch(1.0).refine_to_breakpoints([breaks, breaks])


def octant_patch(n=2):
    breaks = np.linspace(0, 1, n + 1)[1:-1]
    return sphere_octant_patch(1.0).refine_to_breakpoints([breaks, breaks, breaks])


def double_knot_patch(nd):
    """p = 3 identity map with interior knots of multiplicity 2: the 1D couplings are no plain band."""
    kvs = (
        make_open_knot_vector([0, 0.3, 0.6, 1], 3, [2, 1]),
        make_open_knot_vector([0, 0.5, 1], 3, [2]),
        make_open_knot_vector([0, 0.4, 1], 3, [1]),
    )[:nd]
    grid = np.meshgrid(*[kv.greville() for kv in kvs], indexing="ij")
    ctrl = np.stack([g.ravel() for g in grid], axis=1)
    return NurbsPatch(WeightedSpace(TensorSpace(kvs), np.ones(ctrl.shape[0])), ctrl)


def unique_scatter_plan(patch):
    """Oracle: the full scatter plan from np.unique over every element's (row, column) basis pairs."""
    nc = patch.ndim
    n_basis = patch.space.dim
    dofs = assembly._element_dofs(patch.space.space)
    ne, nloc = dofs.shape
    pairs, pair_of = np.unique((dofs[:, :, None] * n_basis + dofs[:, None, :]).ravel(), return_inverse=True)
    row, col = np.divmod(pairs, n_basis)
    count = np.bincount(row, minlength=n_basis)
    first = np.cumsum(count) - count
    indptr = np.zeros(n_basis * nc + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.repeat(nc * count, nc))
    comp = np.arange(nc)
    base = nc * nc * first[row] + nc * (np.arange(pairs.size) - first[row])
    slot = base[:, None, None] + (nc * count[row])[:, None, None] * comp[:, None] + comp
    indices = np.empty(slot.size, dtype=np.int32)
    indices[slot] = col[:, None, None] * nc + comp
    slots = slot[pair_of.reshape(ne, nloc, nloc)].transpose(0, 1, 3, 2, 4).reshape(ne, -1)
    return indptr.astype(np.int32), indices, slots.astype(np.int32)


def upper_scatter_plan(patch):
    """Oracle: the unique oracle's plan cut to its upper triangle (column >= row), entries renumbered."""
    indptr, indices, slots = unique_scatter_plan(patch)
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = indices >= rows
    renumber = np.cumsum(keep) - 1
    upper_indptr = np.zeros(n + 1, dtype=np.int32)
    upper_indptr[1:] = np.cumsum(np.bincount(rows[keep], minlength=n))
    m = math.isqrt(slots.shape[1])
    local = np.flatnonzero(np.triu(np.ones((m, m), dtype=bool)))
    return upper_indptr, indices[keep], renumber[slots[:, local]].astype(np.int32)


def stiffness_tensor(mat, ndim):
    """Oracle: the linear material's fourth-order tensor a_ijkl (plane strain for ndim == 2)."""
    mu, lam = mat.lame()
    eye = np.eye(ndim)
    return (
        lam * np.einsum("ij,kl->ijkl", eye, eye)
        + mu * np.einsum("ik,jl->ijkl", eye, eye)
        + mu * np.einsum("il,jk->ijkl", eye, eye)
    )


def neo_hookean_tangent(mat, F):
    """Oracle: material tangent dP_iJ/dF_kL of the Neo-Hookean law, batched over leading axes."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    mu, lam = mat.lame()
    J = np.linalg.det(F)
    FinvT = np.swapaxes(np.linalg.inv(F), -1, -2)
    lnJ = np.log(J)
    eye = np.eye(d)
    A = mu * np.einsum("ik,JL->iJkL", eye, eye)
    A = A + lam * np.einsum("...iJ,...kL->...iJkL", FinvT, FinvT)
    A = A + (mu - lam * lnJ)[..., None, None, None, None] * np.einsum(
        "...iL,...kJ->...iJkL", FinvT, FinvT
    )
    return A


def two_product_element_matrices(w, c_pair, c_swap):
    """Oracle: sum_q c_pair w_ai w_bk + c_swap w_ak w_bi as two pair products, the second transposed."""
    ce, nq, nloc, nd = w.shape
    ke = _pair_products(w, c_pair)
    ke += _pair_products(w, c_swap).transpose(0, 1, 4, 3, 2)
    return ke.reshape(ce, nloc * nd, nloc * nd)


def smooth_state(patch, seed):
    """A random smooth displacement field (a random node-wise one inverts the octant's collapsed elements)."""
    rng = np.random.default_rng(seed)
    x = patch.control_points
    d = patch.ndim
    return (x @ rng.normal(scale=0.05, size=(d, d)) + x ** 2 @ rng.normal(scale=0.05, size=(d, d))).ravel()


def dense_oracle_assembly(patch, element_matrices, element_forces=None):
    """Dense K (and f) summed element by element from einsum contractions of each block."""
    nd = patch.ndim
    n = patch.space.dim * nd
    K = np.zeros((n, n))
    f = np.zeros(n)
    for block in iter_element_blocks(patch, max(patch.degrees) + 1):
        ce, nloc = block.dofs.shape
        dofs = (block.dofs[:, :, None] * nd + np.arange(nd)).reshape(ce, -1)
        ke = element_matrices(block).reshape(ce, nloc * nd, nloc * nd)
        for e in range(ce):
            K[np.ix_(dofs[e], dofs[e])] += ke[e]
        if element_forces is not None:
            np.add.at(f, dofs.ravel(), element_forces(block).ravel())
    return K, f


def einsum_stiffness(patch, mat):
    """Oracle: linear stiffness from the full elastic tensor, one 5-operand einsum per block."""
    A = stiffness_tensor(mat, patch.ndim)
    K, _ = dense_oracle_assembly(
        patch,
        lambda b: np.einsum("eqaj,ijkl,eqbl,eq->eaibk", b.grads_phys, A, b.grads_phys, b.wdet),
    )
    return K


def einsum_neo_hookean(patch, mat, u):
    """Oracle: internal force and tangent contracted with the fourth-order material tangent."""
    nd = patch.ndim
    u_mat = u.reshape(-1, nd)

    def deformation(b):
        return np.eye(nd) + np.einsum("eai,eqaj->eqij", u_mat[b.dofs], b.grads_phys)

    def matrices(b):
        A = neo_hookean_tangent(mat, deformation(b))
        return np.einsum("eqaJ,eqiJkL,eqbL,eq->eaibk", b.grads_phys, A, b.grads_phys, b.wdet)

    def forces(b):
        P = mat.pk1(deformation(b))
        return np.einsum("eqij,eqaj,eq->eai", P, b.grads_phys, b.wdet)

    return dense_oracle_assembly(patch, matrices, forces)


def record_groups(monkeypatch):
    """Record every (start, upper rows) group that the element slots add, in order."""
    groups = []
    original = assembly._ElementSlots.add

    def recording(self, data, start, ke):
        groups.append((start, ke.copy()))
        return original(self, data, start, ke)

    monkeypatch.setattr(assembly._ElementSlots, "add", recording)
    return groups


class TestGaussRule:
    def test_one_point(self):
        rule = gauss_rule(1)
        np.testing.assert_allclose(rule.points, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)

    def test_two_points(self):
        rule = gauss_rule(2)
        np.testing.assert_allclose(np.sort(rule.points), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_quintic_exactness(self):
        rule = gauss_rule(3)
        x = 0.5 * (rule.points + 1.0)  # map to [0, 1]
        val = 0.5 * (rule.weights * x ** 5).sum()
        assert abs(val - 1.0 / 6.0) <= 1e-15

    def test_one_shared_read_only_rule_per_order(self):
        rule = gauss_rule(6)
        assert gauss_rule(6) is rule and gauss_rule(5) is not rule
        assert not rule.points.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_order_out_of_range(self):
        with pytest.raises(AssemblyError):
            gauss_rule(0)
        with pytest.raises(AssemblyError):
            gauss_rule(31)


class TestMaterials:
    def test_invalid_parameters(self):
        with pytest.raises(MaterialError):
            LinearMaterial(-1.0, 0.3)
        with pytest.raises(MaterialError):
            LinearMaterial(1.0, 0.5)

    def test_neo_hookean_stress_free_at_identity(self):
        mat = NeoHookeanMaterial(1.0, 0.3)
        P = mat.pk1(np.eye(2))
        np.testing.assert_allclose(P, 0.0, atol=1e-15)

    @pytest.mark.parametrize("nd", [2, 3])
    def test_closed_form_det_and_inverse_match_lapack(self, nd):
        F = np.eye(nd) + 0.3 * np.random.default_rng(nd).normal(size=(5, 7, nd, nd))
        F[np.linalg.det(F) < 0, 0] *= -1.0
        J, F_inv = det_and_inverse(F)
        np.testing.assert_allclose(J, np.linalg.det(F), rtol=1e-13)
        np.testing.assert_allclose(F_inv, np.linalg.inv(F), rtol=1e-12, atol=1e-13)
        mat = NeoHookeanMaterial(1.0, 0.3)
        np.testing.assert_array_equal(mat.pk1(F, J, F_inv), mat.pk1(F))
        F[2, 3, 0] *= -1.0
        with pytest.raises(ElementInversionError):
            det_and_inverse(F)

    def test_neo_hookean_tangent_at_identity_is_elastic_tensor(self):
        mat = NeoHookeanMaterial(1.0, 0.3)
        lin = LinearMaterial(1.0, 0.3)
        np.testing.assert_allclose(
            neo_hookean_tangent(mat, np.eye(3)), stiffness_tensor(lin, 3), atol=1e-14
        )


class TestElementBlocks:
    @pytest.mark.parametrize("nd", [2, 3])
    def test_closed_form_geometry_jacobian(self, nd):
        # the physical gradient of the geometry map is the identity, and the
        # weights x det J integrate the body's measure (quarter disc, octant)
        patch = disc_patch(3) if nd == 2 else octant_patch(2)
        measure = 0.0
        for block in iter_element_blocks(patch, 4):
            dxdx = np.einsum("ead,eqaj->eqdj", patch.control_points[block.dofs], block.grads_phys)
            np.testing.assert_allclose(dxdx, np.broadcast_to(np.eye(nd), dxdx.shape), atol=1e-12)
            measure += block.wdet.sum()
        assert abs(measure - (math.pi / 4 if nd == 2 else math.pi / 6)) <= 1e-7

    @pytest.mark.parametrize(
        "scale", [[-1.0, 1.0], [1.0, 0.0]], ids=["mirrored", "collapsed"]
    )
    def test_inverted_geometry_raises_assembly_error(self, scale):
        patch = unit_square_patch(2, 2)
        bad = NurbsPatch(patch.space, patch.control_points * scale)
        for run in (lambda: list(iter_element_blocks(bad, 3)), lambda: assemble_stiffness(bad, MAT)):
            with pytest.raises(AssemblyError, match="inverted geometry Jacobian") as err:
                run()
            assert not isinstance(err.value, ElementInversionError)


class TestStiffness:
    def test_translation_in_kernel(self):
        patch = disc_patch(3)
        K = assemble_stiffness(patch, MAT)
        scale = abs(K.tocsr()).max()
        for comp in range(2):
            u = np.zeros(K.shape[0])
            u[comp::2] = 1.0
            assert np.abs(K @ u).max() <= 1e-10 * scale

    def test_linearized_rotation_in_kernel(self):
        patch = disc_patch(3)
        K = assemble_stiffness(patch, MAT)
        W = np.array([[0.0, -1.0], [1.0, 0.0]])
        u = (patch.control_points @ W.T).ravel()
        scale = abs(K.tocsr()).max() * max(1.0, np.abs(u).max())
        assert np.abs(K @ u).max() <= 1e-10 * scale

    def test_rigid_body_kernel_dimension(self):
        K = assemble_stiffness(unit_square_patch(2, 2), MAT)
        w = np.linalg.eigvalsh(K.toarray())
        assert np.sum(np.abs(w) < 1e-10 * w.max()) == 3

    def test_symmetry(self, monkeypatch):
        # one stored triangle is enough because every element matrix is symmetric: the
        # linear kernel lam P + mu P_(ak)(bi) + mu (g_a . g_b) delta_ik of the pair products
        # P, and the tangent's kernel after its swap correction; what each scatters is the
        # upper triangle of that matrix
        pairs, corrected = [], []

        def record(owner, name, log, result_of):
            original = getattr(owner, name)

            def recording(*args):
                out = original(*args)
                log.append(result_of(args, out).copy())
                return out

            monkeypatch.setattr(owner, name, recording)

        record(assembly, "_pair_products", pairs, lambda args, out: out)
        record(assembly, "_swap_correction", corrected, lambda args, out: args[0])
        added = record_groups(monkeypatch)
        patch = disc_patch(3)
        mu, lam = MAT.lame()
        assemble_stiffness(patch, MAT)
        neo_hookean_forces(patch, NeoHookeanMaterial(1.0, 0.3), smooth_state(patch, 2))
        assert len(pairs) == len(corrected) + 1 == 2 and len(added) == 3  # one chunk each
        P = pairs[0]
        linear = lam * P + mu * P.transpose(0, 1, 4, 3, 2)
        for i in range(2):
            linear[:, :, i, :, i] += mu * (P[:, :, 0, :, 0] + P[:, :, 1, :, 1])
        ce, m = P.shape[0], P.shape[1] * P.shape[2]
        upper = np.flatnonzero(np.triu(np.ones((m, m), dtype=bool)))
        for ke, (_, scattered) in ((linear, added[0]), (corrected[0], added[2])):
            ke = ke.reshape(ce, m, m)
            assert np.abs(ke - ke.transpose(0, 2, 1)).max() <= 1e-14 * np.abs(ke).max()
            assert np.array_equal(scattered, ke.reshape(ce, -1)[:, upper])

    def test_constant_strain_energy_plane_strain(self):
        # u = (x, 0) on the unit square: eps_11 = 1, energy = lam + 2 mu
        patch = unit_square_patch(2, 3)
        K = assemble_stiffness(patch, MAT)
        u = np.zeros(K.shape[0])
        u[0::2] = patch.control_points[:, 0]
        mu, lam = MAT.lame()
        assert abs(u @ (K @ u) - (lam + 2 * mu)) <= 1e-12

    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_matches_einsum_oracle(self, patch):
        K = assemble_stiffness(patch, MAT).toarray()
        ref = einsum_stiffness(patch, MAT)
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_scatter_add_matches_full_bincount(self, patch):
        # chunk sums into a block over the touched rows only, added to the diagonals, equal
        # full-length bincounts over row-major (row, diagonal) slots bit for bit
        slots = assembly._element_slots(patch)
        ne, size = slots.first.size, slots.entries.size
        ke = np.random.default_rng(3).normal(size=(ne, size))
        got = slots.stencil.zeros()
        n_diag, n = got.shape[0], slots.stencil.n
        want = np.zeros(n * n_diag)
        for start in range(0, ne, 5):
            rows = ke[start : start + 5]
            slots.add(got, start, rows)
            flat = slots.first[start : start + len(rows), None] * n_diag + slots.entries
            want += np.bincount(flat.ravel(), weights=rows.ravel(), minlength=want.size)
        assert np.array_equal(got[:, :n], want.reshape(n, n_diag).T)
        assert not got[:, n].any()

    @pytest.mark.parametrize(
        "patch",
        [
            disc_patch(4),
            quarter_disc_patch(1.0).refine_to_breakpoints([[0.5], [0.2, 0.4, 0.6, 0.8]]),
            octant_patch(3),
            elevate_bezier_degree(quarter_disc_patch(1.0)).refine_to_breakpoints([[0.25, 0.5, 0.75]] * 2),
            elevate_bezier_degree(sphere_octant_patch(1.0)).refine_to_breakpoints([[0.5]] * 3),
            double_knot_patch(2),
            double_knot_patch(3),
        ],
        ids=["2d", "2d-aniso", "3d", "2d-p3", "3d-p3", "2d-p3-double-knot", "3d-p3-double-knot"],
    )
    def test_scatter_plan_matches_unique_oracle(self, patch):
        # the closed-form slot of every element's upper entry is the (row, column) pair the
        # np.unique oracle's pattern gives it, and the pattern lies on the stencil's diagonals
        slots = assembly._element_slots(patch)
        offsets = slots.stencil.offsets
        assert offsets[0] == 0 and np.all(np.diff(offsets) > 0)
        indptr, indices, plan = upper_scatter_plan(patch)
        n = indptr.size - 1
        rows = np.repeat(np.arange(n), np.diff(indptr))
        n_diag = offsets.size
        got_row = slots.first[:, None] + slots.entries // n_diag
        got_col = got_row + offsets[slots.entries % n_diag]
        assert np.array_equal(got_row, rows[plan]) and np.array_equal(got_col, indices[plan])
        assert slots.span == got_row.max(initial=0) - slots.first.max() + 1
        assert np.isin(indices - rows, offsets).all()

    def test_patch_test_linear_field_reproduced(self):
        patch = unit_square_patch(2, 3)
        K_free = assemble_stiffness(patch, MAT)
        A = np.array([[0.3, 0.1], [-0.2, 0.4]])
        exact = (patch.control_points @ A.T).ravel()
        boundary = set()
        for face in range(4):
            boundary.update(face_basis_indices(patch, face).tolist())
        constraints = {}
        for b in boundary:
            for c in range(2):
                constraints[2 * b + c] = exact[2 * b + c]
        K, F = apply_constraints(K_free, np.zeros(K_free.shape[0]), constraints)
        u = spla.spsolve(K.tocsc(), F)
        np.testing.assert_allclose(u, exact, atol=1e-10)


class TestChunks:
    @pytest.mark.parametrize("degree", [2, 3])
    def test_two_dimensional_runs_keep_256_elements(self, degree):
        assert assembly._chunk((degree + 1) ** 2, 2) == 256

    def test_smaller_3d_chunks_match_einsum_oracle(self):
        # 81 x 81 element matrices take 39 elements per chunk: two chunks on 64 elements
        patch = octant_patch(4)
        assert assembly._chunk(27, 3) == 39
        sizes = [b.dofs.shape[0] for b in iter_element_blocks(patch, 3)]
        assert sizes == [39, 25]
        K = assemble_stiffness(patch, MAT).toarray()
        ref = einsum_stiffness(patch, MAT)
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_groups_take_the_rows_in_element_order(self):
        rows = np.arange(1200.0).reshape(600, 2)
        chunks = (rows[s : s + 39] for s in range(0, 600, 39))
        groups = [(start, g.copy()) for start, g in assembly._in_groups(chunks)]
        assert [(start, len(g)) for start, g in groups] == [(0, 256), (256, 256), (512, 88)]
        assert np.array_equal(np.concatenate([g for _, g in groups]), rows)

    def test_chunk_size_changes_no_sum(self, monkeypatch):
        # 343 elements: the 39-element chunks cross the 256-element group boundary, and
        # every scattered sum equals that of 256-element chunks bit for bit
        patch = octant_patch(7)
        u = smooth_state(patch, 5)

        def sums():
            quad = patch_quadrature(patch)
            f, K = neo_hookean_forces(patch, NeoHookeanMaterial(young=1.0, poisson=0.3), u, quad)
            return assemble_stiffness(patch, MAT).data, quad.grad_data, f, K.data

        chunked = sums()
        monkeypatch.setattr(assembly, "_chunk", lambda nloc, n_comp: 256)
        for got, want in zip(chunked, sums()):
            assert np.array_equal(got, want)


class TestSymmetricStorage:
    @pytest.mark.parametrize("kind", ["linear", "neo-hookean"])
    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_one_triangle_matches_oracle(self, patch, kind):
        # the operator stores the diagonal and one entry of each symmetric pair, builds
        # the whole matrix on request and applies it without building it
        if kind == "linear":
            K, ref = assemble_stiffness(patch, MAT), einsum_stiffness(patch, MAT)
        else:
            mat = NeoHookeanMaterial(1.0, 0.3)
            u = smooth_state(patch, 5)
            K, (ref, _) = neo_hookean_forces(patch, mat, u)[1], einsum_neo_hookean(patch, mat, u)
        n = ref.shape[0]
        offsets = K.stencil.offsets
        assert K.data.shape == (offsets.size, n + 1)
        # nothing is stored past the last row or in the padding column
        assert not K.data[np.arange(n + 1) + offsets[:, None] >= n].any()
        A = K.tocsr()
        assert A.has_canonical_format
        indptr, indices, _ = unique_scatter_plan(patch)
        pattern = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=A.shape)
        assert abs(A).multiply(pattern).nnz == A.nnz  # within the oracle's pattern
        assert np.abs(A.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
        x = np.random.default_rng(6).normal(size=n)
        dense = K.toarray()
        assert np.abs(K @ x - dense @ x).max() <= 1e-13 * (np.abs(dense) @ np.abs(x)).max()

    def test_tangents_share_the_plans_read_only_index_arrays(self):
        # a matrix keeps no index array: every tangent, and the stiffness, shares the grid's
        # one stencil, whose read-only tables an in-place sort cannot change
        patch = disc_patch(3)
        quad = patch_quadrature(patch)
        mat = NeoHookeanMaterial(1.0, 0.3)
        tangents = [
            assembly.neo_hookean_tangent(quad, mat, neo_hookean_residual(quad, mat, smooth_state(patch, seed)))
            for seed in (1, 2)
        ]
        stencil = quad.slots.stencil
        assert all(K.stencil is stencil for K in tangents) and assemble_stiffness(patch, MAT).stencil is stencil
        assert not any(np.shares_memory(K.data, stencil.offsets) for K in tangents)
        assert not stencil.offsets.flags.writeable and not stencil.couplings.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stencil.offsets.sort()


def unique_pair_scatter(patch, groups, data):
    """Oracle: groups summed into ``data``, one full-length bincount each, through the unique oracle's upper pattern."""
    _, _, plan = upper_scatter_plan(patch)
    for start, ke in groups:
        data = data + np.bincount(plan[start : start + len(ke)].ravel(), weights=ke.ravel(), minlength=data.size)
    return data


DIAGONAL_PATCHES = [
    disc_patch(3),
    octant_patch(2),
    elevate_bezier_degree(quarter_disc_patch(1.0)),
    elevate_bezier_degree(sphere_octant_patch(1.0)),
    double_knot_patch(2),
]
DIAGONAL_IDS = ["2d", "3d", "2d-p3-base", "3d-p3-base", "2d-p3-double-knot"]


class TestDiagonalStorage:
    @pytest.mark.parametrize("patch", DIAGONAL_PATCHES, ids=DIAGONAL_IDS)
    def test_tocsr_matches_einsum_and_unique_pair_oracles(self, patch, monkeypatch):
        groups = record_groups(monkeypatch)
        K = assemble_stiffness(patch, MAT)
        indptr, indices, _ = upper_scatter_plan(patch)
        U = sp.csr_matrix((unique_pair_scatter(patch, groups, np.zeros(indices.size)), indices, indptr))
        A = K.tocsr()
        assert A.has_canonical_format
        assert np.array_equal(A.toarray(), (U + sp.triu(U, k=1).T).toarray())
        ref = einsum_stiffness(patch, MAT)
        assert np.abs(A.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["linear", "neo-hookean"])
    @pytest.mark.parametrize("patch", DIAGONAL_PATCHES, ids=DIAGONAL_IDS)
    def test_data_equals_unique_pair_scatter(self, patch, kind, monkeypatch):
        # the element rows summed through the closed-form slots equal the same rows summed
        # through the np.unique pattern, bit for bit, and nothing else is stored
        groups = record_groups(monkeypatch)
        indptr, indices, _ = upper_scatter_plan(patch)
        zero = np.zeros(indices.size)
        if kind == "linear":
            K = assemble_stiffness(patch, MAT)
            want = unique_pair_scatter(patch, groups, zero)
        else:
            mat = NeoHookeanMaterial(1.0, 0.3)
            quad = patch_quadrature(patch)
            n_grad = len(groups)
            K = assembly.neo_hookean_tangent(quad, mat, neo_hookean_residual(quad, mat, smooth_state(patch, 5)))
            grad = unique_pair_scatter(patch, groups[:n_grad], zero)
            want = unique_pair_scatter(patch, groups[n_grad:], mat.lame()[0] * grad)
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        j = np.searchsorted(K.stencil.offsets, indices - rows)
        assert np.array_equal(K.data[j, rows], want)
        rest = K.data.copy()
        rest[j, rows] = 0.0
        assert not rest.any()

    @pytest.mark.parametrize("kind", ["linear", "neo-hookean"])
    @pytest.mark.parametrize("patch", DIAGONAL_PATCHES, ids=DIAGONAL_IDS)
    def test_product_matches_dense(self, patch, kind):
        if kind == "linear":
            K = assemble_stiffness(patch, MAT)
        else:
            K = neo_hookean_forces(patch, NeoHookeanMaterial(1.0, 0.3), smooth_state(patch, 3))[1]
        dense = K.toarray()
        x = np.random.default_rng(7).normal(size=dense.shape[0])
        want = dense @ x
        assert np.abs(K @ x - want).max() <= 1e-14 * np.abs(want).max()

    def test_assembly_peak_memory(self):
        # the reference level of hertz2d-p003 (50 x 98 functions, 9,800 dofs): assembly
        # holds the returned data and one chunk's element transients (basis tables,
        # gradients, pair products, upper rows and slots), bounded here by eight
        # 256-element chunks of full 18 x 18 element matrices; no per-patch slot table
        config = RunConfig(benchmark="hertz2d", pressure=0.003, levels=4, base_spans=(3, 6), grading=(0.8, 0.1))
        patch = quarter_disc_level_patch(config, 4)
        assert patch.space.space.n_basis == (50, 98)
        assemble_stiffness(patch, MAT)  # caches warmed
        tracemalloc.start()
        try:
            K = assemble_stiffness(patch, MAT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = 9 * 2
        assert peak <= K.data.nbytes + 8 * assembly._GROUP * m * m * 8


class TestLoads:
    def test_uniform_pressure_total_force(self):
        patch = unit_square_patch(2, 3)
        P = 0.7
        F = assemble_load(patch, tractions={face_id(1, 1): np.array([0.0, -P])})
        assert abs(F[1::2].sum() + P * 1.0) <= 1e-12
        assert abs(F[0::2].sum()) <= 1e-14

    def test_zero_data_zero_load(self):
        F = assemble_load(unit_square_patch(2, 2), tractions={})
        assert np.all(F == 0.0)

    def test_quarter_disc_pressure_total(self):
        patch = disc_patch(4)
        P = 0.003
        F = assemble_load(patch, tractions={QUARTER_DISC_LOAD_FACE: np.array([P, 0.0])})
        assert abs(F[0::2].sum() - P * 1.0) <= 1e-10

    def test_unknown_face(self):
        with pytest.raises(Exception):
            assemble_load(unit_square_patch(2, 2), tractions={9: np.zeros(2)})

    @pytest.mark.parametrize("patch", [unit_square_patch(2, 2), sphere_octant_patch(1.0)], ids=["2d", "3d"])
    def test_face_id_past_the_last_face(self, patch):
        with pytest.raises(GeometryError):
            assemble_load(patch, tractions={2 * patch.ndim: np.zeros(patch.ndim)})


class TestTraceQuadrature:
    @pytest.mark.parametrize(
        "patch, face",
        [
            (quarter_disc_patch(1.0).refine_to_breakpoints([[0.5], [0.25, 0.5]]), QUARTER_DISC_CONTACT_FACE),
            (sphere_octant_patch(1.0).refine_to_breakpoints([[0.5], [0.25, 0.5], [0.5]]), SPHERE_OCTANT_CONTACT_FACE),
        ],
        ids=["disc", "octant"],
    )
    def test_one_basis_evaluation_per_direction(self, patch, face, monkeypatch):
        # the basis matrix, the points and the measures all come from one value/derivative pass
        trace = extract_trace(patch, face)
        calls = []
        for module in (splines, assembly):
            original = module.eval_basis_batch

            def counting(kv, zetas, n_deriv=0, original=original):
                calls.append(kv)
                return original(kv, zetas, n_deriv)

            monkeypatch.setattr(module, "eval_basis_batch", counting)
        build_trace_quadrature(trace, 3)
        kvs = trace.space.space.knot_vectors
        assert len(calls) == len(kvs) and all(c is kv for c, kv in zip(calls, kvs))


class TestConstraints:
    def test_all_fixed_zero(self):
        K_free = assemble_stiffness(unit_square_patch(2, 2), MAT)
        constraints = {d: 0.0 for d in range(K_free.shape[0])}
        K, F = apply_constraints(K_free, np.zeros(K_free.shape[0]), constraints)
        u = spla.spsolve(K.tocsc(), F)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)

    def test_single_dof_prescribed(self):
        K_free = assemble_stiffness(unit_square_patch(2, 1), MAT)
        constraints = {d: 0.0 for d in range(K_free.shape[0])}
        constraints[5] = 1.0
        K, F = apply_constraints(K_free, np.zeros(K_free.shape[0]), constraints)
        u = spla.spsolve(K.tocsc(), F)
        assert u[5] == 1.0

    def test_contradictory_constraints(self):
        with pytest.raises(AssemblyError):
            merge_constraints({3: 0.0}, {3: 1.0})

    def test_matches_sparse_product_oracle(self):
        K = assemble_stiffness(disc_patch(3), MAT).tocsr().tolil()
        K[4, 4] = 0.0  # a fixed dof whose diagonal K does not store
        K = K.tocsr()
        K.eliminate_zeros()
        n = K.shape[0]
        F = np.random.default_rng(5).normal(size=n)
        constraints = {0: 0.0, 4: 0.5, 7: -1.0, n - 1: 0.0}
        Kc, Fc = apply_constraints(K, F, constraints)
        free = np.ones(n)
        free[list(constraints)] = 0.0
        Df = sp.diags(free)
        K_ref = (Df @ K @ Df + sp.diags(1.0 - free)).tocsr()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(Kc, name), getattr(K_ref, name))
        u_fix = np.zeros(n)
        u_fix[list(constraints)] = list(constraints.values())
        F_ref = F - K @ u_fix
        F_ref[list(constraints)] = list(constraints.values())
        np.testing.assert_array_equal(Fc, F_ref)

    def test_quarter_disc_roller_constraints_spd(self):
        patch = disc_patch(3)
        K_free = assemble_stiffness(patch, MAT)
        constraints = merge_constraints(
            dirichlet_on_face(patch, QUARTER_DISC_SYMMETRY_FACE, component=1),
            dirichlet_on_face(patch, QUARTER_DISC_LOAD_FACE, component=0),
        )
        K, _ = apply_constraints(K_free, np.zeros(K_free.shape[0]), constraints)
        sla.cho_factor(K.toarray())  # raises if not positive definite


class TestNeoHookean:
    def test_zero_displacement_matches_linear_stiffness(self):
        patch = disc_patch(2)
        mat = NeoHookeanMaterial(1.0, 0.3)
        f, K_T = neo_hookean_forces(patch, mat, np.zeros(patch.space.dim * 2))
        assert np.abs(f).max() <= 1e-14
        K_lin = assemble_stiffness(patch, MAT).tocsr()
        diff = abs(K_T.tocsr() - K_lin).max()
        assert diff <= 1e-8 * abs(K_lin).max()

    def test_uniform_dilation_stress_series(self):
        # trace of PK1 at F = (1+alpha) I matches linear elasticity to O(alpha^2)
        mat = NeoHookeanMaterial(1.0, 0.3)
        mu, lam = mat.lame()
        for alpha in (1e-3, 1e-4):
            F = (1 + alpha) * np.eye(2)
            tr = np.trace(mat.pk1(F))
            lin = 2 * (lam + mu) * alpha * 2  # sigma_kk = (2 lam + 2 mu) * tr(eps), d = 2
            assert abs(tr - lin) <= 10 * alpha ** 2

    def test_tangent_matches_finite_differences(self):
        patch = quarter_disc_patch(1.0)
        mat = NeoHookeanMaterial(1.0, 0.3)
        rng = np.random.default_rng(17)
        u = 1e-2 * rng.normal(size=patch.space.dim * 2)
        f0, K_T = neo_hookean_forces(patch, mat, u)
        K_T = K_T.toarray()
        h = 1e-7
        fd = np.zeros_like(K_T)
        for j in range(u.size):
            e = np.zeros_like(u)
            e[j] = h
            fp, _ = neo_hookean_forces(patch, mat, u + e)
            fm, _ = neo_hookean_forces(patch, mat, u - e)
            fd[:, j] = (fp - fm) / (2 * h)
        scale = np.abs(K_T).max()
        assert np.abs(K_T - fd).max() <= 5e-6 * scale

    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_matches_material_tangent_oracle(self, patch):
        mat = NeoHookeanMaterial(1.0, 0.3)
        u = smooth_state(patch, 5)
        f, K_T = neo_hookean_forces(patch, mat, u)
        K_ref, f_ref = einsum_neo_hookean(patch, mat, u)
        assert np.abs(K_T.toarray() - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
        assert np.abs(f - f_ref).max() <= 1e-12 * np.abs(f_ref).max()

    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_hoisted_tangent_matches_per_call_formulation(self, patch):
        # the state-free block sum_q wdet g_a . g_b is built once per patch and scaled by
        # mu; forming mu wdet inside the quadrature sum at every call agrees to rounding
        mat = NeoHookeanMaterial(1.0, 0.3)
        mu, lam = mat.lame()
        x = patch.control_points
        u = (0.05 * np.sin(x) + 0.02 * x ** 2).ravel()
        f, K_T = neo_hookean_forces(patch, mat, u, quad=patch_quadrature(patch))
        nd = patch.ndim
        slots = assembly._element_slots(patch)
        data = slots.stencil.zeros()
        start = 0
        for b in iter_element_blocks(patch, max(patch.degrees) + 1):
            g, wdet = b.grads_phys, b.wdet
            Fdef = np.eye(nd) + np.einsum("eai,eqaj->eqij", u.reshape(-1, nd)[b.dofs], g)
            J, Finv = det_and_inverse(Fdef)
            k_grad = _grad_products(g.transpose(0, 2, 1, 3).reshape(g.shape[0], g.shape[2], -1), mu * wdet)
            c_swap = (mu - lam * np.log(J)) * wdet
            ce, nloc = b.dofs.shape
            ke = two_product_element_matrices(g @ Finv, lam * wdet, c_swap).reshape(ce, nloc, nd, nloc, nd)
            for i in range(nd):
                ke[:, :, i, :, i] += k_grad
            m = nloc * nd
            upper = np.flatnonzero(np.triu(np.ones((m, m), dtype=bool)))
            slots.add(data, start, ke.reshape(ce, m * m)[:, upper])
            start += g.shape[0]
        assert K_T.stencil is slots.stencil
        assert np.abs(K_T.data - data).max() <= 1e-14 * np.abs(data).max()

    @pytest.mark.parametrize("patch", [disc_patch(3), octant_patch(2)], ids=["2d", "3d"])
    def test_residual_matches_pk1_and_det_and_inverse(self, patch):
        # the residual writes F^T and P^T in the layout of its force product; the law and
        # the kinematics in their own layout, element block by block, are the oracle
        mat = NeoHookeanMaterial(1.0, 0.3)
        nd = patch.ndim
        for seed in (1, 2):
            u = smooth_state(patch, seed)
            state = neo_hookean_residual(patch_quadrature(patch), mat, u)
            f_ref = np.zeros(u.size)
            start = 0
            for b in iter_element_blocks(patch, max(patch.degrees) + 1):
                Fdef = np.eye(nd) + np.einsum("eai,eqaj->eqij", u.reshape(-1, nd)[b.dofs], b.grads_phys)
                J, Finv = det_and_inverse(Fdef)
                rows = slice(start, start + b.dofs.shape[0])
                assert np.abs(state.J[rows] - J).max() <= 1e-14 * np.abs(J).max()
                assert np.abs(state.Finv[rows] - Finv).max() <= 1e-14 * np.abs(Finv).max()
                fe = np.einsum("eqij,eqaj,eq->eai", mat.pk1(Fdef), b.grads_phys, b.wdet)
                np.add.at(f_ref, (b.dofs[:, :, None] * nd + np.arange(nd)).ravel(), fe.ravel())
                start = rows.stop
            assert start == state.J.shape[0]
            assert np.abs(state.f_int - f_ref).max() <= 1e-14 * np.abs(f_ref).max()

    @pytest.mark.parametrize("nd", [2, 3])
    def test_swap_correction_matches_two_product_form(self, nd):
        # one pair product of c_pair + c_swap, less the antisymmetric blocks, is the
        # pair term plus the swap term of two separate products
        rng = np.random.default_rng(nd)
        ce, nq, nloc = 5, 3 ** nd, 3 ** nd
        w = rng.normal(size=(ce, nq, nloc, nd))
        c_pair, c_swap = rng.uniform(0.5, 2.0, size=(2, ce, nq))
        ke = _pair_products(w, c_pair + c_swap)
        _swap_correction(ke, w, c_swap)
        ref = two_product_element_matrices(w, c_pair, c_swap)
        assert np.abs(ke.reshape(ref.shape) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_element_inversion_detected_3d(self):
        patch = octant_patch(2)
        mat = NeoHookeanMaterial(1.0, 0.3)
        u = -1.5 * patch.control_points.ravel()  # x -> -0.5 x turns every element inside out
        with pytest.raises(ElementInversionError, match="det F <= 0"):
            neo_hookean_residual(patch_quadrature(patch), mat, u)

    def test_element_inversion_detected(self):
        patch = unit_square_patch(2, 1)
        mat = NeoHookeanMaterial(1.0, 0.3)
        u = np.zeros(patch.space.dim * 2)
        u[0::2] = -1.5 * patch.control_points[:, 0]  # x -> -0.5 x flips elements
        with pytest.raises(ElementInversionError):
            neo_hookean_forces(patch, mat, u)
