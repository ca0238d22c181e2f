"""Solver tests: saddle solves, active-set loops, Newton stepping, stability estimate."""
from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from igacontact import assembly, benchmarks, solver
from igacontact.assembly import (
    apply_constraints,
    assemble_load,
    assemble_stiffness,
    dirichlet_on_face,
    merge_constraints,
    neo_hookean_forces,
    neo_hookean_residual,
    patch_quadrature,
)
from igacontact.benchmarks import (
    RunConfig,
    build_hertz2d_problem,
    build_hertz3d_problem,
    build_large_deformation_problem,
    quarter_disc_level_patch,
    sphere_octant_level_patch,
)
from igacontact.contact import (
    complementarity_ok,
    coupling_matrix,
    multiplier_basis,
    scalar_coupling_and_masses,
    weighted_gap,
)
from igacontact.geometry import (
    SPHERE_OCTANT_CONTACT_FACE,
    GeometryError,
    extract_trace,
    face_id,
    unit_square_patch,
)
from igacontact.materials import LinearMaterial
from igacontact.solver import (
    SmallDeformationProblem,
    SolverError,
    band_order,
    _CondensedSaddle,
    inf_sup_estimate,
    saddle_solve,
    solve_large_deformation,
    solve_small_deformation,
)
from igacontact.verification import arc_coordinate_2d, displacement_errors, hertz_2d, hertz_3d

from helpers import GapField, active_region_extent, grid_points

MAT = LinearMaterial(1.0, 0.3)


def square_contact_problem(n=3, plane_offset=0.0, traction=(0.0, -0.05), fix_top=False):
    """Unit square over the rigid plane y = plane_offset (negative gap none).

    Side edges roll (u_x = 0); optionally the top edge is clamped to keep
    the stiffness nonsingular for separation tests.
    """
    patch = unit_square_patch(2, n)
    constraints = merge_constraints(
        dirichlet_on_face(patch, face_id(0, 0), component=0),
        dirichlet_on_face(patch, face_id(0, 1), component=0),
    )
    if fix_top:
        constraints = merge_constraints(
            constraints, dirichlet_on_face(patch, face_id(1, 1), component=1)
        )
    normal = np.array([0.0, 1.0])
    trace = extract_trace(patch, face_id(1, 0), rigid_normal=normal)
    basis = multiplier_basis(trace)
    gap = GapField(trace=trace, normal=normal, offset=plane_offset)
    g0 = gap.gap_at(grid_points(basis.quadrature.abscissae))
    problem = SmallDeformationProblem(
        patch=patch,
        stiffness=assemble_stiffness(patch, MAT),
        load=assemble_load(patch, tractions={face_id(1, 1): np.array(traction)}),
        constraints=constraints,
        coupling=coupling_matrix(basis, 2, patch.space.dim),
        gap_integrals=weighted_gap(g0, basis) * basis.measures,
        measures=basis.measures,
    )
    return problem, patch, basis


class TestSaddleSolve:
    def test_empty_active_set_reduces_to_elasticity(self):
        K = sp.csr_matrix(np.diag([2.0, 3.0]))
        F = np.array([4.0, 9.0])
        u, lam = saddle_solve(K, F, sp.csr_matrix((0, 2)))
        np.testing.assert_allclose(u, [2.0, 3.0], atol=1e-14)
        assert lam.size == 0

    def test_one_dof_spring_reaction(self):
        K = sp.csr_matrix(np.array([[1.0]]))
        B = sp.csr_matrix(np.array([[1.0]]))
        u, lam = saddle_solve(K, np.array([-1.0]), B, np.zeros(1))
        assert abs(u[0]) <= 1e-14
        assert abs(lam[0] + 1.0) <= 1e-14

    def test_matches_dense_schur_oracle(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(6, 6))
        K = A @ A.T + 6 * np.eye(6)
        B = rng.normal(size=(2, 6))
        F = rng.normal(size=6)
        g = rng.normal(size=2)
        # dense block-elimination oracle
        Kinv_F = sla.solve(K, F)
        Kinv_Bt = sla.solve(K, B.T)
        S = B @ Kinv_Bt
        lam_oracle = sla.solve(S, B @ Kinv_F - g)
        u_oracle = Kinv_F - Kinv_Bt @ lam_oracle
        u, lam = saddle_solve(sp.csr_matrix(K), F, sp.csr_matrix(B), g)
        np.testing.assert_allclose(u, u_oracle, atol=1e-10)
        np.testing.assert_allclose(lam, lam_oracle, atol=1e-10)

    def test_residual_invariant(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(8, 8))
        K = sp.csr_matrix(A @ A.T + 8 * np.eye(8))
        B = sp.csr_matrix(rng.normal(size=(3, 8)))
        F = rng.normal(size=8)
        g = rng.normal(size=3)
        u, lam = saddle_solve(K, F, B, g)
        mat = sp.bmat([[K, B.T], [B, None]]).tocsr()
        x = np.concatenate([u, lam])
        rhs = np.concatenate([F, g])
        assert np.linalg.norm(mat @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_matrix_matches_bmat(self, monkeypatch):
        # a Newton-like tangent: not bitwise symmetric, with an explicit zero,
        # a row of unsorted column indices and a duplicate entry
        problem = hertz2d_level1()
        K, F, Bhat, g = condensed_inputs(problem)
        K = K.tocsr(copy=True)
        rows = np.flatnonzero(np.diff(K.indptr) > 3)
        span = [slice(K.indptr[r], K.indptr[r + 1]) for r in rows[:3]]
        K.data[span[0].start + 1] += 1e-3
        K.data[span[1].start] = 0.0
        K.indices[span[2]] = K.indices[span[2]][::-1].copy()
        K.data[span[2]] = K.data[span[2]][::-1].copy()
        at = K.indptr[rows[3] + 1]
        indptr = K.indptr.copy()
        indptr[rows[3] + 1 :] += 1
        K = sp.csr_matrix(
            (np.insert(K.data, at, 0.5), np.insert(K.indices, at, K.indices[at - 1]), indptr),
            shape=K.shape,
        )
        assert not K.has_canonical_format and (K != K.T).nnz
        rng = np.random.default_rng(41)
        active = np.flatnonzero(rng.random(Bhat.shape[0]) < 0.5)
        mats = []
        original = solver.spla.splu

        def capture(A, *args, **kwargs):
            mats.append(A.copy())  # splu may canonicalize A in place
            return original(A, *args, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", capture)
        B = Bhat[active]
        saddle_solve(K, F, B, g[active])
        want = sp.bmat([[K, B.T], [B, None]], format="csc")
        (got,) = mats
        assert got.format == "csc" and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_rank_deficient_active_block_reported(self):
        K = sp.csr_matrix(np.eye(3))
        B = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(SolverError, match="rank-deficient"):
            saddle_solve(K, np.zeros(3), B, np.zeros(2))


class TestSmallDeformation:
    def test_pull_away_converges_in_one_iteration_empty_set(self):
        problem, _, _ = square_contact_problem(
            n=2, plane_offset=-0.1, traction=(0.0, 0.05), fix_top=True
        )
        bundle = solve_small_deformation(problem)
        assert bundle.active.sum() == 0
        assert len(bundle.iterations) == 1
        np.testing.assert_array_equal(bundle.lam, 0.0)

    def test_flat_punch_uniform_pressure(self):
        P = 0.05
        problem, patch, basis = square_contact_problem(n=3, traction=(0.0, -P))
        bundle = solve_small_deformation(problem)
        assert bundle.active.all()
        np.testing.assert_allclose(bundle.lam, -P, atol=1e-12)
        assert complementarity_ok(bundle.state)

    def test_energy_balance_identity(self):
        P = 0.02
        problem, _, _ = square_contact_problem(n=4, traction=(0.0, -P))
        bundle = solve_small_deformation(problem)
        K, F = apply_constraints(problem.stiffness, problem.load, problem.constraints)
        a_uu = bundle.u @ (K @ bundle.u)
        L_u = bundle.u @ F
        act = bundle.active
        coupling_term = bundle.lam[act] @ (problem.coupling[np.flatnonzero(act)] @ bundle.u)
        scale = max(abs(a_uu), abs(L_u), 1e-30)
        assert abs(a_uu - L_u + coupling_term) <= 1e-8 * scale

    def test_hertz2d_coarse_active_width(self):
        config = RunConfig(benchmark="hertz2d", pressure=0.003, base_spans=(6, 6), levels=2)
        patch = quarter_disc_level_patch(config, 2)
        problem, setup = build_hertz2d_problem(patch, config)
        bundle = solve_small_deformation(problem)
        assert complementarity_ok(bundle.state)
        analytic = hertz_2d(1.0, 1.0, 0.3, 0.003)
        r_of = arc_coordinate_2d(setup.basis.trace)
        r_max, el_width = active_region_extent(bundle, setup.basis, r_of)
        assert abs(r_max - analytic.a) <= el_width + 1e-12
        # multipliers are compressive where active
        assert bundle.lam[bundle.active].max() < 0.0

    def test_nonzero_constraints_match_saddle_solve(self):
        # the top edge pushed down and the left edge shifted by prescribed values: the
        # assembled stiffness, its fixed dofs eliminated by the band layout, gives the
        # u and lam of the saddle solve on the constrained copy of K
        problem, patch, _ = square_contact_problem(n=3, traction=(0.0, 0.0))
        constraints = merge_constraints(
            dirichlet_on_face(patch, face_id(0, 0), component=0, value=0.004),
            dirichlet_on_face(patch, face_id(0, 1), component=0),
            dirichlet_on_face(patch, face_id(1, 1), component=1, value=-0.02),
        )
        problem = dataclasses.replace(problem, constraints=constraints)
        bundle = solve_small_deformation(problem)
        act = np.flatnonzero(bundle.active)
        assert act.size > 0
        K, F, Bhat, g = condensed_inputs(problem)
        u_ref, lam_ref = saddle_solve(K, F, Bhat[act], g[act])
        assert np.abs(bundle.u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(bundle.lam[act] - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()
        for d, v in problem.constraints.items():
            assert bundle.u[d] == v
        assert bundle.iterations[-1].residual_u <= 1e-12 * np.linalg.norm(F)

    def test_iteration_cap_raises(self, monkeypatch):
        # positive initial gap: the first pass only seeds, so one iteration cannot finish
        problem, _, _ = square_contact_problem(n=2, plane_offset=-0.05, traction=(0.0, -0.2))
        monkeypatch.setattr(solver, "_MAX_ACTIVE_SET_ITERS", 1)
        with pytest.raises(SolverError, match="did not converge in 1 iterations"):
            solve_small_deformation(problem)

    def test_alternating_sets_stop_at_the_cap(self):
        # a stub saddle whose solve on either one-dof set releases that dof (lam > 0) and
        # opens a penetration at the other: every update swaps the two sets, and the loop,
        # which keeps no record of earlier sets, runs to the cap and names what it saw
        solves = []

        class Alternating:
            layout = SimpleNamespace(Bc=np.eye(2), cols=np.arange(2))
            residual_u = 0.0

            def solve(self, act, g):
                solves.append(act.tolist())
                x = np.zeros(2)
                x[1 - act[0]] = -1.0
                return x, np.ones(act.size)

        start = np.array([True, False])
        with pytest.raises(SolverError) as err:
            solver._settle_active_set(Alternating(), start, np.zeros(2), np.zeros(2), np.ones(2))
        assert len(solves) == solver._MAX_ACTIVE_SET_ITERS
        assert solves[:3] == [[0], [1], [0]]
        message = str(err.value)
        assert f"did not converge in {solver._MAX_ACTIVE_SET_ITERS} iterations" in message
        assert "last |A| 1" in message and "changed 2 dofs" in message

    def test_gap_closing_punch(self):
        # body must translate down 0.05 before touching; solution compresses uniformly
        P = 0.2
        problem, _, _ = square_contact_problem(n=2, plane_offset=-0.05, traction=(0.0, -P))
        bundle = solve_small_deformation(problem)
        assert bundle.active.all()
        np.testing.assert_allclose(bundle.lam, -P, atol=1e-11)
        np.testing.assert_allclose(bundle.weighted_gap, 0.0, atol=1e-11)


SEEDED_RUNS = {
    "hertz2d-p003": RunConfig(benchmark="hertz2d", pressure=0.003, levels=4, base_spans=(3, 6), grading=(0.8, 0.1)),
    "hertz3d-coarse": RunConfig(
        benchmark="hertz3d", pressure=1e-4, levels=2, base_spans=(2, 4, 2), grading=(0.5, 0.2)
    ),
}


@pytest.fixture(scope="module")
def seeded_run(tmp_path_factory):
    """``seeded_run(name)``: the :class:`RunResult` of a ``SEEDED_RUNS`` config, run once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            config = dataclasses.replace(SEEDED_RUNS[name], out=str(tmp_path_factory.mktemp(name)))
            runs[name] = benchmarks.run_benchmark(config)
        return runs[name]

    return get


class TestSeededActiveSet:
    """Every linear level after the first starts from the coarser level's contact zone inside the analytic mask."""

    @pytest.mark.parametrize("name,coarse,fine", [("hertz2d-p003", 1, 2), ("hertz3d-coarse", 0, 1)])
    def test_seed_is_the_children_of_coarse_active_dofs_in_the_mask(self, seeded_run, name, coarse, fine):
        result = seeded_run(name)
        levels = result.levels + [result.reference]
        prev, cur = levels[coarse], levels[fine]
        radius, a = result.config.radius, result.analytic.a
        seed = benchmarks._seed_active_set(cur.setup, radius, a, prev)
        # p = 2: multipliers are element indicators, and a fine dof's parent is the coarse element holding its own
        cs, fs = prev.setup.basis.space, cur.setup.basis.space
        parents = [
            np.searchsorted(kc.breakpoints, kf.element_bounds.mean(axis=1)) - 1
            for kc, kf in zip(cs.knot_vectors, fs.knot_vectors)
        ]
        parent = np.ravel_multi_index(np.meshgrid(*parents, indexing="ij"), cs.n_basis).ravel()
        expected = prev.bundle.active[parent] & benchmarks._warm_active_set(cur.setup, radius, a)
        assert expected.any()
        assert np.array_equal(seed, expected)
        assert cur.bundle.iterations[0].n_active == expected.sum()  # the level started from it

    @pytest.mark.parametrize("load", ["pull-away", "zero"])
    def test_no_coarse_pressure_gives_the_coarsest_level_start(self, seeded_run, load):
        # a coarse level with no positive pressure seeds nothing: a pull-away leaves the analytic
        # mask, and a zero load (half-width 0, an empty mask) no warm start at all
        result = seeded_run("hertz2d-p003")
        prev, cur = result.levels[1], result.levels[2]
        pulled = dataclasses.replace(prev, bundle=dataclasses.replace(prev.bundle, lam=np.zeros_like(prev.bundle.lam)))
        radius = result.config.radius
        a = result.analytic.a if load == "pull-away" else 0.0
        seed = benchmarks._seed_active_set(cur.setup, radius, a, pulled)
        start = benchmarks._seed_active_set(cur.setup, radius, a, None)
        if load == "zero":
            assert seed is None and start is None
        else:
            assert np.array_equal(start, benchmarks._warm_active_set(cur.setup, radius, a))
            assert np.array_equal(seed, start)

    def test_hertz2d_p003_records_per_level(self, seeded_run):
        # from the analytic mask alone the levels took (2, 3, 4, 6) records, the reference shedding 60 -> 47 dofs
        result = seeded_run("hertz2d-p003")
        assert [len(r.bundle.iterations) for r in result.levels + [result.reference]] == [2, 1, 1, 2]

    def test_hertz3d_coarse_reference_records(self, seeded_run):
        # one record from the analytic mask alone; the coarse level's 2 active dofs seed 32 children
        result = seeded_run("hertz3d-coarse")
        assert len(result.reference.bundle.iterations) <= 1


def condensed_inputs(problem):
    """K, F, masked coupling and gap right-hand side as solve_small_deformation forms them."""
    K, F = apply_constraints(problem.stiffness, problem.load, problem.constraints)
    fixed = np.fromiter(problem.constraints.keys(), dtype=np.int64)
    u_fix = np.zeros(F.size)
    u_fix[fixed] = list(problem.constraints.values())
    Bhat = masked_coupling(problem.coupling, fixed)
    g = -(problem.gap_integrals + problem.coupling @ u_fix)
    return K, F, Bhat, g


def masked_coupling(B, fixed):
    """Oracle: the coupling with the columns of the fixed dofs zeroed."""
    free = np.ones(B.shape[1])
    free[fixed] = 0.0
    return (B @ sp.diags(free)).tocsr()


def hertz2d_level1():
    config = RunConfig(
        benchmark="hertz2d", pressure=0.003, levels=4, base_spans=(3, 6), grading=(0.8, 0.1)
    )
    return build_hertz2d_problem(quarter_disc_level_patch(config, 1), config)[0]


def hertz3d_level0():
    config = RunConfig(benchmark="hertz3d", levels=2)
    return build_hertz3d_problem(sphere_octant_level_patch(config, 0), config)[0]


def linear_case(build):
    """Condensed-solve inputs of a linear problem: warm-start, converged and random active sets."""
    problem = build()
    K, F, Bhat, g = condensed_inputs(problem)
    converged = solve_small_deformation(problem).active
    rng = np.random.default_rng(17)
    subset = rng.random(converged.size) < 0.5
    subset[rng.integers(converged.size)] = True
    grid = (problem.patch.space.space.n_basis, problem.patch.ndim)
    return K, F, Bhat, g, grid, (problem.initial_active, converged, subset)


def neo_hookean_case():
    """Constrained Neo-Hookean tangent at a random smooth state, random nonempty active sets."""
    config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
    patch = quarter_disc_level_patch(config, 1)
    problem, _ = build_large_deformation_problem(patch, config)
    rng = np.random.default_rng(23)
    x = patch.control_points
    a, b = rng.uniform(0.0, 2.0 * np.pi, size=(2, 2))
    u = 0.03 * np.column_stack([np.sin(2 * x[:, 0] + a[0]) * np.cos(x[:, 1] + b[0]),
                                np.cos(x[:, 0] + a[1]) * np.sin(2 * x[:, 1] + b[1])]).ravel()
    _, K_T = neo_hookean_forces(patch, problem.material, u)
    n = u.size
    fixed = np.fromiter(problem.constraints.keys(), dtype=np.int64)
    K, _ = apply_constraints(K_T, np.zeros(n), {int(d): 0.0 for d in fixed})
    F = rng.normal(size=n)
    F[fixed] = 0.0
    Bhat = masked_coupling(problem.coupling, fixed)
    m = Bhat.shape[0]
    g = 1e-3 * rng.normal(size=m)
    actives = []
    for frac in (0.2, 0.6):
        active = rng.random(m) < frac
        active[rng.integers(m)] = True
        actives.append(active)
    return K, F, Bhat, g, (patch.space.space.n_basis, 2), actives


def warm_set(setup, config):
    """The dofs a 2D run of ``config`` is expected to have active: the linear warm start of its mesh."""
    a = hertz_2d(config.radius, config.young, config.poisson, config.pressure).a
    return benchmarks._warm_active_set(setup, config.radius, a)


def plain_layout(K, B, grid):
    """The band layout of K's pattern in the band_order of ``grid``, (shape, n_comp): nothing fixed, no walk."""
    shape, n_comp = grid
    return solver._band_layout(K.indptr, K.indices, shape, n_comp, B, {}, np.zeros(B.shape[0], dtype=bool))


def condensed_saddle(K, F, Bhat, grid):
    """_CondensedSaddle of a constrained K on the band layout of its own pattern."""
    return _CondensedSaddle(K, F, plain_layout(K, Bhat, grid))


def count_step_attempts(monkeypatch):
    """Calls of the Newton load-step driver: one per load step when no step halves."""
    calls = []
    original = solver._newton_contact_step

    def counting(*args):
        calls.append(args[8])
        return original(*args)

    monkeypatch.setattr(solver, "_newton_contact_step", counting)
    return calls


def record_load_factors(monkeypatch):
    """The load factor of every Newton load-step attempt, in order."""
    loads = []
    original = solver._newton_contact_step

    def recording(*args):
        loads.append(args[7])
        return original(*args)

    monkeypatch.setattr(solver, "_newton_contact_step", recording)
    return loads


def count_calls(monkeypatch, module, name):
    """Record the calls of ``module.name`` made through that module."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def record_settled(monkeypatch):
    """Record the (x, settled state) of every active-set loop the solver runs."""
    settled = []
    original = solver._settle_active_set

    def recording(*args, **kwargs):
        settled.append(original(*args, **kwargs))
        return settled[-1]

    monkeypatch.setattr(solver, "_settle_active_set", recording)
    return settled


def count_kept_factors(monkeypatch):
    """The decisions of the kept-factor predicate: True for a correction on the last factor."""
    kept = []
    original = solver._keeps_factor

    def recording(*args):
        kept.append(bool(original(*args)))
        return kept[-1]

    monkeypatch.setattr(solver, "_keeps_factor", recording)
    return kept


def count_factorizations(monkeypatch):
    calls = []
    original = solver.sla.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(args[0].shape[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver.sla, "cholesky_banded", counting)
    return calls


def tensor_half_bandwidth(order, shape, n_comp, degree):
    """Half-bandwidth, in the dof order ``order``, of the coupling of degree-p tensor B-splines."""
    pattern = sp.csr_matrix(np.ones((n_comp, n_comp)))
    for n in reversed(shape):
        idx = np.arange(n)
        pattern = sp.kron(sp.csr_matrix(np.abs(idx[:, None] - idx) <= degree), pattern, format="csr")
    coo = pattern.tocoo()
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order))
    return int(np.abs(pos[coo.row] - pos[coo.col]).max())


class TestBandOrder:
    @pytest.mark.parametrize(
        "shape,n_comp,expected", [((26, 50), 2, 109), ((50, 98), 2, 205), ((10, 18, 10), 3, 668)]
    )
    def test_half_bandwidth(self, shape, n_comp, expected):
        order = band_order(shape, n_comp)
        assert np.array_equal(np.sort(order), np.arange(int(np.prod(shape)) * n_comp))
        assert tensor_half_bandwidth(order, shape, n_comp, 2) == expected
        assert solver._band_halfwidth(shape, n_comp, 2) == expected

    @pytest.mark.parametrize(
        "shape", [(26, 50), (50, 26), (7, 7), (3, 9), (10, 18, 10), (4, 6, 4), (9, 3, 5), (3, 5, 9)]
    )
    def test_never_above_natural_order(self, shape):
        n_comp = len(shape)
        natural = np.arange(int(np.prod(shape)) * n_comp)
        for degree in (2, 3):
            band = tensor_half_bandwidth(band_order(shape, n_comp), shape, n_comp, degree)
            assert band <= tensor_half_bandwidth(natural, shape, n_comp, degree)

    def test_matches_assembled_stiffness(self):
        # the reference level of hertz2d-large-p01: a 26 x 50 basis grid
        config = RunConfig(benchmark="hertz2d", base_spans=(3, 6), grading=(0.7, 0.45))
        patch = quarter_disc_level_patch(config, 3)
        assert patch.space.space.n_basis == (26, 50)
        K = assemble_stiffness(patch, MAT)
        n = K.shape[0]
        ab = plain_layout(K, sp.csr_matrix((1, n)), ((26, 50), 2)).fill(K.data)
        assert ab.shape == (110, n)


def dense_band(A, u):
    """Oracle: the upper band of a dense matrix, transposed into LAPACK's lower storage ab[r - c, c] = A[c, r]."""
    n = A.shape[0]
    ab = np.zeros((u + 1, n))
    for k in range(u + 1):
        ab[k, : n - k] = np.diag(A, k)
    return ab


class TestBandLayout:
    @pytest.mark.parametrize("kind", ["linear", "neo-hookean"])
    def test_fill_matches_dense_oracle(self, kind):
        # the gather equals the band of P apply_constraints(K) P^T bit for bit, and
        # the masked product equals the product with the constrained matrix
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 1)
        problem, setup = build_large_deformation_problem(patch, config)
        n = patch.space.dim * 2
        if kind == "linear":
            K = assemble_stiffness(patch, MAT)
        else:
            x = patch.control_points
            u = 0.03 * np.column_stack([np.sin(2 * x[:, 0]), np.cos(x[:, 1])]).ravel()
            K = neo_hookean_forces(patch, problem.material, u)[1]
        shape, warm = patch.space.space.n_basis, warm_set(setup, config)
        layout = solver._band_layout(K.indptr, K.indices, shape, 2, problem.coupling, problem.constraints, warm)
        order = layout.order
        Kc, _ = apply_constraints(K, np.zeros(n), {int(d): 0.0 for d in problem.constraints})
        PKP = Kc.toarray()[np.ix_(order, order)]
        assert not np.tril(PKP, -layout.u - 1).any()
        assert np.array_equal(layout.fill(K.data), dense_band(PKP, layout.u))
        x = np.random.default_rng(4).normal(size=n)
        assert np.array_equal(layout.matvec(K, x), Kc @ x)

    def test_lower_storage_diagonal_in_row_zero(self, monkeypatch):
        # the band is LAPACK's lower storage: row 0 holds the diagonal of P K P^T (unit
        # on the fixed dofs), and the factorization is asked for L with A = L L^T
        problem = hertz2d_level1()
        K, nd = problem.stiffness, problem.patch.ndim
        shape = problem.patch.space.space.n_basis
        none = np.zeros(problem.coupling.shape[0], dtype=bool)
        layout = solver._band_layout(K.indptr, K.indices, shape, nd, problem.coupling, problem.constraints, none)
        Kc, _ = apply_constraints(K, np.zeros(K.shape[0]), problem.constraints)
        ab = layout.fill(K.data)
        assert np.array_equal(ab[0], Kc.diagonal()[layout.order])
        assert np.array_equal(ab[0, layout.pos[layout.fixed]], np.ones(layout.fixed.size))
        factored = []
        original = solver.sla.cholesky_banded

        def recording(band, **kwargs):
            factored.append((band[0].copy(), kwargs.get("lower", False)))
            return original(band, **kwargs)

        monkeypatch.setattr(solver.sla, "cholesky_banded", recording)
        saddle = _CondensedSaddle(K, problem.load, layout)
        [(diagonal, lower)] = factored
        assert lower
        shifted = Kc.diagonal()[layout.order]
        shifted[layout.pos[layout.i]] += saddle.rho
        assert np.array_equal(diagonal, shifted)

    def test_fixed_dofs_solve_as_constrained_matrix(self):
        # the Newton path hands the raw tangent and its fixed dofs to the layout
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 1)
        problem, setup = build_large_deformation_problem(patch, config)
        warm = warm_set(setup, config)
        n = patch.space.dim * 2
        x = patch.control_points
        K_T = neo_hookean_forces(patch, problem.material, 0.02 * np.sin(x).ravel())[1]
        fixed = np.fromiter(problem.constraints.keys(), dtype=np.int64)
        Kc, _ = apply_constraints(K_T, np.zeros(n), {int(d): 0.0 for d in fixed})
        Bhat = masked_coupling(problem.coupling, fixed)
        shape = patch.space.space.n_basis
        rng = np.random.default_rng(8)
        F = rng.normal(size=n)
        F[fixed] = 0.0
        act = np.flatnonzero(warm)
        g = 1e-3 * rng.normal(size=act.size)
        layout = solver._band_layout(K_T.indptr, K_T.indices, shape, 2, problem.coupling, problem.constraints, warm)
        raw = _CondensedSaddle(K_T, F, layout)
        u, lam = raw.solve(act, g)
        u_ref, lam_ref = saddle_solve(Kc, F, Bhat[act], g)
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(lam - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()
        # the constrained matrix, nothing fixed, in the same order
        constrained = solver._band_layout(Kc.indptr, Kc.indices, shape, 2, Bhat, {}, warm)
        assert np.array_equal(constrained.order, layout.order)
        assert np.array_equal(u, _CondensedSaddle(Kc, F, constrained).solve(act, g)[0])

    @pytest.mark.parametrize("build", [hertz2d_level1, hertz3d_level0], ids=["2d", "3d"])
    def test_dense_coupling_matches_sparse(self, build):
        # the dense block over the coupled dofs gives the sparse products, and its
        # masked rows placed in band order are the rows of Bhat P^T
        problem = build()
        B, K = problem.coupling, problem.stiffness
        n, m = K.shape[0], B.shape[0]
        # every fifth coupled dof fixed as well, so that the mask acts inside the block
        fixed = np.union1d(np.fromiter(problem.constraints.keys(), dtype=np.int64), np.unique(B.indices)[::5])
        Bhat = masked_coupling(B, fixed)
        shape, nd = problem.patch.space.space.n_basis, problem.patch.ndim
        none = np.zeros(m, dtype=bool)
        layout = solver._band_layout(K.indptr, K.indices, shape, nd, B, {int(d): 0.0 for d in fixed}, none)
        order = layout.order
        assert np.array_equal(order, band_order(shape, nd))
        assert np.array_equal(layout.cols, np.unique(B.indices))
        rng = np.random.default_rng(5)
        x, lam = rng.normal(size=n), rng.normal(size=m)

        def close(got, want):
            return np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

        assert close(layout.Bc @ x[layout.cols], B @ x)
        assert close(layout.scatter(layout.Bc.T @ lam), B.T @ lam)
        assert close(layout.scatter(layout.Bhc.T @ lam), Bhat.T @ lam)
        rows = np.flatnonzero(np.diff(Bhat.indptr) > 0)
        Bband = Bhat[:, order].toarray()
        first = np.array([np.flatnonzero(Bband[r])[0] for r in rows])
        assert np.array_equal(layout.first[rows], first)
        for take in (rows, rows[rows.size // 2 :], rows[-1:]):
            r0 = int(layout.first[take].min())
            assert np.array_equal(layout.band_rows(take, r0), Bband[take, r0:].T)

    @pytest.mark.parametrize("grid", ["26x50", "10x18x10"])
    def test_contact_rows_come_last(self, grid):
        # the warm-start rows' columns of W start in the second half of the band
        if grid == "26x50":  # the reference level of hertz2d-large-p01
            config = RunConfig(
                benchmark="hertz2d-large", pressure=0.1, levels=3, base_spans=(3, 6), grading=(0.7, 0.45)
            )
            patch = quarter_disc_level_patch(config, 3)
            _, setup = build_large_deformation_problem(patch, config)
            # the set expected active at the first of its load steps
            warm = warm_set(setup, dataclasses.replace(config, pressure=config.pressure / config.n_load_steps))
        else:
            config = RunConfig(
                benchmark="hertz3d", pressure=1e-4, levels=2, base_spans=(2, 4, 2), grading=(0.5, 0.2)
            )
            patch = sphere_octant_level_patch(config, 2)
            setup = benchmarks._contact_setup(
                patch, SPHERE_OCTANT_CONTACT_FACE, [0.0, 0.0, 1.0], -config.radius
            )
            a = hertz_3d(config.radius, config.young, config.poisson, config.pressure).a
            warm = benchmarks._warm_active_set(setup, config.radius, a)
        shape, nd = patch.space.space.n_basis, patch.ndim
        assert "x".join(map(str, shape)) == grid
        n = patch.space.dim * nd
        plain = band_order(shape, nd)
        plan = assembly.scatter_plan(patch)
        order = solver._band_layout(plan.indptr, plan.indices, shape, nd, setup.coupling, {}, warm).order
        assert np.array_equal(np.sort(order), np.arange(n))
        rows = setup.coupling[np.flatnonzero(warm)]
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        assert pos[rows.indices[rows.data != 0]].min() > n / 2
        # the walk direction leaves the bandwidth alone
        degree = max(patch.degrees)
        assert tensor_half_bandwidth(order, shape, nd, degree) == tensor_half_bandwidth(plain, shape, nd, degree)


class TestForwardSubstitution:
    @pytest.mark.parametrize("n,u", [(23, 5), (40, 8), (7, 0)])
    def test_matches_dense_triangular_solve(self, monkeypatch, n, u):
        rng = np.random.default_rng(n + u)
        A = np.zeros((n, n))
        for k in range(1, u + 1):
            off = rng.normal(size=n - k)
            A += np.diag(off, k) + np.diag(off, -k)
        A += np.diag(2.0 * u + 1.0 + rng.random(n))  # diagonally dominant, so SPD
        ab = np.zeros((u + 1, n))
        for k in range(u + 1):
            ab[k, : n - k] = np.diag(A, -k)
        cb = sla.cholesky_banded(ab, lower=True)
        L = sla.cholesky(A, lower=True)
        # first nonzero rows, in order: at a slab start, mid-slab, in the last (short)
        # slab when n is not a multiple of u, and none
        R = rng.normal(size=(n, 6))
        for col, first in enumerate([0, 1, u + 2, min(2 * u + 3, n - 1), n - 1]):
            R[:first, col] = 0.0
        R[:, 5] = 0.0
        want = sla.solve_triangular(L, R, lower=True)
        # a full slab's coupling block reaches BLAS as an F-contiguous view of the factor,
        # so it is read in place, not copied
        in_place = []
        trmm = solver.sla.blas.dtrmm

        def recording(alpha, a, b, **kwargs):
            in_place.append(a.flags.f_contiguous and np.shares_memory(a, cb))
            return trmm(alpha, a, b, **kwargs)

        monkeypatch.setattr(solver.sla.blas, "dtrmm", recording)
        got = solver._forward_substitution(cb, R.copy())
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.all(got[:, 5] == 0.0)
        assert all(in_place) and bool(in_place) == (u > 0)
        with pytest.raises(ValueError, match="first nonzero row"):
            solver._forward_substitution(cb, R[:, ::-1].copy())


class TestCondensedSaddle:
    @pytest.mark.parametrize(
        "build",
        [functools.partial(linear_case, hertz2d_level1), functools.partial(linear_case, hertz3d_level0),
         neo_hookean_case],
        ids=["2d", "3d", "neo-hookean"],
    )
    def test_matches_saddle_solve_oracle(self, build):
        K, F, Bhat, g, grid, actives = build()
        saddle = condensed_saddle(K, F, Bhat, grid)
        for active in actives:
            act = np.flatnonzero(active)
            u, lam = saddle.solve(act, g[act])
            u_ref, lam_ref = saddle_solve(K, F, Bhat[act], g[act])
            assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
            assert np.abs(lam - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()

    def test_two_forward_sweeps_then_one_back_sweep_per_solve(self, monkeypatch):
        # z_F and z_e at construction; every solve recovers u by one back sweep.  The
        # new W columns of a solve are one forward sweep when they are a narrow batch
        K, F, Bhat, g, grid, actives = linear_case(hertz2d_level1)
        sweeps = []
        original = solver.sla.lapack.dtbtrs

        def counting(ab, b, **kwargs):
            sweeps.append((kwargs["trans"], b.shape[1] if b.ndim == 2 else 0))
            return original(ab, b, **kwargs)

        monkeypatch.setattr(solver.sla.lapack, "dtbtrs", counting)
        saddle = condensed_saddle(K, F, Bhat, grid)
        assert sweeps == [("N", 0), ("N", 0)]
        solved = np.zeros(Bhat.shape[0], dtype=bool)
        for active in actives:
            act = np.flatnonzero(active)
            start = len(sweeps)
            saddle.solve(act, g[act])
            new = int((active & ~solved).sum())
            solved |= active
            batch = [("N", new)] if 0 < new <= solver._SWEEP_COLUMNS else []
            assert sweeps[start:] == batch + [("T", 0)]

    @pytest.mark.parametrize("width", [1, 3, solver._SWEEP_COLUMNS, solver._SWEEP_COLUMNS + 1])
    def test_narrow_batch_is_one_sweep(self, monkeypatch, width):
        # a batch of at most _SWEEP_COLUMNS new W columns is one LAPACK sweep, a wider one
        # the slab loop; both give the oracle's solution
        K, F, Bhat, g, grid, _ = linear_case(hertz3d_level0)
        act = np.arange(width)
        saddle = condensed_saddle(K, F, Bhat, grid)
        substitutions = count_calls(monkeypatch, solver, "_forward_substitution")
        sweeps = count_calls(monkeypatch, solver, "_band_sweep")
        u, lam = saddle.solve(act, g[act])
        narrow = width <= solver._SWEEP_COLUMNS
        assert len(substitutions) == (0 if narrow else 1)
        assert [a[2] for a in sweeps] == (["N", "T"] if narrow else ["T"])
        u_ref, lam_ref = saddle_solve(K, F, Bhat[act], g[act])
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(lam - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()

    @pytest.mark.parametrize(
        "build", [functools.partial(linear_case, hertz2d_level1), neo_hookean_case], ids=["2d", "neo-hookean"]
    )
    def test_set_rhs_matches_fresh_factorization(self, build):
        # a new load on a built saddle: the same (u, lam) as a saddle built on it,
        # on the columns solved for the old load and on new ones, and the oracle's
        K, F, Bhat, g, grid, actives = build()
        layout = plain_layout(K, Bhat, grid)
        saddle = _CondensedSaddle(K, F, layout)
        first = np.flatnonzero(actives[0])
        saddle.solve(first, g[first])
        F2 = np.random.default_rng(31).normal(size=F.size) * np.abs(F).max()
        saddle.set_rhs(F2)
        grown = np.flatnonzero(np.logical_or.reduce(actives))
        assert (saddle.col[grown] < 0).any()
        for act in (first, grown):
            u, lam = saddle.solve(act, g[act])
            u_new, lam_new = _CondensedSaddle(K, F2, layout).solve(act, g[act])
            assert np.abs(u - u_new).max() <= 1e-13 * np.abs(u_new).max()
            assert np.abs(lam - lam_new).max() <= 1e-13 * np.abs(lam_new).max()
            u_ref, lam_ref = saddle_solve(K, F2, Bhat[act], g[act])
            assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
            assert np.abs(lam - lam_ref).max() <= 1e-10 * np.abs(lam_ref).max()

    def test_set_rhs_reuses_the_solved_columns(self, monkeypatch):
        # one forward sweep for the new load; an active set already solved needs no
        # further forward substitution of W columns
        K, F, Bhat, g, grid, actives = linear_case(hertz2d_level1)
        saddle = condensed_saddle(K, F, Bhat, grid)
        act = np.flatnonzero(actives[1])
        saddle.solve(act, g[act])
        substitutions = count_calls(monkeypatch, solver, "_forward_substitution")
        sweeps = []
        original = solver.sla.lapack.dtbtrs

        def counting(ab, b, **kwargs):
            sweeps.append((kwargs["trans"], b.ndim))
            return original(ab, b, **kwargs)

        monkeypatch.setattr(solver.sla.lapack, "dtbtrs", counting)
        saddle.set_rhs(0.5 * F)
        assert sweeps == [("N", 1)]
        u, lam = saddle.solve(act, g[act])
        assert substitutions == [] and sweeps == [("N", 1), ("T", 1)]
        u_ref, lam_ref = saddle_solve(K, 0.5 * F, Bhat[act], g[act])
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()

    def test_band_sweep_failures_raise(self):
        # a zero diagonal (LAPACK info > 0) and an overflowing sweep, on lower factors
        with pytest.raises(SolverError, match="info 2"):
            solver._band_sweep(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2), "T")
        with pytest.raises(SolverError, match="non-finite"):
            solver._band_sweep(np.array([[1e-300, 1.0], [1.0, 0.0]]), np.array([1e300, 1.0]), "N")

    def test_one_factorization_per_solve(self, monkeypatch):
        problem = hertz2d_level1()
        calls = count_factorizations(monkeypatch)
        bundle = solve_small_deformation(problem)
        assert len(bundle.iterations) >= 3
        assert calls == [problem.stiffness.shape[0]]

    def test_one_factorization_when_seeding(self, monkeypatch):
        # the gap-closing punch starts with an empty set and a singular stiffness
        problem, _, _ = square_contact_problem(n=2, plane_offset=-0.05, traction=(0.0, -0.2))
        calls = count_factorizations(monkeypatch)
        bundle = solve_small_deformation(problem)
        assert bundle.iterations[0].n_active == 1
        assert len(calls) == 1

    def test_singular_stiffness_with_empty_set_raises(self):
        problem, _, _ = square_contact_problem(n=2, traction=(0.0, -0.2))
        K, F, Bhat, g = condensed_inputs(problem)
        grid = (problem.patch.space.space.n_basis, 2)
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(SolverError, match="singular stiffness"):
            condensed_saddle(K, F, Bhat, grid).solve(empty, g[empty])

    def test_indefinite_stiffness_raises(self):
        K = sp.csr_matrix(np.diag([2.0, 1.0, -3.0, 2.0]) + np.diag([0.5] * 3, 1) + np.diag([0.5] * 3, -1))
        Bhat = sp.csr_matrix(np.array([[1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(SolverError, match="not positive definite"):
            condensed_saddle(K, np.ones(4), Bhat, ((4,), 1))


class TestLargeDeformation:
    def test_zero_load_zero_displacement(self):
        # a run configuration rejects a zero load (no rate fits), so the problem's load is removed
        config = RunConfig(benchmark="hertz2d-large", base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        bundle = solve_large_deformation(dataclasses.replace(problem, tractions={}), n_steps=1)
        assert np.abs(bundle.u).max() <= 1e-12

    def test_tiny_load_matches_linear_solution(self):
        P = 1e-6
        config = RunConfig(benchmark="hertz2d-large", pressure=P, base_spans=(4, 4), levels=2)
        patch = quarter_disc_level_patch(config, 1)
        lin_problem, _ = build_hertz2d_problem(
            patch, RunConfig(benchmark="hertz2d", pressure=P, base_spans=(4, 4), levels=2)
        )
        lin = solve_small_deformation(lin_problem)
        nl_problem, _ = build_large_deformation_problem(patch, config)
        nl = solve_large_deformation(nl_problem, n_steps=1)
        scale = np.abs(lin.u).max()
        assert np.abs(nl.u - lin.u).max() <= 1e-4 * scale

    def test_one_element_pass_per_solve(self, monkeypatch):
        # the tangent of every Newton iteration reuses the element data of the solve
        passes = []
        original = assembly.iter_element_blocks

        def counting(*args, **kwargs):
            passes.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(assembly, "iter_element_blocks", counting)
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        bundle = solve_large_deformation(problem, n_steps=2)
        assert len(bundle.iterations) > 2
        assert len(passes) == 1 and passes[0] is patch

    def test_one_factorization_per_newton_solve(self, monkeypatch):
        # every Newton solve factors once, except the first of each step after the
        # first, which reuses the factor of the step before, and a correction whose
        # chord step on the last factor is predicted to converge (steps 1 and 2 here)
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        calls = count_factorizations(monkeypatch)
        attempts = count_step_attempts(monkeypatch)
        kept = count_kept_factors(monkeypatch)
        bundle = solve_large_deformation(problem, n_steps=3)
        steps = {r.step for r in bundle.iterations}
        assert steps == {1, 2, 3} and len(attempts) == len(steps)  # no step halved
        # the last iteration of every step converged and solved nothing
        solves = len(bundle.iterations) - len(steps)
        assert sum(kept) == 2
        assert len(calls) == solves - (len(steps) - 1) - sum(kept) == 8
        assert set(calls) == {patch.space.dim * 2}

    def test_newton_reseed_adds_no_factorization(self, monkeypatch):
        # an empty set and a singular tangent: the first solve re-seeds the closest dof,
        # and the active-set loop settles on that same factor
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        n = patch.space.dim * 2
        assert not any(problem.constraints.values())
        F_t = 0.5 * assemble_load(patch, problem.tractions)
        quad = patch_quadrature(patch)
        empty = np.zeros(problem.coupling.shape[0], dtype=bool)
        layout = solver._band_layout(
            quad.plan.indptr, quad.plan.indices, patch.space.space.n_basis, 2, problem.coupling,
            problem.constraints, empty,
        )
        settled = record_settled(monkeypatch)
        calls = count_factorizations(monkeypatch)
        *_, records = solver._newton_contact_step(
            problem, quad, np.zeros(n), np.zeros(empty.size), empty, layout, F_t, 0.5, 1, 1.0,
            (neo_hookean_residual(quad, problem.material, np.zeros(n)), None),
        )
        seeded = int(np.argmin(problem.gap_integrals / problem.measures))
        assert records[0].n_active == 0
        active = settled[0][1].active
        assert active[seeded] and records[1].n_active == active.sum()
        # no saddle handed in: the first solve factors, and its re-seed solves on that factor
        assert len(calls) == len(records) - 1

    def test_linearization_settles_as_the_linear_solver(self, monkeypatch):
        # one Newton linearization is a linear contact problem: K = K_T, F = F_t - f_int,
        # gap integrals + B u and the fixed dofs at zero; the active-set loop on the
        # iterate's factor gives what solve_small_deformation gives for it
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 1)
        problem, _ = build_large_deformation_problem(patch, config)
        half = solve_large_deformation(problem, n_steps=4)  # a deformed state
        quad = patch_quadrature(patch)
        assert not any(problem.constraints.values())
        F_t = 1.5 * assemble_load(patch, problem.tractions)
        residual = neo_hookean_residual(quad, problem.material, half.u)
        layout = solver._band_layout(
            quad.plan.indptr, quad.plan.indices, patch.space.space.n_basis, 2, problem.coupling,
            problem.constraints, half.active,
        )
        settled = record_settled(monkeypatch)
        solver._newton_contact_step(
            problem, quad, half.u, half.lam, half.active, layout, F_t, 1.5, 1, 1.0, (residual, None),
        )
        du, state = settled[0]
        linear = SmallDeformationProblem(
            patch=patch,
            stiffness=solver.neo_hookean_tangent(quad, problem.material, residual),
            load=F_t - residual.f_int,
            constraints=problem.constraints,
            coupling=problem.coupling,
            gap_integrals=problem.gap_integrals + problem.coupling @ half.u,
            measures=problem.measures,
        )
        oracle = solve_small_deformation(linear)
        assert state.active.any() and np.array_equal(state.active, oracle.active)
        assert not np.array_equal(state.active, half.active)  # the loop changed the set
        assert np.abs(du - oracle.u).max() <= 1e-10 * np.abs(oracle.u).max()
        assert np.abs(state.lam - oracle.lam).max() <= 1e-10 * np.abs(oracle.lam).max()

    def test_dirichlet_factorizations_per_call(self, monkeypatch, tmp_path):
        # the active set is settled on each Newton factor: an activity change costs a
        # condensed solve, not a tangent and a factorization (a set updated once per
        # Newton iterate takes 90), and a correction predicted to converge on the last
        # factor keeps it (44 when every correction factors afresh), counted on the
        # 6,6 / 0.8,0.1 mesh; every level takes the whole push in one step, level 0 from
        # rest and the reference from level 0's displacement (21 when level 0 steps the
        # push up in 10 steps, 38 when the reference does too)
        config = RunConfig(
            benchmark="hertz2d-large-dirichlet", displacement=0.1, levels=2,
            base_spans=(6, 6), grading=(0.8, 0.1), out=str(tmp_path),
        )
        factorizations = count_factorizations(monkeypatch)
        result = benchmarks.run_benchmark(config)
        levels = result.levels + [result.reference]
        assert [len({r.step for r in level.bundle.iterations}) for level in levels] == [1, 1]
        assert len(factorizations) == 7

    def test_dirichlet_default_mesh_counts(self, monkeypatch, tmp_path):
        # on the CLI's default mesh a kept correction misses its quadratic-rate prediction
        # about 4x; calibrating the prediction by the largest miss of the solve so far
        # avoids repeating it (uncalibrated: 88 records and 70 residual evaluations, for
        # the same 41 factorizations).  Every level takes the whole push in one step,
        # level 0 from rest and the reference from level 0's displacement: (45, 36, 23)
        # when level 0 steps the push up in 10 steps, (81, 63, 41) when the reference does too
        config = RunConfig(benchmark="hertz2d-large-dirichlet", displacement=0.1, levels=2, out=str(tmp_path))
        residuals = count_calls(monkeypatch, solver, "neo_hookean_residual")
        factorizations = count_factorizations(monkeypatch)
        result = benchmarks.run_benchmark(config)
        records = sum(len(level.bundle.iterations) for level in result.levels + [result.reference])
        assert (records, len(residuals), len(factorizations)) == (9, 9, 6)

    def test_converged_tangent_carried_into_next_step(self, monkeypatch):
        # a step starts where the last one converged, and its convergence check
        # evaluated the residual there: only step 1 evaluates at its start.  A
        # converged iterate assembles no tangent, and every tangent is factored
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        residuals = count_calls(monkeypatch, solver, "neo_hookean_residual")
        tangents = count_calls(monkeypatch, solver, "neo_hookean_tangent")
        factorizations = count_factorizations(monkeypatch)
        bundle = solve_large_deformation(problem, n_steps=3)
        steps = {r.step for r in bundle.iterations}
        assert steps == {1, 2, 3}
        assert len(residuals) == len(bundle.iterations) - (len(steps) - 1)
        assert len(tangents) == len(factorizations) > 0

    def test_carried_tangent_leaves_iterations_unchanged(self, monkeypatch):
        # the first solve of a step on the factor of the step before, one Newton
        # correction off, takes the iterations a fresh factorization at the step's
        # start takes
        config = RunConfig(benchmark="hertz2d-large", pressure=0.05, base_spans=(3, 3), levels=2)
        patch = quarter_disc_level_patch(config, 0)
        problem, _ = build_large_deformation_problem(patch, config)
        original = solver._newton_contact_step

        def fresh(*args):
            residual, _ = args[-1]
            return original(*args[:-1], (residual, None))

        def columns(bundle):  # step, iter, n_active, changed
            return [line.split()[:3] + line.split()[-1:] for line in bundle.log_text().splitlines()]

        factorizations = count_factorizations(monkeypatch)
        kept = count_kept_factors(monkeypatch)
        carried = solve_large_deformation(problem, n_steps=3)
        reusing, kept_carried = len(factorizations), sum(kept)
        monkeypatch.setattr(solver, "_newton_contact_step", fresh)
        evaluated = solve_large_deformation(problem, n_steps=3)
        assert len({r.step for r in carried.iterations}) == 3
        # one factorization per solve afresh, less the 2 corrections that keep the last
        # factor, and two fewer again when steps 2 and 3 reuse one
        assert kept_carried == sum(kept) - kept_carried == 2
        assert len(factorizations) - reusing == len(evaluated.iterations) - 3 - 2 == reusing + 2
        assert columns(carried) == columns(evaluated)
        assert np.abs(carried.u - evaluated.u).max() <= 1e-12 * np.abs(evaluated.u).max()

    def test_kept_factor_matches_fresh_factors(self, monkeypatch):
        # a correction solved on the last factor, as predicted to converge, gives the
        # u and lam that a fresh tangent and factorization for every correction give
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(4, 4), levels=2)
        patch = quarter_disc_level_patch(config, 1)
        problem, _ = build_large_deformation_problem(patch, config)
        factorizations = count_factorizations(monkeypatch)
        kept = count_kept_factors(monkeypatch)
        chord = solve_large_deformation(problem, n_steps=5)
        chord_factorizations = len(factorizations)
        assert sum(kept) > 0
        monkeypatch.setattr(solver, "_keeps_factor", lambda *args: False)
        fresh = solve_large_deformation(problem, n_steps=5)
        assert len(factorizations) - chord_factorizations > chord_factorizations
        assert np.array_equal(chord.active, fresh.active)
        assert np.abs(chord.u - fresh.u).max() <= 1e-10 * np.abs(fresh.u).max()
        assert np.abs(chord.lam - fresh.lam).max() <= 1e-10 * np.abs(fresh.lam).max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dirichlet_run_raises_no_runtime_warning(self, tmp_path):
        # a displacement-driven run starts at zero residual, where the first factor is
        # built; the kept-factor prediction divides by that residual and must skip it.
        # Level 0 starts from u = 0; the reference starts from level 0's displacement
        config = RunConfig(benchmark="hertz2d-large-dirichlet", displacement=0.1, levels=2, out=str(tmp_path))
        result = benchmarks.run_benchmark(config)
        assert result.levels[0].bundle.iterations[0].residual_u == 0.0

    def test_no_activity_chatter_within_a_load_step(self, monkeypatch, tmp_path):
        # a dof released for tension used to be re-activated by a slightly negative
        # gap at the next, unconverged iterate and released again; the Newton
        # loop's cycle rule then fired 24 times on this run.  The set of a record is
        # the one its Newton iterate updates, not those of the active-set loop on
        # the iterate's factor
        updates, forces, steps, failed, inner = [], [], [], [], []
        original_update = solver.active_set_update
        original_residual = solver.neo_hookean_residual
        original_step = solver._newton_contact_step
        original_settle = solver._settle_active_set

        def update(state):
            if not inner:
                updates.append((state.active.copy(), state.lam > 0))
            return original_update(state)

        def settle(*args, **kwargs):
            inner.append(True)
            try:
                return original_settle(*args, **kwargs)
            finally:
                inner.pop()

        def evaluate(*args, **kwargs):
            residual = original_residual(*args, **kwargs)
            forces.append(np.linalg.norm(residual.f_int))
            return residual

        def step(*args):
            start = len(updates)
            try:
                out = original_step(*args)
            except Exception:
                failed.append(args)
                raise
            records = out[-1]
            # f_int of every record: the last evaluations made up to now
            steps.append((records, updates[start:], forces[-len(records):], np.linalg.norm(args[6])))
            return out

        monkeypatch.setattr(solver, "active_set_update", update)
        monkeypatch.setattr(solver, "_settle_active_set", settle)
        monkeypatch.setattr(solver, "neo_hookean_residual", evaluate)
        monkeypatch.setattr(solver, "_newton_contact_step", step)
        config = RunConfig(
            benchmark="hertz2d-large-dirichlet", displacement=0.1, levels=2, out=str(tmp_path)
        )
        benchmarks.run_benchmark(config)
        # level 0 takes the whole push from rest, and the reference from level 0, in one step each
        assert not failed and len(steps) == 2
        for records, states, f_norms, _ in steps:
            assert len(states) == len(records)
            assert len(f_norms) == len(records)
            sets = [active.tobytes() for active, _ in states]
            left = set()
            for prev, cur in zip(sets, sets[1:]):
                if cur != prev:
                    left.add(prev)
                    assert cur not in left, f"active set recurs in step {records[0].step}"
        tol = solver._NEWTON_TOL
        for records, states, f_norms, F_norm in steps:
            released = np.zeros_like(states[0][0])
            for rec, f_norm, (active, tension), (nxt, _) in zip(records, f_norms, states, states[1:]):
                reactivated = released & ~active & nxt
                if reactivated.any():
                    assert rec.residual_u <= tol * max(F_norm, f_norm, 1e-30), (
                        f"dof released for tension re-activated at step {rec.step}, "
                        f"iteration {rec.iteration}, unconverged residual {rec.residual_u:.2e}"
                    )
                released = (released | (active & tension)) & ~nxt

    def test_moderate_pressure_run_converges(self):
        config = RunConfig(
            benchmark="hertz2d-large", pressure=0.1, base_spans=(4, 4), levels=2
        )
        patch = quarter_disc_level_patch(config, 1)
        problem, setup = build_large_deformation_problem(patch, config)
        bundle = solve_large_deformation(problem, n_steps=5)
        assert complementarity_ok(bundle.state)
        # single-humped pressure: active multipliers peak at the pole side
        lam_act = -bundle.lam[bundle.active]
        assert lam_act.max() > 0


def assert_same_state(a, b, rtol=1e-8):
    """Two solution bundles settle to the same active set, and to u and lam within ``rtol``."""
    assert np.array_equal(a.active, b.active)
    assert np.abs(a.u - b.u).max() <= rtol * np.abs(b.u).max()
    assert np.abs(a.lam - b.lam).max() <= rtol * np.abs(b.lam).max()


class TestNestedNewtonStart:
    """A finer large-deformation level starts from the coarser level's converged state."""

    @pytest.mark.parametrize("degree", [2, 3])
    def test_prolongation_is_exact(self, degree):
        config = RunConfig(benchmark="hertz2d-large", degree=degree, base_spans=(3, 3))
        coarse, fine = quarter_disc_level_patch(config, 0), quarter_disc_level_patch(config, 1)
        u_c = np.random.default_rng(4).normal(size=coarse.space.dim * 2)
        prev = SimpleNamespace(level=0, patch=coarse, bundle=SimpleNamespace(u=u_c))
        u0 = benchmarks._prolongate(prev, fine)
        assert u0.size == fine.space.dim * 2
        [(l2, h1)] = displacement_errors([(u_c, coarse)], u0, fine)
        [(norm_l2, norm_h1)] = displacement_errors([(np.zeros_like(u_c), coarse)], u0, fine)
        assert l2 <= 1e-12 * norm_l2 and h1 <= 1e-12 * norm_h1

    def test_prolongation_rejects_a_level_that_is_not_nested(self):
        config = RunConfig(benchmark="hertz2d-large", base_spans=(3, 3))
        coarse = quarter_disc_level_patch(config, 1)
        other = quarter_disc_level_patch(dataclasses.replace(config, base_spans=(4, 4)), 0)
        prev = SimpleNamespace(level=1, patch=coarse, bundle=SimpleNamespace(u=np.zeros(coarse.space.dim * 2)))
        with pytest.raises(GeometryError, match="not nested"):
            benchmarks._prolongate(prev, other)

    @pytest.mark.parametrize("bench_id", ["hertz2d-large", "hertz2d-large-dirichlet"])
    def test_started_level_matches_a_solve_from_zero(self, bench_id):
        # the meshes of scripts/run_large_deformation.py
        grading = (0.7, 0.45) if bench_id == "hertz2d-large" else (0.65, 0.6)
        config = RunConfig(
            benchmark=bench_id, pressure=0.1, displacement=0.2, base_spans=(3, 6), grading=grading, levels=2
        )
        prev = benchmarks._solve_level(config, 0, None)
        started = benchmarks._solve_level(config, 1, prev)
        assert {r.step for r in started.bundle.iterations} == {1}  # the whole load in one step
        problem, _ = build_large_deformation_problem(started.patch, config)
        zero = solve_large_deformation(problem, config.n_load_steps)
        assert len({r.step for r in zero.iterations}) == config.n_load_steps
        assert started.bundle.active.any()
        assert_same_state(started.bundle, zero)

    def test_no_coarse_pressure_gives_no_start(self):
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 3), levels=2)
        prev = benchmarks._solve_level(config, 0, None)
        patch = quarter_disc_level_patch(config, 1)
        _, setup = build_large_deformation_problem(patch, config)
        assert benchmarks._newton_start(prev, patch, setup)[1].any()
        released = dataclasses.replace(prev, bundle=dataclasses.replace(prev.bundle, lam=np.zeros_like(prev.bundle.lam)))
        assert benchmarks._newton_start(released, patch, setup) is None

    @pytest.mark.parametrize("level", [0, 1])
    def test_failed_full_step_steps_up_from_rest(self, monkeypatch, level):
        # the whole-load step from the start (rest on level 0, level 0's state on level 1)
        # fails: the level steps the load up from u = 0 in n_load_steps steps
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 6), grading=(0.7, 0.45), levels=2)
        prev = benchmarks._solve_level(config, 0, None) if level else None
        direct = benchmarks._solve_level(config, level, prev).bundle
        original = solver._newton_contact_step
        attempts = []  # (load factor, u at the step's start)

        def failing(*args):
            attempts.append((args[7], args[2]))
            if len(attempts) == 1:
                raise SolverError("forced failure of the first full step")
            return original(*args)

        monkeypatch.setattr(solver, "_newton_contact_step", failing)
        stepped = benchmarks._solve_level(config, level, prev).bundle
        loads = [t for t, _ in attempts]
        assert loads[0] == 1.0 and np.allclose(loads[1:], np.linspace(0.1, 1.0, 10))
        assert attempts[0][1].any() == bool(level) and not attempts[1][1].any()
        assert {r.step for r in stepped.iterations} == set(range(1, 11))
        assert_same_state(stepped, direct)

    def test_start_that_does_not_factor_retries_from_zero(self):
        # on this mesh the tangent at the prolongated level-0 state is indefinite, so
        # the started first step fails at once (and so would every retry from that
        # state: its tangent does not depend on the load); the retry loads from u = 0,
        # and the level settles as a solve from zero does
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 3), levels=2)
        prev = benchmarks._solve_level(config, 0, None)
        patch = quarter_disc_level_patch(config, 1)
        problem, setup = build_large_deformation_problem(patch, config)
        started = solve_large_deformation(problem, config.n_load_steps, benchmarks._newton_start(prev, patch, setup))
        assert_same_state(started, solve_large_deformation(problem, config.n_load_steps))

    def test_large_p01_records_per_level(self, monkeypatch, tmp_path):
        # the gated hertz2d-large-p01 workload: every level takes the whole load in one
        # step, level 0 from rest and each finer level from the coarser one ((50, 5, 5)
        # records and 31 factorizations when level 0 took 10 load steps of 5 records, 50
        # records per level when every level did)
        config = RunConfig(
            benchmark="hertz2d-large", pressure=0.1, levels=3, base_spans=(3, 6), grading=(0.7, 0.45),
            out=str(tmp_path),
        )
        factorizations = count_factorizations(monkeypatch)
        result = benchmarks.run_benchmark(config)
        assert [len(res.bundle.iterations) for res in result.levels + [result.reference]] == [8, 5, 5]
        assert len(factorizations) == 13

    @pytest.mark.parametrize(
        "config",
        [
            # the gated hertz2d-large-p01 mesh and the Dirichlet half of scripts/run_large_deformation.py
            RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 6), grading=(0.7, 0.45)),
            RunConfig(benchmark="hertz2d-large-dirichlet", displacement=0.4, base_spans=(3, 6), grading=(0.65, 0.6)),
        ],
        ids=["p01", "dirichlet"],
    )
    def test_coarsest_level_takes_the_whole_load_in_one_step(self, config):
        # level 0 starts from rest and takes the whole load at once, settling to the state
        # of the stepped solve
        level = benchmarks._solve_level(config, 0, None)
        assert {r.step for r in level.bundle.iterations} == {1}
        problem, _ = build_large_deformation_problem(level.patch, config)
        stepped = solve_large_deformation(problem, config.n_load_steps)
        assert len({r.step for r in stepped.iterations}) == config.n_load_steps
        assert level.bundle.active.any()
        assert_same_state(level.bundle, stepped)

    def test_tangent_that_never_factors_stops_after_two_attempts(self, monkeypatch):
        # the whole-load step from rest fails at its first factorization, and so does
        # the first step up from rest: a halved step would factor the same tangent at
        # u = 0, so the level stops there, not after 20 halvings
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 6), grading=(0.7, 0.45))
        attempts = record_load_factors(monkeypatch)

        def indefinite(*args, **kwargs):
            raise np.linalg.LinAlgError("1-th leading minor not positive definite")

        monkeypatch.setattr(solver.sla, "cholesky_banded", indefinite)
        with pytest.raises(SolverError, match="^level 0: the tangent at load factor 0 does not factor") as err:
            benchmarks._solve_level(config, 0, None)
        assert "not positive definite" in str(err.value)
        assert attempts == [1.0, 0.1]

    def test_unfactorable_tangent_at_a_converged_state_stops_at_once(self, monkeypatch):
        # from the state converged at t = 0.25 on, no tangent factors: the step to 0.5
        # fails on a later iterate and is halved once, and its retry fails at the first
        # factorization, of the tangent at t = 0.25, which halving does not change
        config = RunConfig(benchmark="hertz2d-large", pressure=0.1, base_spans=(3, 6), grading=(0.7, 0.45))
        problem, _ = build_large_deformation_problem(quarter_disc_level_patch(config, 0), config)
        attempts = record_load_factors(monkeypatch)
        original = solver.sla.cholesky_banded

        def failing_after_first_step(*args, **kwargs):
            if len(attempts) > 1:
                raise np.linalg.LinAlgError("1-th leading minor not positive definite")
            return original(*args, **kwargs)

        monkeypatch.setattr(solver.sla, "cholesky_banded", failing_after_first_step)
        with pytest.raises(SolverError, match="^the tangent at load factor 0.25 does not factor"):
            solve_large_deformation(problem, n_steps=4)
        assert attempts == [0.25, 0.5, 0.375]

    @pytest.mark.parametrize("push", [0.01, 0.03, 0.08])
    def test_small_push_converges_on_the_stepped_path(self, push):
        # a small push first moves level 0 rigidly, with no active dof and no stress: the
        # Newton test then needs the push's own force as its scale, as both |F_t| and
        # |f_int| are rounding (every step halved 20 times when they were the only scale)
        config = RunConfig(benchmark="hertz2d-large-dirichlet", displacement=push)
        problem, _ = build_large_deformation_problem(quarter_disc_level_patch(config, 0), config)
        bundle = solve_large_deformation(problem, config.n_load_steps)
        assert {r.step for r in bundle.iterations} == set(range(1, config.n_load_steps + 1))
        assert complementarity_ok(bundle.state)


class TestInfSup:
    def test_identical_spaces_give_one(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(5, 5))
        M = A @ A.T + 5 * np.eye(5)
        beta = inf_sup_estimate(M, M, M)
        assert abs(beta - 1.0) <= 1e-10

    def test_matches_dense_svd_oracle(self):
        patch = unit_square_patch(2, 4)
        trace = extract_trace(patch, face_id(1, 0), rigid_normal=[0.0, 1.0])
        basis = multiplier_basis(trace)
        B, Mp, Mm = scalar_coupling_and_masses(basis)
        beta = inf_sup_estimate(B, Mp, Mm)
        # oracle: smallest singular value of Mm^{-1/2} B Mp^{-1/2}
        Lp = sla.cholesky(Mp, lower=True)
        Lm = sla.cholesky(Mm, lower=True)
        X = sla.solve_triangular(Lm, B, lower=True)
        X = sla.solve_triangular(Lp, X.T, lower=True).T
        sv = sla.svdvals(X)
        assert abs(beta - sv.min()) <= 1e-8

    def test_stability_under_refinement(self):
        betas = []
        for n in (4, 8, 16):
            patch = unit_square_patch(2, n)
            trace = extract_trace(patch, face_id(1, 0), rigid_normal=[0.0, 1.0])
            basis = multiplier_basis(trace)
            betas.append(inf_sup_estimate(*scalar_coupling_and_masses(basis)))
        assert max(betas) / min(betas) < 2.0

    def test_singular_gram_raises(self):
        M = np.zeros((3, 3))
        with pytest.raises(SolverError):
            inf_sup_estimate(np.eye(3), M, np.eye(3))
