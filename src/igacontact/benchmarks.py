"""Benchmark drivers: pressed-cylinder and pressed-hemisphere contact studies.

A run solves a sequence of nested refinements of one graded base mesh.
With ``levels = N`` the reported meshes are the dyadic levels
``0 .. N-2`` and the reference is the finest reported level bisected
twice more, so the reference spacing satisfies ``4 h_ref = h_finest``.
Displacement errors are measured against the reference solve, the
multiplier error both against the closed-form pressure profile and the
reference multiplier.  The levels are solved coarse to fine, and every
level of either driver starts from one rule (:func:`.solver._start`):
the contact zone of the coarser level (:func:`_coarse_contact_zone`),
else the dofs in contact at u = 0, which may be none.  Every Newton
level takes the whole load in one step, from the coarser level's
displacement, prolongated exactly, where that level presses on the
plane, else from rest; stepping the load up from rest is the fallback.
Before any level is refined,
:func:`_check_levels_fit` stops a run whose banded factor would not fit
in physical memory.

Output files per run directory:
    disp.csv              h,L2_abs,H1_abs
    mult.csv              h_mult_ana,L2_mult_abs_ana,h_mult_ref,L2_mult_abs_ref
    rates.txt             fitted slopes of the error curves
    pressure_profile.csv  r_over_a,p_over_p0 at the reference surface quadrature
    iterations.log        solver iteration history
    contact_state.csv     reference-level multiplier state
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import (
    assemble_load,
    assemble_stiffness,
    dirichlet_on_face,
    merge_constraints,
)
from .contact import (
    MultiplierBasis,
    coupling_matrix,
    dump_contact_state,
    multiplier_basis,
    scalar_coupling_and_masses,
    weighted_gap,
)
from .geometry import (
    QUARTER_DISC_CONTACT_FACE,
    QUARTER_DISC_LOAD_FACE,
    QUARTER_DISC_SYMMETRY_FACE,
    SPHERE_OCTANT_CONTACT_FACE,
    SPHERE_OCTANT_LOAD_FACE,
    SPHERE_OCTANT_SYMMETRY_FACES,
    GeometryError,
    NurbsPatch,
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
from .materials import LinearMaterial, NeoHookeanMaterial
from .solver import (
    LargeDeformationProblem,
    SmallDeformationProblem,
    SolutionBundle,
    SolverError,
    _band_halfwidth,
    inf_sup_estimate,
    solve_large_deformation,
    solve_small_deformation,
)
from .verification import (
    HertzAnalytic,
    VerificationError,
    _check_hertz_inputs,
    arc_coordinate_2d,
    fit_rate,
    geodesic_coordinate_3d,
    hertz_2d,
    hertz_3d,
    multiplier_error_analytic,
    multiplier_error_reference,
    multiplier_pressure_at,
    displacement_errors,
    reference_pressure,
)

BENCHMARKS = ("hertz2d", "hertz3d", "hertz2d-large", "hertz2d-large-dirichlet", "infsup")

_DEFAULT_BASE_SPANS = {
    "hertz2d": (6, 6),
    "hertz2d-large": (6, 6),
    # the Dirichlet mesh of scripts/run_large_deformation.py: on the 6,6 / 0.8,0.1 mesh the
    # multiplier does not converge under a push (rates 0.0002 analytic, 0.04 reference)
    "hertz2d-large-dirichlet": (3, 6),
    "hertz3d": (4, 6, 4),
    "infsup": (4,),
}
_DEFAULT_GRADING = {
    "hertz2d": (0.8, 0.1),
    "hertz2d-large": (0.8, 0.1),
    "hertz2d-large-dirichlet": (0.65, 0.6),
    "hertz3d": (0.75, 0.1),
    "infsup": (0.5, 0.5),
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    benchmark: str
    degree: int = 2
    levels: int = 5
    base_spans: tuple[int, ...] = ()
    grading: tuple[float, float] = ()
    young: float = 1.0
    poisson: float = 0.3
    radius: float = 1.0
    pressure: float = 0.003
    displacement: float | None = None
    n_load_steps: int = 10
    out: str = "out"

    def __post_init__(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark id {self.benchmark!r}; known: {BENCHMARKS}")
        min_levels = 1 if self.benchmark == "infsup" else 2  # a convergence run needs a reference
        if self.levels < min_levels:
            raise ConfigError(f"{self.benchmark} needs at least {min_levels} levels")
        if self.degree not in (2, 3):
            raise ConfigError("only degrees 2 and 3 are supported")
        if self.n_load_steps < 1:
            raise ConfigError("need at least one load step")
        if not self.base_spans:
            object.__setattr__(self, "base_spans", _DEFAULT_BASE_SPANS[self.benchmark])
        if not self.grading:
            object.__setattr__(self, "grading", _DEFAULT_GRADING[self.benchmark])
        n_axes = len(_DEFAULT_BASE_SPANS[self.benchmark])
        if len(self.base_spans) != n_axes:
            raise ConfigError(f"{self.benchmark} takes {n_axes} base span count(s)")
        if any(n < 1 for n in self.base_spans):
            raise ConfigError("base span counts must be positive")
        if len(self.grading) != 2:
            raise ConfigError("grading takes two fractions: span_fraction,length_fraction")
        # the graded axes; the 3D azimuth and the unit square of infsup are uniform
        graded = {"hertz3d": self.base_spans[1:], "infsup": ()}.get(self.benchmark, self.base_spans)
        try:
            for n in graded:
                graded_breakpoints(n, *self.grading)
            _check_hertz_inputs(self.radius, self.young, self.poisson, self.pressure)
        except (GeometryError, VerificationError) as exc:
            raise ConfigError(str(exc)) from None
        # no load leaves the body's normal translation free, so the linear problem is
        # singular, and a large run with no load or a pull presses nowhere: its errors
        # are all zero, so no rate fits
        if self.benchmark == "hertz2d-large-dirichlet":
            if self.displacement is not None and self.displacement <= 0:
                raise ConfigError(f"{self.benchmark} needs a positive displacement")
        elif self.pressure == 0 and self.benchmark != "infsup":
            raise ConfigError(f"{self.benchmark} needs a positive pressure")


def bisect_breakpoints(breaks: np.ndarray, times: int) -> np.ndarray:
    """Halve every span of the increasing ``breaks`` ``times`` times, each midpoint interleaved after its left end."""
    out = np.asarray(breaks, dtype=float)
    for _ in range(times):
        finer = np.empty(2 * out.size - 1)
        finer[::2] = out
        finer[1::2] = 0.5 * (out[:-1] + out[1:])
        out = finer
    return out


def _base_patch(config: RunConfig) -> NurbsPatch:
    """The single-element patch every level of a run refines: the sphere octant for hertz3d, else the quarter disc."""
    patch = (sphere_octant_patch if config.benchmark == "hertz3d" else quarter_disc_patch)(config.radius)
    return elevate_bezier_degree(patch) if config.degree == 3 else patch


def _level_breakpoints(config: RunConfig, level: int) -> list[np.ndarray]:
    """The interior breakpoints of each axis of the base patch at ``level``."""
    n, g = config.base_spans, config.grading
    if config.benchmark == "hertz3d":  # azimuth, polar, radial
        axes = [np.linspace(0.0, 1.0, n[0] + 1), graded_breakpoints(n[1], *g), graded_breakpoints_toward_end(n[2], *g)]
    else:  # radial, arc
        axes = [graded_breakpoints_toward_end(n[0], *g), graded_breakpoints(n[1], *g)]
    return [bisect_breakpoints(b, level)[1:-1] for b in axes]


def quarter_disc_level_patch(config: RunConfig, level: int) -> NurbsPatch:
    """The base patch of ``config`` (:func:`_base_patch`) refined to ``level``."""
    return _base_patch(config).refine_to_breakpoints(_level_breakpoints(config, level))


sphere_octant_level_patch = quarter_disc_level_patch  # the hertz3d name, which perfbench/tracer.py wraps too


@dataclass
class ContactSetup:
    """Multiplier basis (with its trace), coupling and rigid-plane gap integrals of one mesh."""

    basis: MultiplierBasis
    coupling: object
    gap_integrals: np.ndarray


def _contact_setup(patch: NurbsPatch, contact_face: int, normal, offset: float) -> ContactSetup:
    normal = np.asarray(normal, dtype=float)
    trace = extract_trace(patch, contact_face, normal)
    basis = multiplier_basis(trace)
    g0 = basis.quadrature.phys @ normal - offset  # signed distance to the plane x . normal = offset
    gap_integrals = weighted_gap(g0, basis) * basis.measures
    coupling = coupling_matrix(basis, patch.ndim, patch.space.dim)
    return ContactSetup(basis=basis, coupling=coupling, gap_integrals=gap_integrals)


def _coarse_contact_zone(prev: LevelResult | None, setup: ContactSetup) -> np.ndarray | None:
    """The multiplier dofs of ``setup`` where the coarser level ``prev`` presses on the plane.

    The coarser level's contact pressure is sampled at this level's
    (nested) trace quadrature and averaged over each multiplier function;
    the dofs where the average is positive are marked.  None when there
    is no coarser level or it presses nowhere.
    """
    if prev is None:
        return None
    p = multiplier_pressure_at(prev.bundle.lam, prev.setup.basis, setup.basis.quadrature)
    zone = weighted_gap(p, setup.basis) > 0.0
    return zone if zone.any() else None


def _prolongate(prev: LevelResult, patch: NurbsPatch) -> np.ndarray:
    """The coarser level's displacement in the space of ``patch``, by knot insertion (exact for nested levels).

    The displacement is refined as the control net of a NURBS field on
    the coarser level's weighted space; a refined grid or weights that
    differ from those of ``patch`` raise :class:`GeometryError`.
    """
    field = NurbsPatch(prev.patch.space, prev.bundle.u.reshape(-1, patch.ndim))
    fine = field.refine_to_breakpoints([kv.breakpoints for kv in patch.knot_vectors])
    if fine.space.space.n_basis != patch.space.space.n_basis or not np.allclose(
        fine.space.weights, patch.space.weights, rtol=1e-12, atol=0.0
    ):
        raise GeometryError(f"level {prev.level} is not nested in the next level's space")
    return fine.control_points.ravel()


def build_hertz2d_problem(patch: NurbsPatch, config: RunConfig):
    """Small-deformation quarter-disc problem against the plane x = R."""
    mat = LinearMaterial(config.young, config.poisson)
    setup = _contact_setup(
        patch, QUARTER_DISC_CONTACT_FACE, [-1.0, 0.0], -config.radius
    )
    problem = SmallDeformationProblem(
        patch=patch,
        stiffness=assemble_stiffness(patch, mat),
        load=assemble_load(patch, {QUARTER_DISC_LOAD_FACE: np.array([config.pressure, 0.0])}),
        constraints=dirichlet_on_face(patch, QUARTER_DISC_SYMMETRY_FACE, component=1),
        coupling=setup.coupling,
        gap_integrals=setup.gap_integrals,
        measures=setup.basis.measures,
    )
    return problem, setup


def build_hertz3d_problem(patch: NurbsPatch, config: RunConfig):
    """Small-deformation ball-octant problem against the plane z = -R."""
    mat = LinearMaterial(config.young, config.poisson)
    setup = _contact_setup(
        patch, SPHERE_OCTANT_CONTACT_FACE, [0.0, 0.0, 1.0], -config.radius
    )
    problem = SmallDeformationProblem(
        patch=patch,
        stiffness=assemble_stiffness(patch, mat),
        load=assemble_load(patch, {SPHERE_OCTANT_LOAD_FACE: np.array([0.0, 0.0, -config.pressure])}),
        constraints=merge_constraints(
            dirichlet_on_face(patch, SPHERE_OCTANT_SYMMETRY_FACES[0], component=1),
            dirichlet_on_face(patch, SPHERE_OCTANT_SYMMETRY_FACES[1], component=0),
        ),
        coupling=setup.coupling,
        gap_integrals=setup.gap_integrals,
        measures=setup.basis.measures,
    )
    return problem, setup


def build_large_deformation_problem(patch: NurbsPatch, config: RunConfig):
    """Finite-deformation quarter-disc problem (dead pressure or prescribed motion)."""
    mat = NeoHookeanMaterial(config.young, config.poisson)
    setup = _contact_setup(
        patch, QUARTER_DISC_CONTACT_FACE, [-1.0, 0.0], -config.radius
    )
    constraints = dirichlet_on_face(patch, QUARTER_DISC_SYMMETRY_FACE, component=1)
    tractions: dict[int, np.ndarray] = {}
    if config.benchmark == "hertz2d-large-dirichlet":
        push = 0.4 if config.displacement is None else config.displacement
        constraints = merge_constraints(
            constraints,
            dirichlet_on_face(patch, QUARTER_DISC_LOAD_FACE, component=0, value=push),
            # the collapsed center row coincides with the pushed face corner on
            # the symmetry line; prescribing it keeps the field single-valued
            # there (free coincident dofs invert elements under large pushes)
            dirichlet_on_face(patch, face_id(0, 0), component=0, value=push),
            dirichlet_on_face(patch, face_id(0, 0), component=1, value=0.0),
        )
    else:
        tractions[QUARTER_DISC_LOAD_FACE] = np.array([config.pressure, 0.0])
    problem = LargeDeformationProblem(
        patch=patch,
        material=mat,
        tractions=tractions,
        constraints=constraints,
        coupling=setup.coupling,
        gap_integrals=setup.gap_integrals,
        measures=setup.basis.measures,
    )
    return problem, setup


@dataclass
class LevelResult:
    level: int
    patch: NurbsPatch
    setup: ContactSetup
    bundle: SolutionBundle
    h: float
    h_contact: float


def _contact_band_size(setup: ContactSetup, grading: tuple[float, float]) -> float:
    """Largest trace element inside the contact-refined parametric band."""
    bounds, sizes = trace_mesh_sizes(setup.basis.trace)
    _, lf = grading
    # the contact face is graded along its last axis: the arc in 2D, the polar angle in 3D
    graded_axis = setup.basis.trace.ndim - 1
    inside = bounds[:, graded_axis, 1] <= lf + 1e-12
    if not inside.any():
        return float(sizes.max())
    return float(sizes[inside].max())


def _band_bytes(shape, n_comp: int, degree: int) -> tuple[int, int, int]:
    """Dofs, :func:`_band_halfwidth` and the bytes of the banded factor of a basis grid."""
    n = int(np.prod(shape)) * n_comp
    u = _band_halfwidth(shape, n_comp, degree)
    return n, u, 8 * n * (u + 1)


def _too_large(level: int, shape, n_comp: int, degree: int) -> SolverError:
    n, u, size = _band_bytes(shape, n_comp, degree)
    return SolverError(
        f"level {level} does not fit in memory: {n} dofs, half-bandwidth {u}, band {size / 2**30:.2f} GiB"
    )


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_levels_fit(config: RunConfig, level_ids) -> None:
    """Raise the :func:`_too_large` error of the first level whose banded factor exceeds physical memory.

    The basis grid of every level comes from the knot vectors of the
    base patch, built once, and the level's breakpoints, so nothing is
    refined or assembled.
    """
    base = _base_patch(config)
    memory = _physical_memory()
    for level in level_ids:
        shape = base.refined_grid_shape(_level_breakpoints(config, level))
        if _band_bytes(shape, base.ndim, config.degree)[2] > memory:
            raise _too_large(level, shape, base.ndim, config.degree)


def _solve_level(config: RunConfig, level: int, prev: LevelResult | None) -> LevelResult:
    """Set up and solve one level; ``prev`` is the coarser level solved before it, if any.

    Every level starts from the coarser level's contact zone
    (:func:`_coarse_contact_zone`), computed here for either driver and
    handed to it; with none, the solver starts from the dofs in contact
    at u = 0.  Every level of a large-deformation run takes the whole
    load in one step, from the coarser level's converged displacement,
    prolongated, where there is a zone, else from rest.  If that step
    fails, the level steps the load up from rest in
    ``config.n_load_steps`` increments.  A level that runs out of memory
    raises :class:`SolverError` naming its dofs and the size of the banded
    factor it needs, and any other solver failure is prefixed with the
    level.
    """
    patch = (sphere_octant_level_patch if config.benchmark == "hertz3d" else quarter_disc_level_patch)(config, level)
    try:
        if config.benchmark == "hertz2d":
            problem, setup = build_hertz2d_problem(patch, config)
        elif config.benchmark == "hertz3d":
            problem, setup = build_hertz3d_problem(patch, config)
        else:
            problem, setup = build_large_deformation_problem(patch, config)
        zone = _coarse_contact_zone(prev, setup)
        if isinstance(problem, SmallDeformationProblem):
            bundle = solve_small_deformation(problem, zone)
        else:
            u0 = np.zeros(problem.coupling.shape[1]) if zone is None else _prolongate(prev, patch)
            bundle = solve_large_deformation(problem, config.n_load_steps, (u0, zone))
    except MemoryError:
        raise _too_large(level, patch.space.space.n_basis, patch.ndim, config.degree) from None
    except SolverError as exc:
        raise SolverError(f"level {level}: {exc}") from exc
    return LevelResult(
        level=level,
        patch=patch,
        setup=setup,
        bundle=bundle,
        h=float(mesh_view(patch)[1].max()),
        h_contact=_contact_band_size(setup, config.grading),
    )


@dataclass
class RunResult:
    config: RunConfig
    analytic: HertzAnalytic
    levels: list[LevelResult]
    reference: LevelResult
    disp_rows: list[tuple[float, float, float]]
    mult_rows: list[tuple[float, float, float, float]]
    rates: dict[str, float]
    r_of: object


def equivalent_pressure_2d(bundle: SolutionBundle, radius: float) -> float:
    """Face pressure whose resultant matches the computed contact force (half model)."""
    force = float((-bundle.lam * bundle.measures).sum())
    return force / radius


def run_benchmark(config: RunConfig) -> RunResult:
    """Solve all levels of a contact benchmark and write its result files."""
    if config.benchmark == "infsup":
        raise ConfigError("use run_infsup for the stability sweep")
    level_ids = list(range(config.levels - 1)) + [config.levels]
    _check_levels_fit(config, level_ids)
    results: list[LevelResult] = []
    for l in level_ids:
        results.append(_solve_level(config, l, results[-1] if results else None))
    reference = results[-1]
    reported = results[:-1]

    if config.benchmark == "hertz3d":
        analytic = hertz_3d(config.radius, config.young, config.poisson, config.pressure)
        r_of = geodesic_coordinate_3d(config.radius, [0.0, 0.0, -1.0])
    else:
        load = config.pressure
        if config.benchmark == "hertz2d-large-dirichlet":
            load = equivalent_pressure_2d(reference.bundle, config.radius)
        analytic = hertz_2d(config.radius, config.young, config.poisson, load)
        r_of = arc_coordinate_2d(reference.setup.basis.trace)

    disp_rows = []
    mult_rows = []
    errors = displacement_errors(
        [(res.bundle.u, res.patch) for res in reported], reference.bundle.u, reference.patch
    )
    p_ref = reference_pressure(reference.bundle.lam, reference.setup.basis)
    for res, (l2, h1) in zip(reported, errors):
        disp_rows.append((res.h, l2, h1))
        e_ana = multiplier_error_analytic(res.bundle.lam, res.setup.basis, analytic, r_of)
        e_ref = multiplier_error_reference(res.bundle.lam, res.setup.basis, p_ref)
        mult_rows.append((res.h_contact, e_ana, res.h_contact, e_ref))

    # the analytic comparison needs no reference, so its curve extends to the
    # reference level itself; the stagnation diagnostic uses that last interval
    e_ana_ref = multiplier_error_analytic(
        reference.bundle.lam, reference.setup.basis, analytic, r_of
    )
    rates: dict[str, float] = {"mult_ana_reference_error": e_ana_ref}
    if len(disp_rows) >= 2:
        rates["L2_disp_rate"] = fit_rate([(h, e) for h, e, _ in disp_rows])
        rates["H1_disp_rate"] = fit_rate([(h, e) for h, _, e in disp_rows])
        rates["mult_ana_rate"] = fit_rate([(h, e) for h, e, _, _ in mult_rows])
        rates["mult_ref_rate"] = fit_rate([(h, e) for h, _, _, e in mult_rows])
        h_last, e_last = mult_rows[-1][0], mult_rows[-1][1]
        rates["mult_ana_last_interval_rate"] = float(
            np.log(e_last / e_ana_ref) / np.log(h_last / reference.h_contact)
        )
    out = RunResult(
        config=config,
        analytic=analytic,
        levels=reported,
        reference=reference,
        disp_rows=disp_rows,
        mult_rows=mult_rows,
        rates=rates,
        r_of=r_of,
    )
    write_run_outputs(out)
    return out


def _fmt(v: float) -> str:
    return f"{v:.9e}"


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_run_outputs(result: RunResult) -> Path:
    outdir = Path(result.config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "disp.csv", "h,L2_abs,H1_abs", result.disp_rows)
    _write_csv(
        outdir / "mult.csv",
        "h_mult_ana,L2_mult_abs_ana,h_mult_ref,L2_mult_abs_ref",
        result.mult_rows,
    )
    rate_lines = [f"{k} {_fmt(v)}" for k, v in result.rates.items()]
    (outdir / "rates.txt").write_text("\n".join(rate_lines) + "\n" if rate_lines else "")
    ref = result.reference
    if result.analytic.a > 0 and result.analytic.p0 > 0:
        tq = ref.setup.basis.quadrature
        p = multiplier_pressure_at(ref.bundle.lam, ref.setup.basis, tq)
        r = result.r_of(tq)
        order = np.lexsort((p, r))  # by r, ties by p: the row order depends on the solution alone
        rows = np.column_stack([r[order] / result.analytic.a, p[order] / result.analytic.p0])
        _write_csv(outdir / "pressure_profile.csv", "r_over_a,p_over_p0", rows)
    log_lines = []
    for res in result.levels + [ref]:
        log_lines.append(f"# level {res.level}: h={_fmt(res.h)} dofs={res.patch.space.dim * res.patch.ndim}")
        log_lines.append(res.bundle.log_text().rstrip("\n"))
    (outdir / "iterations.log").write_text("\n".join(log_lines) + "\n")
    dump_contact_state(ref.bundle.state, outdir / "contact_state.csv")
    return outdir


@dataclass
class InfSupResult:
    rows: list[tuple[float, float]]  # (h, beta)
    ratio: float | None


def run_infsup(config: RunConfig) -> InfSupResult:
    """Stability constants of the trace/multiplier pairing on a flat boundary."""
    if config.benchmark != "infsup":
        raise ConfigError("run_infsup requires the infsup benchmark id")
    n0 = config.base_spans[0]
    rows = []
    for level in range(config.levels):
        n = n0 * 2 ** level
        patch = unit_square_patch(config.degree, n)
        trace = extract_trace(patch, face_id(1, 0), rigid_normal=[0.0, 1.0])
        basis = multiplier_basis(trace)
        B, Mp, Mm = scalar_coupling_and_masses(basis)
        beta = inf_sup_estimate(B, Mp, Mm)
        rows.append((1.0 / n, beta))
    ratio = None
    if len(rows) > 1:
        betas = [b for _, b in rows]
        ratio = max(betas) / min(betas)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "infsup.csv", "h,beta", rows)
    summary = [f"beta_ratio {_fmt(ratio)}"] if ratio is not None else []
    (outdir / "rates.txt").write_text("\n".join(summary) + "\n" if summary else "")
    return InfSupResult(rows=rows, ratio=ratio)
