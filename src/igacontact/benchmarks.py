"""Benchmark drivers: pressed-cylinder and pressed-hemisphere contact studies.

A run solves a sequence of nested refinements of one graded base mesh.
With ``levels = N`` the reported meshes are the dyadic levels
``0 .. N-2`` and the reference is the finest reported level bisected
twice more, so the reference spacing satisfies ``4 h_ref = h_finest``.
Displacement errors are measured against the reference solve, the
multiplier error both against the closed-form pressure profile and the
reference multiplier.

Output files per run directory:
    disp.csv              h,L2_abs,H1_abs
    mult.csv              h_mult_ana,L2_mult_abs_ana,h_mult_ref,L2_mult_abs_ref
    rates.txt             fitted slopes of the error curves
    pressure_profile.csv  r_over_a,p_over_p0 at the reference surface quadrature
    iterations.log        solver iteration history
    contact_state.csv     reference-level multiplier state
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import (
    assemble_load,
    assemble_stiffness,
    dirichlet_on_face,
    merge_constraints,
)
from .contact import (
    GapField,
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
    BoundaryTrace,
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
    SolveSettings,
    inf_sup_estimate,
    solve_large_deformation,
    solve_small_deformation,
)
from .verification import (
    HertzAnalytic,
    arc_coordinate_2d,
    fit_rate,
    geodesic_coordinate_3d,
    hertz_2d,
    hertz_3d,
    multiplier_error_analytic,
    multiplier_error_reference,
    multiplier_pressure_at,
    displacement_errors,
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
    settings: SolveSettings = field(default_factory=SolveSettings)
    out: str = "out"

    def __post_init__(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark id {self.benchmark!r}; known: {BENCHMARKS}")
        if self.levels < 1:
            raise ConfigError("need at least one level")
        if self.degree not in (2, 3):
            raise ConfigError("only degrees 2 and 3 are supported")
        if not self.base_spans:
            object.__setattr__(self, "base_spans", _DEFAULT_BASE_SPANS[self.benchmark])
        if not self.grading:
            object.__setattr__(self, "grading", _DEFAULT_GRADING[self.benchmark])
        if any(n < 1 for n in self.base_spans):
            raise ConfigError("base span counts must be positive")


def bisect_breakpoints(breaks: np.ndarray, times: int) -> np.ndarray:
    out = np.asarray(breaks, dtype=float)
    for _ in range(times):
        mids = 0.5 * (out[:-1] + out[1:])
        out = np.sort(np.concatenate([out, mids]))
    return out


def _base_patch(config: RunConfig, maker) -> NurbsPatch:
    patch = maker(config.radius)
    if config.degree == 3:
        patch = elevate_bezier_degree(patch)
    return patch


def quarter_disc_level_patch(config: RunConfig, level: int) -> NurbsPatch:
    rad_n, arc_n = config.base_spans
    sf, lf = config.grading
    rad = bisect_breakpoints(graded_breakpoints_toward_end(rad_n, sf, lf), level)
    arc = bisect_breakpoints(graded_breakpoints(arc_n, sf, lf), level)
    return _base_patch(config, quarter_disc_patch).refine_to_breakpoints(
        [rad[1:-1], arc[1:-1]]
    )


def sphere_octant_level_patch(config: RunConfig, level: int) -> NurbsPatch:
    az_n, pol_n, rad_n = config.base_spans
    sf, lf = config.grading
    az = bisect_breakpoints(np.linspace(0.0, 1.0, az_n + 1), level)
    pol = bisect_breakpoints(graded_breakpoints(pol_n, sf, lf), level)
    rad = bisect_breakpoints(graded_breakpoints_toward_end(rad_n, sf, lf), level)
    return _base_patch(config, sphere_octant_patch).refine_to_breakpoints(
        [az[1:-1], pol[1:-1], rad[1:-1]]
    )


@dataclass
class ContactSetup:
    """Trace, multiplier basis, rigid-plane gap data and coupling of one mesh."""

    trace: BoundaryTrace
    basis: MultiplierBasis
    gap: GapField
    coupling: object
    gap_integrals: np.ndarray


def _contact_setup(patch: NurbsPatch, contact_face: int, normal, offset: float) -> ContactSetup:
    normal = np.asarray(normal, dtype=float)
    trace = extract_trace(patch, contact_face, normal)
    basis = multiplier_basis(trace)
    gap = GapField(trace=trace, normal=normal, offset=offset)
    g0 = gap.gap_at(basis.quadrature.params)
    gap_integrals = weighted_gap(g0, basis) * basis.measures
    coupling = coupling_matrix(basis, patch.ndim, patch.space.dim)
    return ContactSetup(
        trace=trace, basis=basis, gap=gap, coupling=coupling, gap_integrals=gap_integrals
    )


def _warm_active_set(setup: ContactSetup, radius: float, halfwidth: float) -> np.ndarray | None:
    """Seed the active set from the expected contact half-width.

    Dofs whose mean initial gap is below the parabolic approach at
    1.3 * halfwidth start active; the solver still iterates to the same
    optimality conditions, just from a closer guess.
    """
    if halfwidth <= 0:
        return None
    threshold = (1.3 * halfwidth) ** 2 / (2.0 * radius)
    wg0 = setup.gap_integrals / setup.basis.measures
    active = wg0 <= threshold
    return active if active.any() else None


def build_hertz2d_problem(patch: NurbsPatch, config: RunConfig):
    """Small-deformation quarter-disc problem against the plane x = R."""
    mat = LinearMaterial(config.young, config.poisson)
    setup = _contact_setup(
        patch, QUARTER_DISC_CONTACT_FACE, [-1.0, 0.0], -config.radius
    )
    system = assemble_stiffness(patch, mat)
    system.load = assemble_load(
        patch, tractions={QUARTER_DISC_LOAD_FACE: np.array([config.pressure, 0.0])}
    )
    system.constraints = dirichlet_on_face(patch, QUARTER_DISC_SYMMETRY_FACE, component=1)
    analytic = hertz_2d(config.radius, config.young, config.poisson, config.pressure)
    problem = SmallDeformationProblem(
        system=system,
        coupling=setup.coupling,
        gap_integrals=setup.gap_integrals,
        measures=setup.basis.measures,
        initial_active=_warm_active_set(setup, config.radius, analytic.a),
    )
    return problem, setup


def build_hertz3d_problem(patch: NurbsPatch, config: RunConfig):
    """Small-deformation ball-octant problem against the plane z = -R."""
    mat = LinearMaterial(config.young, config.poisson)
    setup = _contact_setup(
        patch, SPHERE_OCTANT_CONTACT_FACE, [0.0, 0.0, 1.0], -config.radius
    )
    system = assemble_stiffness(patch, mat)
    system.load = assemble_load(
        patch, tractions={SPHERE_OCTANT_LOAD_FACE: np.array([0.0, 0.0, -config.pressure])}
    )
    system.constraints = merge_constraints(
        dirichlet_on_face(patch, SPHERE_OCTANT_SYMMETRY_FACES[0], component=1),
        dirichlet_on_face(patch, SPHERE_OCTANT_SYMMETRY_FACES[1], component=0),
    )
    analytic = hertz_3d(config.radius, config.young, config.poisson, config.pressure)
    problem = SmallDeformationProblem(
        system=system,
        coupling=setup.coupling,
        gap_integrals=setup.gap_integrals,
        measures=setup.basis.measures,
        initial_active=_warm_active_set(setup, config.radius, analytic.a),
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
    bounds, sizes = trace_mesh_sizes(setup.trace)
    _, lf = grading
    # the graded direction is the last surface axis (arc in 2D, polar in 3D is
    # axis 1 of the volume = axis 1 of the surface ... the band test keeps any
    # element whose graded coordinate lies inside [0, lf]
    graded_axis = 0 if setup.trace.ndim == 1 else 1
    inside = bounds[:, graded_axis, 1] <= lf + 1e-12
    if not inside.any():
        return float(sizes.max())
    return float(sizes[inside].max())


def _solve_level(config: RunConfig, level: int) -> LevelResult:
    if config.benchmark == "hertz2d":
        patch = quarter_disc_level_patch(config, level)
        problem, setup = build_hertz2d_problem(patch, config)
        bundle = solve_small_deformation(problem, config.settings)
    elif config.benchmark == "hertz3d":
        patch = sphere_octant_level_patch(config, level)
        problem, setup = build_hertz3d_problem(patch, config)
        bundle = solve_small_deformation(problem, config.settings)
    else:
        patch = quarter_disc_level_patch(config, level)
        problem, setup = build_large_deformation_problem(patch, config)
        bundle = solve_large_deformation(problem, config.settings, config.n_load_steps)
    return LevelResult(
        level=level,
        patch=patch,
        setup=setup,
        bundle=bundle,
        h=mesh_view(patch).h,
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
    if config.levels < 2:
        raise ConfigError("convergence runs need at least 2 levels")
    level_ids = list(range(config.levels - 1)) + [config.levels]
    results = [_solve_level(config, l) for l in level_ids]
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
        r_of = arc_coordinate_2d(reference.setup.trace)

    disp_rows = []
    mult_rows = []
    errors = displacement_errors(
        [(res.bundle.u, res.patch) for res in reported], reference.bundle.u, reference.patch
    )
    for res, (l2, h1) in zip(reported, errors):
        disp_rows.append((res.h, l2, h1))
        e_ana = multiplier_error_analytic(res.bundle.lam, res.setup.basis, analytic, r_of)
        e_ref = multiplier_error_reference(
            res.bundle.lam, res.setup.basis, reference.bundle.lam, reference.setup.basis
        )
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
        p = multiplier_pressure_at(ref.bundle.lam, ref.setup.basis, tq.params)
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
    if n0 < 1:
        raise ConfigError("need at least one span")
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


def active_region_extent(bundle: SolutionBundle, basis: MultiplierBasis, r_of):
    """2D contact-zone extent: arc length of the union of active supports.

    Returns ``(r_max, element_width)``: the arc coordinate of the far end
    of the outermost active multiplier support, and the arc width of the
    trace element holding that boundary.
    """
    kv = basis.space.knot_vectors[0]
    deg = kv.degree
    act = np.flatnonzero(bundle.active)
    if act.size == 0:
        return 0.0, 0.0
    uppers = np.array([kv.knots[k + deg + 1] for k in act])
    k_edge = act[np.argmax(uppers)]
    lo = kv.knots[k_edge + deg]
    hi = uppers.max()
    r_hi = float(r_of(np.array([[hi]]))[0])
    r_lo = float(r_of(np.array([[lo]]))[0])
    return r_hi, r_hi - r_lo
