"""Acceptance gate: the paper's claims, checked on the shipped configurations.

The paper proves inf-sup stability of the degree-p NURBS / degree p-2
B-spline pairing and an optimal a priori estimate for the mixed contact
problem.  For a Hertz-type contact the solution has at most H^{5/2-eps}
regularity near the edge of the contact zone, so with p = 2 the estimate
gives h^{3/2} for the displacement in H1 (degree 2 alone would give h^2),
and the contact pressure, a square-root profile at that edge, has an L2
best approximation of order h.  Each rate check runs one configuration
through the command line, as a user would, and reads its ``rates.txt``;
the contact-zone check solves the command line's configuration and reads
the reference level.  The measured values quoted in the docstrings were
taken on these configurations and are not where the bounds come from.
Every bound is one the method must meet once it converges at all at the
estimated order; none is within a pre-asymptotic fit's noise of the
measured value.
"""
from __future__ import annotations

import pytest

from igacontact import benchmarks, cli

from helpers import active_region_extent

GATED_P003 = ["hertz2d", "--pressure", "0.003", "--levels", "4", "--base-spans", "3,6", "--grading", "0.8,0.1"]
GATED_LARGE_P01 = [
    "hertz2d-large", "--pressure", "0.1", "--levels", "3", "--base-spans", "3,6", "--grading", "0.7,0.45"
]
# the mesh of scripts/run_large_deformation.py's Dirichlet half at a tenth of its
# push; --levels 2 leaves one level below the reference, too few for a rate
DIRICHLET = [
    "hertz2d-large-dirichlet", "--displacement", "0.1", "--levels", "3",
    "--base-spans", "3,6", "--grading", "0.65,0.6",
]


def run(argv, out):
    """Run the CLI on argv into out and return its rates.txt as a dict."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    lines = (out / "rates.txt").read_text().split("\n")
    return {key: float(value) for key, value in (line.split() for line in lines if line)}


@pytest.mark.acceptance(criterion="rates", summary="hertz2d-p003: L2 >= 1.5, H1 >= 1.0, multiplier >= 0.5")
def test_small_deformation_rates(tmp_path):
    """Small deformation, the first half of ``scripts/run_hertz2d_convergence.py``.

    H1 >= 1.0: half an order below the estimate's 3/2, the order a lost
    half power of h costs (an inconsistent coupling, a wrong contact set).
    L2 >= 1.5: the L2 error is bounded by the H1 error, so it converges at
    least at the H1 estimate's order; duality adds up to half an order.
    Multiplier against the closed-form profile >= 0.5: half the best
    approximation order h of the square-root edge.  Measured: L2 2.09,
    H1 1.33, multiplier 0.89.
    """
    r = run(GATED_P003, tmp_path)
    assert r["L2_disp_rate"] >= 1.5
    assert r["H1_disp_rate"] >= 1.0
    assert r["mult_ana_rate"] >= 0.5


@pytest.mark.acceptance(
    criterion="zone", summary="hertz2d-p003: |r_max - a| <= one trace element, |peak p/p0 - 1| <= h_c / a"
)
def test_small_deformation_contact_zone(tmp_path):
    """The reference level's contact zone and peak pressure against Hertz, on the rates check's mesh.

    Edge: activity is decided per multiplier dof, and with p = 2 a
    multiplier function (degree p - 2 = 0) is supported on one trace
    element, so the discrete contact zone is a union of whole elements.
    Its far end r_max can place the half-width a only within the element
    that holds the edge, whose width ``active_region_extent`` returns.
    Peak: the closed-form profile p0 sqrt(1 - r^2 / a^2) has
    |p'| <= p0 / a for r <= a / sqrt(2), and degree-0 multipliers
    approximate it to first order, within h |p'| on an element of width h.
    So with h_c the largest element of the contact band, the peak of
    p_h / p0 lies within h_c / a of 1.  Measured: |r_max - a| 0.61 of the
    element, peak p/p0 0.9982 with h_c / a = 0.022.
    """
    args = vars(cli._build_parser().parse_args(GATED_P003 + ["--out", str(tmp_path)]))
    benchmark = args.pop("benchmark")
    options = {key: value for key, value in args.items() if value is not None}
    result = benchmarks.run_benchmark(cli.build_run_config(benchmark, options))
    ref, analytic = result.reference, result.analytic
    r_max, width = active_region_extent(ref.bundle, ref.setup.basis, result.r_of)
    assert abs(r_max - analytic.a) <= width
    rows = (tmp_path / "pressure_profile.csv").read_text().split()[1:]
    peak = max(float(row.split(",")[1]) for row in rows)
    assert abs(peak - 1.0) <= ref.h_contact / analytic.a


@pytest.mark.acceptance(
    criterion="rates", summary="hertz2d-p003 degree 3: L2 >= 1.5, H1 >= 1.0, multiplier >= 0.5"
)
def test_small_deformation_rates_degree_3(tmp_path):
    """Degree 3 (linear multipliers) on the mesh of the degree-2 check.

    The bounds are the degree-2 ones, for the same reason: the estimate
    is limited by the H^{5/2-eps} regularity at the contact edge, not by
    the degree, so a cubic displacement and a linear multiplier give no
    higher order.  Measured: L2 2.34, H1 1.61, multiplier 0.90.
    """
    r = run(GATED_P003 + ["--degree", "3"], tmp_path)
    assert r["L2_disp_rate"] >= 1.5
    assert r["H1_disp_rate"] >= 1.0
    assert r["mult_ana_rate"] >= 0.5


@pytest.mark.acceptance(
    criterion="rates", summary="hertz2d-large-p01: L2 >= 1.5, H1 >= 1.0, multiplier vs reference >= 0.5"
)
def test_large_deformation_pressure_rates(tmp_path):
    """Neo-Hookean under dead pressure, the mesh of ``scripts/run_large_deformation.py``.

    The bounds and their reasons are those of the small-deformation
    check: the estimate is one of the linearized problem, which each
    Newton step solves.  The multiplier is compared with the reference
    level, not the closed form: the small-deformation Hertz profile is not
    the limit at this load (its rate, 0.10, measures the model gap).
    Measured: L2 1.83, H1 1.32, multiplier against the reference 1.36.
    """
    r = run(GATED_LARGE_P01, tmp_path)
    assert r["L2_disp_rate"] >= 1.5
    assert r["H1_disp_rate"] >= 1.0
    assert r["mult_ref_rate"] >= 0.5


@pytest.mark.acceptance(
    criterion="rates", summary="hertz2d-large-dirichlet 0.1: L2 >= 1.5, H1 >= 1.0, multiplier >= 0.5"
)
def test_large_deformation_dirichlet_rates(tmp_path):
    """Neo-Hookean under a prescribed push of 0.1, levels 3 on the Dirichlet script mesh.

    The bounds and their reasons are those of the small-deformation
    check.  The closed-form comparison uses the Hertz profile of the
    equivalent pressure, which at this push is still the right limit.
    Measured: L2 3.08, H1 1.51, multiplier 0.94 (reference 0.93).
    """
    r = run(DIRICHLET, tmp_path)
    assert r["L2_disp_rate"] >= 1.5
    assert r["H1_disp_rate"] >= 1.0
    assert r["mult_ana_rate"] >= 0.5
    assert r["mult_ref_rate"] >= 0.5


@pytest.mark.acceptance(criterion="infsup", summary="infsup: beta in (0, 1], max/min <= 2^(1/4)")
def test_inf_sup_constant_does_not_decay(tmp_path):
    """The inf-sup constant of the default sweep (h = 1/4 .. 1/64) stays bounded below.

    beta <= 1 because the pairing is the L2 product on the contact face,
    whose norms normalize it.  An unstable pairing loses beta like h^s;
    over the sweep's four halvings of h the ratio max/min would be 2^(4s),
    so a ratio <= 2^(1/4) rules out any decay with s >= 1/16.  Measured:
    ratio 1.0455, smallest beta 0.873.
    """
    assert cli.main(["infsup", "--out", str(tmp_path)]) == 0
    betas = [float(line.split(",")[1]) for line in (tmp_path / "infsup.csv").read_text().split()[1:]]
    ratio = float((tmp_path / "rates.txt").read_text().split()[1])
    assert len(betas) == 5
    assert all(0.0 < b <= 1.0 for b in betas)
    assert ratio == pytest.approx(max(betas) / min(betas), rel=1e-8)
    assert ratio <= 2.0 ** 0.25


@pytest.mark.acceptance(criterion="infsup", summary="infsup degree 3: beta in (0, 1], max/min <= 2^(1/4)")
def test_inf_sup_constant_does_not_decay_degree_3(tmp_path):
    """The default sweep with degree 3 primal and degree 1 multiplier spaces.

    The paper's stability result holds for every p >= 2, so the bounds
    and their reasons are those of the degree-2 sweep.  Measured: ratio
    1.0175, smallest beta 0.971.
    """
    assert cli.main(["infsup", "--degree", "3", "--out", str(tmp_path)]) == 0
    betas = [float(line.split(",")[1]) for line in (tmp_path / "infsup.csv").read_text().split()[1:]]
    ratio = float((tmp_path / "rates.txt").read_text().split()[1])
    assert len(betas) == 5
    assert all(0.0 < b <= 1.0 for b in betas)
    assert ratio == pytest.approx(max(betas) / min(betas), rel=1e-8)
    assert ratio <= 2.0 ** 0.25
