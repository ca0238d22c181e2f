"""CLI tests: argument handling, config files, output schema, reproducibility."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from igacontact import benchmarks, solver
from igacontact.benchmarks import (
    ConfigError,
    RunConfig,
    quarter_disc_level_patch,
    run_benchmark,
    run_infsup,
    write_run_outputs,
)
from igacontact.cli import build_run_config, main, parse_config_file


def tiny_args(out, extra=()):
    return [
        "hertz2d",
        "--pressure",
        "0.003",
        "--levels",
        "2",
        "--base-spans",
        "3,3",
        "--out",
        str(out),
        *extra,
    ]


def tiny_large_args(out):
    return [
        "hertz2d-large",
        "--pressure",
        "0.05",
        "--levels",
        "2",
        "--base-spans",
        "3,3",
        "--load-steps",
        "2",
        "--out",
        str(out),
    ]


RUN_FILES = (
    "disp.csv",
    "mult.csv",
    "rates.txt",
    "pressure_profile.csv",
    "iterations.log",
    "contact_state.csv",
)


def assert_same_bytes(out1, out2):
    for name in RUN_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestArgumentHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-benchmark"])
        assert exc.value.code == 2

    def test_no_benchmark_prints_usage(self, capsys):
        rc = main([])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_config_with_unknown_benchmark_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmark = warp-drive\nlevels = 2\n")
        rc = main(["--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage" in err
        assert "warp-drive" in err

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nbenchmark = hertz2d\npressure = 0.01\n\nlevels=3\n")
        opts = parse_config_file(str(cfg))
        assert opts == {"benchmark": "hertz2d", "pressure": "0.01", "levels": "3"}

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pressure 0.01\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfg.write_text(f"benchmark = infsup\nlevels = 3\nbase_spans = 2\nout = {out}\n")
        rc = main(["--config", str(cfg), "infsup", "--levels", "1"])
        assert rc == 0
        rows = (out / "infsup.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one level


@pytest.mark.parametrize(
    "argv",
    [
        ["hertz2d", "--base-spans", "3,6,4"],
        ["hertz3d", "--base-spans", "3,6"],
        ["hertz2d", "--grading", "0.8,0.1,0.3"],
        ["hertz2d", "--grading", "0.8,1.5"],
        ["hertz2d", "--levels", "1"],
        ["hertz2d", "--pressure", "-1"],
        # no load leaves the normal translation free: the linear problem is singular
        ["hertz2d", "--pressure", "0"],
        ["hertz3d", "--pressure", "0"],
        ["hertz2d", "--poisson", "0.5"],
        ["hertz2d", "--young", "0"],
        ["hertz2d", "--radius", "0"],
        ["hertz2d-large", "--load-steps", "0"],
        ["hertz2d-large", "--load-steps", "-3"],
        ["infsup", "--base-spans", "4,4"],
    ],
    ids=" ".join,
)
def test_configuration_error_exits_2(argv, tmp_path, capsys):
    rc = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # misspelt keys (for levels and base_spans) used to be dropped, and the run went ahead
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 3\nbase-spans = 2\n")
    rc = main(["--config", str(cfg), "infsup", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "base-spans, level" in err.splitlines()[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phase", ["set-up", "solve"])
def test_level_out_of_memory_exits_1_with_one_line(phase, tmp_path, capsys, monkeypatch):
    # a MemoryError stands in for the band allocation of a level too large for memory;
    # nothing large is allocated
    seen = []
    if phase == "set-up":
        def fail(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(benchmarks, "assemble_stiffness", fail)
    else:
        real = solver._band_layout

        def fail(*args):
            seen.append(real(*args).u)
            raise MemoryError
        monkeypatch.setattr(solver, "_band_layout", fail)
    rc = main(tiny_args(tmp_path / "out"))
    err = capsys.readouterr().err
    assert rc == 1
    patch = quarter_disc_level_patch(RunConfig(benchmark="hertz2d", base_spans=(3, 3)), 0)
    n, u = patch.space.dim * 2, solver._band_halfwidth(patch.space.space.n_basis, 2, 2)
    assert seen == ([u] if phase == "solve" else [])  # the message's half-bandwidth is the band's
    assert err == (
        f"solver failure: level 0 does not fit in memory: {n} dofs, half-bandwidth {u}, "
        f"band {n * (u + 1) * 8 / 2**30:.2f} GiB\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hertz2d-large", "--pressure", "0"], "hertz2d-large needs a positive pressure"),
        (["hertz2d-large-dirichlet", "--displacement", "0"], "hertz2d-large-dirichlet needs a positive displacement"),
        (["hertz2d-large-dirichlet", "--displacement", "-0.05"], "hertz2d-large-dirichlet needs a positive displacement"),
    ],
    ids=["pressure", "displacement", "pull"],
)
def test_large_deformation_zero_load_exits_2(argv, message, tmp_path, capsys, monkeypatch):
    # a zero load, or a pull away from the plane, solves to zero errors at every level,
    # and a run of three or more levels then fitted no rate and ended in a traceback: it
    # is rejected before any level is refined
    work = []
    monkeypatch.setattr(benchmarks, "quarter_disc_level_patch", lambda *args: work.append(args))
    rc = main([*argv, "--levels", "3", "--base-spans", "3,3", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and work == []
    assert err.splitlines()[0] == f"error: {message}" and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_too_large_run_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # the memory check runs on every level's basis grid before level 0 is refined or
    # assembled; the machine is made just too small for the reference level's band
    config = RunConfig(benchmark="hertz2d", pressure=0.003, levels=2, base_spans=(3, 3))
    ref = quarter_disc_level_patch(config, 2)
    n, u = ref.space.dim * 2, solver._band_halfwidth(ref.space.space.n_basis, 2, 2)
    monkeypatch.setattr(benchmarks, "_physical_memory", lambda: 8 * n * (u + 1) - 1)
    work = []
    for name in ("quarter_disc_level_patch", "assemble_stiffness", "solve_small_deformation"):
        monkeypatch.setattr(benchmarks, name, lambda *args, name=name: work.append(name))
    rc = main(tiny_args(tmp_path / "out"))
    err = capsys.readouterr().err
    assert rc == 1 and work == []
    assert err == (
        f"solver failure: level 2 does not fit in memory: {n} dofs, half-bandwidth {u}, "
        f"band {n * (u + 1) * 8 / 2**30:.2f} GiB\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(benchmark="hertz2d", base_spans=(3, 6)),
        RunConfig(benchmark="hertz2d-large", degree=3, base_spans=(3, 6)),
        RunConfig(benchmark="hertz3d", base_spans=(2, 4, 2), grading=(0.5, 0.2)),
    ],
    ids=lambda c: f"{c.benchmark}-p{c.degree}",
)
def test_memory_check_reads_each_level_grid_off_the_knot_vectors(config):
    base = benchmarks._base_patch(config)
    for level in range(3):
        breaks = benchmarks._level_breakpoints(config, level)
        assert base.refined_grid_shape(breaks) == base.refine_to_breakpoints(breaks).space.space.n_basis


class TestRunOutputs:
    def test_tiny_run_files_and_headers(self, tmp_path):
        out = tmp_path / "run"
        rc = main(tiny_args(out))
        assert rc == 0
        disp = (out / "disp.csv").read_text().splitlines()
        assert disp[0] == "h,L2_abs,H1_abs"
        assert len(disp) == 2  # one reported level
        mult = (out / "mult.csv").read_text().splitlines()
        assert mult[0] == "h_mult_ana,L2_mult_abs_ana,h_mult_ref,L2_mult_abs_ref"
        prof = (out / "pressure_profile.csv").read_text().splitlines()
        assert prof[0] == "r_over_a,p_over_p0"
        assert (out / "iterations.log").exists()
        assert (out / "contact_state.csv").exists()

    def test_pressure_profile_ties_ordered_by_pressure(self, tmp_path):
        # rows of equal r are ordered by p, not by their quadrature order, so that the
        # file depends on the solution alone; r rounded to 0.05 ties many points
        config = RunConfig(
            benchmark="hertz2d", pressure=0.003, levels=2, base_spans=(3, 3), out=str(tmp_path / "a")
        )
        result = run_benchmark(config)
        tied = dataclasses.replace(
            result,
            config=dataclasses.replace(config, out=str(tmp_path / "b")),
            r_of=lambda tq: 0.05 * np.round(20.0 * result.r_of(tq)),
        )
        write_run_outputs(tied)
        rows = np.loadtxt(tmp_path / "b" / "pressure_profile.csv", delimiter=",", skiprows=1)
        ties = np.diff(rows[:, 0]) == 0
        assert (np.diff(rows[:, 0]) >= 0).all() and ties.sum() > rows.shape[0] / 2
        assert (np.diff(rows[:, 1])[ties] >= 0).all()
        assert not (np.diff(rows[:, 1])[ties] == 0).all()

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(tiny_args(out1)) == 0
        assert main(tiny_args(out2)) == 0
        assert_same_bytes(out1, out2)

    def test_large_deformation_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(tiny_large_args(out1)) == 0
        assert main(tiny_large_args(out2)) == 0
        assert_same_bytes(out1, out2)

    def test_dirichlet_large_deformation_run(self, tmp_path):
        # a displacement-driven step enters through the prescribed increment, so its
        # first residual is the previous step's converged one (about 1e-16); taken as
        # the divergence scale, it failed step 2 at every halving of the load step
        args = ["hertz2d-large-dirichlet", "--displacement", "0.1", "--levels", "2"]
        assert main([*args, "--out", str(tmp_path / "d")]) == 0

    def test_dirichlet_default_mesh_is_the_script_mesh(self):
        """The Dirichlet default mesh is the one of ``scripts/run_large_deformation.py``.

        On the 6,6 / 0.8,0.1 mesh of the other 2D ids the multiplier does
        not converge under a push: ``--displacement 0.1 --levels 3`` fits
        multiplier rates of 0.0002 (closed form) and 0.037 (reference),
        against 0.94 and 0.93 on the script mesh at the same push.
        """
        config = build_run_config("hertz2d-large-dirichlet", {})
        assert config.base_spans == (3, 6)
        assert config.grading == (0.65, 0.6)

    def test_infsup_single_level(self, tmp_path):
        config = RunConfig(benchmark="infsup", levels=1, base_spans=(4,), out=str(tmp_path / "i"))
        result = run_infsup(config)
        assert len(result.rows) == 1
        assert result.ratio is None

    def test_infsup_degenerate_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(benchmark="infsup", levels=1, base_spans=(0,), out=str(tmp_path))

    def test_levels_give_expected_row_count(self, tmp_path):
        config = RunConfig(
            benchmark="hertz2d",
            levels=3,
            base_spans=(3, 3),
            pressure=0.003,
            out=str(tmp_path / "rows"),
        )
        result = run_benchmark(config)
        assert len(result.disp_rows) == 2
        # reference is two dyadic steps beyond the finest reported level
        assert result.reference.level == 3
        assert [r.level for r in result.levels] == [0, 1]
        hs = np.array([r.h for r in result.levels])
        assert np.all(np.diff(hs) < 0)
