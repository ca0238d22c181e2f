"""CLI tests: argument handling, config files, output schema, reproducibility."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from igacontact.benchmarks import ConfigError, RunConfig, run_benchmark, run_infsup, write_run_outputs
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
