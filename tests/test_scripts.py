"""The shipped scripts exit 0 and write their output files; the benchmark harness finds its targets.

Each script runs in a subprocess, in a temporary directory where it
writes its ``out/`` tree, with ``src`` on ``PYTHONPATH``.  Together they
take about 35 s and up to 1.4 GB of memory, so they run only with
``pytest --run-scripts``.  The harness check always runs.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_FILES = ("disp.csv", "mult.csv", "rates.txt", "pressure_profile.csv", "iterations.log", "contact_state.csv")

SCRIPTS = {
    "run_infsup.py": {"out/infsup": ("infsup.csv", "rates.txt")},
    "run_hertz2d_convergence.py": {"out/hertz2d_p003": RUN_FILES, "out/hertz2d_p01": RUN_FILES},
    "run_hertz3d.py": {"out/hertz3d_p1e-4": RUN_FILES},
    "run_large_deformation.py": {"out/large_pressure": RUN_FILES, "out/large_dirichlet": RUN_FILES},
}


@pytest.mark.scripts
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_exits_0_and_writes_its_files(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for out, names in SCRIPTS[script].items():
        for name in names:
            path = tmp_path / out / name
            assert path.is_file() and path.stat().st_size > 0, f"{script} wrote no {out}/{name}"


def test_every_benchmark_wrap_target_resolves():
    """Every name ``perfbench/tracer.py`` wraps exists in the package, so no harness metric goes missing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the target lists; installs nothing
    targets = tracer.SETUP_TARGETS + tracer.LAYER_TARGETS + tracer.GENERATOR_TARGETS
    missing = []
    for _, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert targets
    assert missing == []
