"""The shipped scripts exit 0 and write their output files; the benchmark harness finds its targets.

Every public name of the package must have a caller outside the tests,
and only ``splines`` and the element-kernel tables evaluate B-spline
bases directly.

Each script runs in a subprocess, in a temporary directory where it
writes its ``out/`` tree, with ``src`` on ``PYTHONPATH``; the reference
level of the high-load convergence run must settle in at most 2
active-set records, and the reference level of each large-deformation
run must take one load step.  Together the scripts take about 18 s and
up to 1.4 GB of memory, so they run only with ``pytest --run-scripts``.
The harness checks always run, its smoke check ``perfbench/selfcheck.py``
(about 4 s) among them.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
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

# most active-set records the reference level of a run may take: each finer level starts
# from the coarser level's contact zone (1 record measured; 9 from the analytic mask alone)
REFERENCE_RECORDS = {"out/hertz2d_p01": 2}
# load steps the reference level of a Newton run takes: it starts from the coarser level's
# converged state and takes the whole load at once (1 measured; 10 when it stepped from zero)
REFERENCE_LOAD_STEPS = {"out/large_pressure": 1, "out/large_dirichlet": 1}


def level_steps(log: Path) -> list[list[int]]:
    """The load step of every record, per level of an ``iterations.log``, levels in file order."""
    levels: list[list[int]] = []
    for line in log.read_text().splitlines():
        if line.startswith("# level"):
            levels.append([])
        elif line[:1].isdigit():
            levels[-1].append(int(line.split()[0]))
    return levels


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
        if "iterations.log" in names:
            reference = level_steps(tmp_path / out / "iterations.log")[-1]
            if out in REFERENCE_RECORDS:
                assert len(reference) <= REFERENCE_RECORDS[out]
            if out in REFERENCE_LOAD_STEPS:
                assert len(set(reference)) == REFERENCE_LOAD_STEPS[out]


def benchmark_tracer():
    """``perfbench/tracer.py``, loaded from its file: it defines the target lists and installs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def wrap_targets():
    """The (layer, module, attribute path) targets that ``perfbench/tracer.py`` wraps."""
    tracer = benchmark_tracer()
    return tracer.SETUP_TARGETS + tracer.LAYER_TARGETS + tracer.GENERATOR_TARGETS


def test_every_benchmark_wrap_target_resolves():
    """Every name ``perfbench/tracer.py`` wraps exists in the package, so no harness metric goes missing."""
    targets = wrap_targets()
    missing = []
    for _, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert targets
    assert missing == []


def test_benchmark_selfcheck_prints_ok():
    """The harness's smoke check passes: its calls succeed, every wrap target is found, and traced outputs match plain ones."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["selfcheck"] == "ok"


def test_generator_wrap_targets_are_generators():
    """The harness counts a pass per call and a span per item only of a generator function."""
    targets = benchmark_tracer().GENERATOR_TARGETS
    assert targets
    for _, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert inspect.isgeneratorfunction(owner), f"{module}.{path}"


def referenced_names(tree, skip=None):
    """Every name and attribute read in an AST, outside the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller():
    """Each public function, class, method and property of the package is used outside the tests.

    A use is a reference by name in ``src/`` outside the name's own
    definition, in ``scripts/``, or a wrap target of ``perfbench/tracer.py``.
    Imports and ``__all__`` are not uses, so a helper only the tests call
    fails here: it belongs in the tests.
    """
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "igacontact").glob("*.py"))}
    uses = {path: referenced_names(tree) for path, tree in trees.items()}
    outside = {part for _, _, path in wrap_targets() for part in path.split(".")}
    for script in (ROOT / "scripts").glob("*.py"):
        outside |= referenced_names(ast.parse(script.read_text()))
    public = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((path, node.name, node))
                if isinstance(node, ast.ClassDef):
                    public += [
                        (path, f"{node.name}.{sub.name}", sub)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                    ]
    unused = []
    for path, qualname, node in public:
        name = qualname.split(".")[-1]
        if name in outside or any(name in names for other, names in uses.items() if other != path):
            continue
        if name not in referenced_names(trees[path], skip=node):
            unused.append(f"{path.name}:{qualname}")
    assert public
    assert unused == []


def test_basis_evaluation_stays_in_splines():
    """Only ``splines`` and the element-kernel tables (``assembly._direction_tables``) call ``eval_basis_batch``.

    Every other evaluation goes through the tensor-grid evaluator of
    ``splines``, so there is one way to evaluate a spline space.
    """
    callers = []
    for path in sorted((ROOT / "src" / "igacontact").glob("*.py")):
        if path.name == "splines.py":
            continue
        tree = ast.parse(path.read_text())
        tables = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_direction_tables"]
        skip = tables[0] if path.name == "assembly.py" and tables else None
        if "eval_basis_batch" in referenced_names(tree, skip=skip):
            callers.append(path.name)
    assert callers == []
