"""Smoke self-check of the benchmark on tiny configs (a few seconds).

Runs one plain and one traced call of two tiny workloads through the
harness and asserts that

- every call passes its checks,
- every end-to-end and per-layer metric is printed with its unit and
  sample count, and is in the JSON result with its unit,
- no wrap target is missing,
- plain and traced calls wrote byte-identical output files, so the
  wrappers change no result,
- without the package sources the harness exits non-zero and prints no
  result.

Usage, from the repository root: python3 perfbench/selfcheck.py
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import run

SMOKE = [
    run.Workload(
        "smoke-hertz2d",
        ("hertz2d", "--levels", "2", "--base-spans", "3,3", "--grading", "0.7,0.45"),
    ),
    run.Workload(
        "smoke-hertz2d-large",
        ("hertz2d-large", "--pressure", "0.05", "--levels", "2", "--base-spans", "3,3",
         "--grading", "0.7,0.45", "--load-steps", "2"),
    ),
]


def check_report() -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(SMOKE, seconds=0, trace=True, seed=0)
    text = buf.getvalue()
    assert result["correct"] and result["failed"] == 0, text
    assert result["attempted"] == 2 * len(SMOKE), result
    assert "dropped" not in text, text
    sections = text.split("\n== ")[1:]
    assert [sec.split(":", 1)[0] for sec in sections] == [w.name for w in SMOKE], text
    for w, section in zip(SMOKE, sections):
        for name, unit in (("fail_ratio", "1"),) + run.END_TO_END + run.MEASURED + run.PER_LAYER:
            pattern = rf"^  {re.escape(name)} +\S+ {re.escape(unit)} \(n=[1-9]\d*\)$"
            assert re.search(pattern, section, re.M), f"{w.name}: {name} [{unit}] not printed"
        for name, unit in run.PER_LAYER:
            assert result["metrics"][f"{w.name}.{name}"]["unit"] == unit
        # one plain and one traced call, in the order the seed chose
        calldirs = sorted((run.WORK / w.name).iterdir())
        for d in calldirs:
            missing = json.loads((d / "result.json").read_text())["missing_targets"]
            assert missing == [], f"{w.name}: wrap targets not found: {missing}"
        first, second = (d / "out" for d in calldirs)
        for fname in run.OUTPUT_FILES:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), (
                f"{w.name}: traced call changed {fname}"
            )


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / "perfbench" / "run.py"), "--workload", "hertz2d-p003",
         "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert proc.stdout == "", proc.stdout


def main() -> int:
    check_report()
    check_bare_directory()
    print(json.dumps({"selfcheck": "ok", "workloads": [w.name for w in SMOKE]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
