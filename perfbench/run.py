"""Benchmark harness for igacontact: fixed CLI workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Every call is a fresh single-threaded worker process (``worker.py``)
that runs ``igacontact.cli.main(argv)`` on one fixed workload.  Calls
repeat until ``--seconds`` of a workload's calls are used; the inputs are
fixed, and the seed only sets the order in which calls interleave
(workloads with ``all``; plain and traced calls with ``--trace 1``).
A call starts while it is expected to end at most half a call past
``--seconds``, so a run lasts about ``--seconds`` on average.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` and ``setup_s``
are rescaled to a reference machine speed: each call's time is
multiplied by ``PROBE_REF_S`` over the mean time of a probe sample just
before and just after the call (``probe.py``), because the speed of a
shared machine drifts by more than the benchmark's bounds.  The measured
times are printed as ``wall_measured_s`` and ``setup_measured_s``.
``--trace 1`` alternates plain and traced calls and reports the
per-layer metrics (self times and counts from the traced calls, as
measured; ``trace.overhead_s`` is the traced ``wall_s`` minus the plain
median of ``wall_measured_s``).  A human-readable report comes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A call fails when the worker exits non-zero or raises, when one of the
six output files is missing, when ``rates.txt``/``disp.csv``/``mult.csv``
leave ``RTOL`` of the values in ``reference.json``, or when its CSVs are
not byte-identical to the first call of the same workload on the same
source tree.  Everything the benchmark writes goes under ``perfbench/_work``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

OUTPUT_FILES = (
    "disp.csv",
    "mult.csv",
    "rates.txt",
    "pressure_profile.csv",
    "iterations.log",
    "contact_state.csv",
)
DIGEST_FILES = ("disp.csv", "mult.csv", "pressure_profile.csv", "contact_state.csv", "rates.txt")
# reordered floating-point sums move results by ~1e-12 relative; a changed
# active set or a wrong solve moves them by far more
RTOL = 1e-6
ATOL = 1e-12
RUN_LIMIT_S = 170.0  # one workload's calls must end within this
PROBE_S = 0.3  # speed probe after each call (and before the first)
# wall_s and setup_s are rescaled to the machine speed at which one probe
# sample takes PROBE_REF_S, about the quiet speed of the 2-core VM the
# benchmark was sized on
PROBE_REF_S = 0.016


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # levels 0/1/2 + reference 4 (80/224/728/9,800 dofs); 6 active-set
        # iterations on the reference level, 15 saddle factorizations
        Workload(
            "hertz2d-p003",
            ("hertz2d", "--pressure", "0.003", "--levels", "4",
             "--base-spans", "3,6", "--grading", "0.8,0.1"),
        ),
        # 288 and 5,400 dofs; stiffness-assembly bound, one active-set
        # iteration on the reference level
        Workload(
            "hertz3d-coarse",
            ("hertz3d", "--pressure", "1e-4", "--levels", "2",
             "--base-spans", "2,4,2", "--grading", "0.5,0.2"),
        ),
        # Neo-Hookean Newton path: tangent rebuilt every iteration, ~140
        # small factorizations, assemble_stiffness never called
        Workload(
            "hertz2d-large-p01",
            ("hertz2d-large", "--pressure", "0.1", "--levels", "3",
             "--base-spans", "3,6", "--grading", "0.7,0.45"),
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mult_err_ana", "L2_abs"),
    ("disp_l2_err", "L2_abs"),
)
# printed beside the end-to-end metrics, not in the JSON result
MEASURED = (
    ("wall_measured_s", "s"),
    ("setup_measured_s", "s"),
    ("probe_sample_s", "s"),
)

# "<layer>.s" is summed self time, "<layer>.calls" the span count; the rest
# are counters kept by the tracer or derived below
PER_LAYER = (
    ("assembly.assemble_stiffness.s", "s"),
    ("assembly.iter_element_blocks.s", "s"),
    ("assembly.iter_element_blocks.passes", "count"),
    ("assembly.neo_hookean_forces.s", "s"),
    ("assembly.neo_hookean_forces.calls", "count"),
    ("materials.pk1.s", "s"),
    ("materials.pk1.calls", "count"),
    ("solver.splu.s", "s"),
    ("solver.splu.calls", "count"),
    ("solver.splu.nnz", "count"),
    ("solver.splu.fill_nnz", "count"),
    ("solver.splu.n_max", "count"),
    ("solver.saddle_solve.s", "s"),
    ("solver.saddle_solve.calls", "count"),
    ("solver.active_set_iters", "count"),
    ("contact.active_set_update.calls", "count"),
    ("solver.newton_iters", "count"),
    ("solver.failed_attempts", "count"),
    ("solver.useful_solve_ratio", "ratio"),
    ("geometry.refine_to_breakpoints.s", "s"),
    ("geometry.extract_trace.s", "s"),
    ("splines.eval_basis_batch.s", "s"),
    ("splines.eval_basis_batch.calls", "count"),
    ("contact.multiplier_basis.s", "s"),
    ("contact.coupling_matrix.s", "s"),
    ("assembly.assemble_load.s", "s"),
    ("assembly.apply_constraints.s", "s"),
    ("verification.displacement_errors.s", "s"),
    ("verification.multiplier_error.s", "s"),
    ("benchmarks.write_run_outputs.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Fatal(Exception):
    """The benchmark cannot run here at all; no result is printed."""


@dataclass
class Call:
    traced: bool
    elapsed: float  # worker process, start to exit
    probe_s: float  # mean probe sample time just before and just after the call
    result: dict | None = None
    values: dict | None = None  # parsed rates/disp/mult
    failures: list[str] = field(default_factory=list)


SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("IGA_CONTACT_THREADS", "PYTHONPATH")}
    env.update(SINGLE_THREAD)
    return env


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def parse_outputs(out: Path) -> dict:
    """Values of rates.txt, disp.csv and mult.csv."""
    rates = {}
    for line in (out / "rates.txt").read_text().splitlines():
        key, value = line.split()
        rates[key] = float(value)

    def rows(name):
        lines = (out / name).read_text().splitlines()[1:]
        return [[float(v) for v in line.split(",")] for line in lines]

    return {"rates": rates, "disp": rows("disp.csv"), "mult": rows("mult.csv")}


def compare_values(got: dict, ref: dict) -> list[str]:
    errors = []
    if sorted(got["rates"]) != sorted(ref["rates"]):
        errors.append(f"rates.txt keys {sorted(got['rates'])} != {sorted(ref['rates'])}")
    for key in set(got["rates"]) & set(ref["rates"]):
        g, r = got["rates"][key], ref["rates"][key]
        if abs(g - r) > RTOL * abs(r) + ATOL:
            errors.append(f"rates.txt {key} = {g!r}, reference {r!r}")
    for name in ("disp", "mult"):
        g_rows, r_rows = got[name], ref[name]
        if [len(r) for r in g_rows] != [len(r) for r in r_rows]:
            errors.append(f"{name}.csv shape differs from the reference")
            continue
        for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
            for j, (g, r) in enumerate(zip(g_row, r_row)):
                if abs(g - r) > RTOL * abs(r) + ATOL:
                    errors.append(f"{name}.csv row {i} col {j} = {g!r}, reference {r!r}")
    return errors


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


class Harness:
    """Runs calls of the workloads and checks each call's outputs."""

    def __init__(self, workloads: list[Workload], references: dict, tree: str, probe):
        self.workloads = workloads
        self.probe = probe
        self.references = references
        self.tree = tree
        self.env = worker_env()
        self.digest_path = WORK / "digests.json"
        self.digests = json.loads(self.digest_path.read_text()) if self.digest_path.exists() else {}
        self.calls: dict[str, list[Call]] = {w.name: [] for w in workloads}
        self.worker_env_info: dict = {}
        self.start = time.perf_counter()
        self.limit = RUN_LIMIT_S * len(workloads)
        self.last_probe = self.probe_time()

    def probe_time(self) -> float:
        """Median time of a probe sample, over ``PROBE_S``."""
        return statistics.median(self.probe.run(PROBE_S))

    def run_call(self, w: Workload, traced: bool) -> Call:
        index = len(self.calls[w.name])
        calldir = WORK / w.name / f"{index:03d}"
        shutil.rmtree(calldir, ignore_errors=True)
        calldir.mkdir(parents=True)
        out = calldir / "out"
        result_path = calldir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), str(ROOT), str(result_path),
            f"{w.name}#{index}", "traced" if traced else "plain", "--", *w.argv, "--out", str(out),
        ]
        timeout = max(5.0, self.limit - (time.perf_counter() - self.start))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.perf_counter() - t0
        before, self.last_probe = self.last_probe, self.probe_time()
        call = Call(traced=traced, elapsed=elapsed, probe_s=(before + self.last_probe) / 2)
        self.calls[w.name].append(call)
        if proc is None:
            call.failures.append(f"timed out after {timeout:.0f} s")
            return call
        if proc.returncode == 3:
            raise Fatal(f"cannot import igacontact from {ROOT / 'src'}:\n{proc.stderr}")
        if result_path.exists():
            call.result = json.loads(result_path.read_text())
            self.worker_env_info = call.result["env"]
        self.check(w, call, proc, out)
        return call

    def check(self, w: Workload, call: Call, proc, out: Path) -> None:
        res = call.result
        if proc.returncode != 0 or res is None:
            detail = (res or {}).get("error") or proc.stderr
            tail = " | ".join(detail.strip().splitlines()[-3:])
            call.failures.append(f"worker exit {proc.returncode}: {tail}")
            return
        setup_paths = {f"{m}.{p}" for _, m, p in tracer.SETUP_TARGETS}
        lost = setup_paths & set(res["missing_targets"])
        if lost:
            call.failures.append(f"set-up targets not found, setup_s is wrong: {sorted(lost)}")
        absent = [name for name in OUTPUT_FILES if not (out / name).is_file()]
        if absent:
            call.failures.append(f"missing output files: {absent}")
            return
        try:
            call.values = parse_outputs(out)
        except ValueError as exc:
            call.failures.append(f"unparsable output: {exc}")
            return
        call.failures += compare_values(call.values, self.references[w.name])
        key = f"{self.tree}:{w.name}"
        digest = output_digest(out)
        if key not in self.digests:
            self.digests[key] = digest
            tmp = self.digest_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.digests, indent=1))
            os.replace(tmp, self.digest_path)
        elif self.digests[key] != digest:
            call.failures.append("outputs are not byte-identical to an earlier call of this workload")

    def measure(self, seconds: float, trace: bool, seed: int) -> None:
        """Interleave calls until each workload has used ``seconds``."""
        rng = random.Random(seed)
        kinds = {}
        for w in self.workloads:
            first = rng.random() < 0.5 if trace else False
            kinds[w.name] = [first, not first] if trace else [False]
        while True:
            due = [w for w in self.workloads if self.wants_call(w, seconds, len(kinds[w.name]))]
            if not due:
                return
            rng.shuffle(due)
            for w in due:
                pattern = kinds[w.name]
                self.run_call(w, pattern[len(self.calls[w.name]) % len(pattern)])

    def wants_call(self, w: Workload, seconds: float, minimum: int) -> bool:
        calls = self.calls[w.name]
        if len(calls) < minimum:
            return True
        estimate = statistics.median(c.elapsed for c in calls) + PROBE_S
        used = sum(c.elapsed for c in calls) + PROBE_S * len(calls)
        elapsed = time.perf_counter() - self.start
        return used + estimate / 2 <= seconds and elapsed + estimate <= self.limit


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(calls: list[Call]) -> tuple[dict, dict]:
    """Median of each end-to-end and measured metric over the good plain calls, and sample counts."""
    good = [c for c in calls if not c.traced and not c.failures]
    samples = {
        "wall_s": [c.result["wall_s"] * PROBE_REF_S / c.probe_s for c in good],
        "setup_s": [c.result["setup_s"] * PROBE_REF_S / c.probe_s for c in good],
        "peak_rss_mb": [c.result["peak_rss_mb"] for c in good],
        "mult_err_ana": [c.values["rates"]["mult_ana_reference_error"] for c in good],
        "disp_l2_err": [c.values["disp"][-1][1] for c in good],
        "wall_measured_s": [c.result["wall_s"] for c in good],
        "setup_measured_s": [c.result["setup_s"] for c in good],
        "probe_sample_s": [c.probe_s for c in good],
    }
    return {k: _median(v) for k, v in samples.items()}, {k: len(v) for k, v in samples.items()}


def layer_values(res: dict) -> dict[str, float]:
    layers, counters = res["layers"], res["counters"]
    out = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = layers.get(layer, (0.0, 0))[0]
        elif kind == "calls":
            out[name] = layers.get(layer, (0.0, 0))[1]
        else:
            out[name] = counters.get(name, 0)
    solves = out["solver.saddle_solve.calls"]
    kept = out["solver.active_set_iters"] + out["solver.newton_iters"]
    out["solver.useful_solve_ratio"] = kept / solves if solves else 0.0
    out["trace.wall_s"] = res["wall_s"]
    return out


def per_layer_metrics(calls: list[Call]) -> tuple[dict, dict]:
    """Median of each per-layer metric over the good traced calls, and sample counts."""
    traced = [layer_values(c.result) for c in calls if c.traced and not c.failures]
    metrics = {name: _median([t[name] for t in traced]) for name, _ in PER_LAYER}
    counts = {name: len(traced) for name, _ in PER_LAYER}
    plain, plain_n = end_to_end_metrics(calls)
    if plain_n["wall_s"]:
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_measured_s"]
    counts["trace.overhead_s"] = min(len(traced), plain_n["wall_s"])
    return metrics, counts


# per-layer metrics not named "<layer>.<kind>": the tracer layers they come from
SOURCE_LAYERS = {
    "solver.splu.nnz": ("solver.splu",),
    "solver.splu.fill_nnz": ("solver.splu",),
    "solver.splu.n_max": ("solver.splu",),
    "solver.active_set_iters": ("solver.solve_small_deformation",),
    "solver.newton_iters": ("solver.solve_large_deformation",),
    "solver.useful_solve_ratio": (
        "solver.solve_small_deformation", "solver.solve_large_deformation", "solver.saddle_solve",
    ),
    "solver.failed_attempts": tuple(t[0] for t in tracer.LAYER_TARGETS + tracer.GENERATOR_TARGETS),
    "trace.wall_s": (),
    "trace.overhead_s": (),
}


def dropped_layers(calls: list[Call]) -> list[str]:
    """Per-layer metrics with a wrap target that was not found, with the reason."""
    missing = set()
    for c in calls:
        if c.result:
            missing |= set(c.result["missing_targets"])
    targets: dict[str, set] = {}
    for layer, module, path in tracer.LAYER_TARGETS + tracer.GENERATOR_TARGETS:
        targets.setdefault(layer, set()).add(f"{module}.{path}")
    out = []
    for name, _ in PER_LAYER:
        layers = SOURCE_LAYERS.get(name, (name.rpartition(".")[0],))
        lost = sorted(set().union(*(targets[layer] for layer in layers)) & missing)
        if lost:
            out.append(f"{name}: partial or 0, wrap targets not found ({', '.join(lost)})")
    return out


def report(harness: Harness, trace: bool, seed: int, seconds: float) -> dict:
    """Print the human-readable report and return the final JSON object."""
    env = {
        "git_sha": git_sha(),
        "source_sha256": harness.tree,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **harness.worker_env_info,
        "loadavg": os.getloadavg(),
        "worker_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, IGA_CONTACT_THREADS unset",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    print("env:", json.dumps(env))
    units = dict(PER_LAYER if trace else END_TO_END)
    single = len(harness.workloads) == 1
    attempted = failed = 0
    metrics = {}
    for w in harness.workloads:
        calls = harness.calls[w.name]
        bad = [c for c in calls if c.failures]
        attempted += len(calls)
        failed += len(bad)
        print(f"\n== {w.name}: iga-contact {' '.join(w.argv)}")
        print(f"  {'fail_ratio':<40} {len(bad) / len(calls):.6g} 1 (n={len(calls)})")
        for c in bad:
            for reason in c.failures:
                print(f"  FAILED {'traced' if c.traced else 'plain'} call: {reason}")
        values, counts = end_to_end_metrics(calls)
        if trace:
            print("  end to end, median of plain calls:")
        for name, unit in END_TO_END + MEASURED:
            print(f"  {name:<40} {values[name]:.6g} {unit} (n={counts[name]})")
        if trace:
            values, counts = per_layer_metrics(calls)
            print("  per layer, median of traced calls (.s = self time):")
            for name, unit in PER_LAYER:
                print(f"  {name:<40} {values[name]:.6g} {unit} (n={counts[name]})")
            for line in dropped_layers(calls):
                print(f"  dropped {line}")
        for name, unit in units.items():
            key = name if single else f"{w.name}.{name}"
            metrics[key] = {"value": values[name], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(workloads: list[Workload], seconds: float, trace: bool, seed: int) -> dict:
    if not (ROOT / "src" / "igacontact" / "cli.py").is_file():
        raise Fatal(f"no igacontact sources under {ROOT / 'src'}")
    references = json.loads((HERE / "reference.json").read_text())
    # the probe runs in this process, single-threaded like the workers;
    # numpy reads these settings when it is first imported
    os.environ.update(SINGLE_THREAD)
    from probe import Probe

    harness = Harness(workloads, references, source_hash(), Probe())
    harness.measure(seconds, trace, seed)
    return report(harness, trace, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    try:
        result = run(chosen, args.seconds, bool(args.trace), args.seed)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
