"""Span recording around the public functions of igacontact, from outside.

Each target is replaced in the namespace where its caller looks it up
(``igacontact.solver.saddle_solve`` is what ``solve_small_deformation``
calls, ``igacontact.assembly.eval_basis_batch`` is what the quadrature
tables call), so the package itself is not edited.  A span records
(name, start, end, parent, run id); spans stay in memory until the run
ends.  Only one thread may run traced code: the span stack is shared.
Install into a fresh worker process only, because nothing is restored.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (metric layer, module holding the name the caller looks up, attribute path)
SETUP_TARGETS = [
    ("benchmarks.level_patch", "igacontact.benchmarks", "quarter_disc_level_patch"),
    ("benchmarks.level_patch", "igacontact.benchmarks", "sphere_octant_level_patch"),
    ("benchmarks.build_problem", "igacontact.benchmarks", "build_hertz2d_problem"),
    ("benchmarks.build_problem", "igacontact.benchmarks", "build_hertz3d_problem"),
    ("benchmarks.build_problem", "igacontact.benchmarks", "build_large_deformation_problem"),
]

LAYER_TARGETS = [
    ("geometry.refine_to_breakpoints", "igacontact.geometry", "NurbsPatch.refine_to_breakpoints"),
    ("geometry.extract_trace", "igacontact.benchmarks", "extract_trace"),
    ("geometry.extract_trace", "igacontact.assembly", "extract_trace"),
    ("splines.eval_basis_batch", "igacontact.splines", "eval_basis_batch"),
    ("splines.eval_basis_batch", "igacontact.assembly", "eval_basis_batch"),
    ("assembly.assemble_stiffness", "igacontact.benchmarks", "assemble_stiffness"),
    ("assembly.assemble_load", "igacontact.benchmarks", "assemble_load"),
    ("assembly.assemble_load", "igacontact.solver", "assemble_load"),
    ("assembly.apply_constraints", "igacontact.solver", "apply_constraints"),
    ("assembly.neo_hookean_forces", "igacontact.solver", "neo_hookean_forces"),
    ("materials.pk1", "igacontact.materials", "NeoHookeanMaterial.pk1"),
    ("contact.multiplier_basis", "igacontact.benchmarks", "multiplier_basis"),
    ("contact.coupling_matrix", "igacontact.benchmarks", "coupling_matrix"),
    ("contact.active_set_update", "igacontact.solver", "active_set_update"),
    ("solver.saddle_solve", "igacontact.solver", "saddle_solve"),
    ("solver.splu", "igacontact.solver", "spla.splu"),
    ("solver.solve_small_deformation", "igacontact.benchmarks", "solve_small_deformation"),
    ("solver.solve_large_deformation", "igacontact.benchmarks", "solve_large_deformation"),
    ("verification.displacement_errors", "igacontact.benchmarks", "displacement_errors"),
    ("verification.multiplier_error", "igacontact.benchmarks", "multiplier_error_analytic"),
    ("verification.multiplier_error", "igacontact.benchmarks", "multiplier_error_reference"),
    ("benchmarks.write_run_outputs", "igacontact.benchmarks", "write_run_outputs"),
]

# generator functions: each next() is one span, each call one pass
GENERATOR_TARGETS = [
    ("assembly.iter_element_blocks", "igacontact.assembly", "iter_element_blocks"),
]

SETUP_LAYERS = ("benchmarks.level_patch", "benchmarks.build_problem")


def _count_splu(tracer, args, lu):
    tracer.counters["solver.splu.fill_nnz"] += lu.L.nnz + lu.U.nnz
    tracer.counters["solver.splu.nnz"] += args[0].nnz
    tracer.counters["solver.splu.n_max"] = max(tracer.counters["solver.splu.n_max"], lu.shape[0])


def _count_active_set(tracer, args, bundle):
    tracer.counters["solver.active_set_iters"] += len(bundle.iterations)


def _count_newton(tracer, args, bundle):
    tracer.counters["solver.newton_iters"] += len(bundle.iterations)


_RESULT_HOOKS = {
    "solver.splu": _count_splu,
    "solver.solve_small_deformation": _count_active_set,
    "solver.solve_large_deformation": _count_newton,
}


class Tracer:
    """In-memory span recorder; ``install`` patches the targets."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._raised: list[BaseException] = []  # kept alive so identity checks hold

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, exc: BaseException | None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.spans[idx][4] = True
            self._count_failure(exc)

    def _count_failure(self, exc: BaseException) -> None:
        # an exception re-raised (or chained) through outer wrappers is one attempt
        seen = exc
        while seen is not None:
            if any(seen is e for e in self._raised):
                return
            seen = seen.__cause__ or seen.__context__
        self._raised.append(exc)
        self.counters["solver.failed_attempts"] += 1

    def wrap(self, name: str, fn):
        hook = _RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            self.counters[name + ".passes"] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(idx, None)
                    return
                except BaseException as exc:
                    self._close(idx, exc)
                    raise
                self._close(idx, None)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self, full: bool) -> None:
        """Patch the set-up targets, and with ``full`` every layer target."""
        plan = [(t, self.wrap) for t in SETUP_TARGETS]
        if full:
            plan += [(t, self.wrap) for t in LAYER_TARGETS]
            plan += [(t, self.wrap_generator) for t in GENERATOR_TARGETS]
        for (name, module, path), wrapper in plan:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, wrapper(name, fn))

    def self_times(self) -> dict[str, list]:
        """Per layer: summed self time (span minus its children) and calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name][0] += end - start - c
            out[name][1] += 1
        return dict(out)

    def setup_seconds(self) -> float:
        """Summed (not self) time of the patch and problem builders."""
        return sum(e - s for n, s, e, _, _ in self.spans if n in SETUP_LAYERS)

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "raised": r, "run": self.run_id}
            for n, s, e, p, r in self.spans
        ]
