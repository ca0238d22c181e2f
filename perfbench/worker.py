"""One benchmark call in a fresh process: ``igacontact.cli.main(argv)``.

Usage: worker.py ROOT RESULT_JSON RUN_ID {plain,traced} -- ARGV...

The set-up builders are always wrapped, so that ``setup_s`` is measured
on plain calls too; ``traced`` wraps every layer target and writes all
spans next to RESULT_JSON when the call ends.  Exit code 3 means the
package could not be imported from ROOT/src.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    root, result_path, run_id, mode = argv[:4]
    cli_argv = argv[argv.index("--") + 1 :]
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import igacontact.cli
    except ImportError:
        traceback.print_exc()
        return 3
    if not Path(igacontact.cli.__file__).resolve().is_relative_to(src):
        print(f"igacontact imported from outside {src}", file=sys.stderr)
        return 3

    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install(full=mode == "traced")
    result: dict = {"env": _environment(), "missing_targets": tracer.missing}
    error = None
    rc = None
    start = time.perf_counter()
    try:
        rc = igacontact.cli.main(cli_argv)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    result.update(
        rc=rc,
        error=error,
        wall_s=wall,
        setup_s=tracer.setup_seconds(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if mode == "traced":
        result["layers"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
        spans_path = Path(result_path).with_name("spans.json")
        spans_path.write_text(json.dumps(tracer.span_records()))
    Path(result_path).write_text(json.dumps(result))
    return 0 if rc == 0 and error is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
