"""Command-line benchmark driver.

Subcommands mirror the benchmark ids; options may also come from a flat
``key=value`` config file (command-line flags win).  Exit codes: 0 on
success, 1 on solver failure, 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import sys

from .benchmarks import (
    BENCHMARKS,
    ConfigError,
    RunConfig,
    run_benchmark,
    run_infsup,
)
from .solver import SolverError

_USAGE = (
    "usage: iga-contact [--config FILE] {hertz2d,hertz3d,hertz2d-large,"
    "hertz2d-large-dirichlet,infsup} [options]\n"
    "options: --pressure P --displacement U --degree P --levels N "
    "--grading SF,LF --base-spans N,N[,N] --load-steps N --out DIR"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iga-contact",
        description="NURBS contact benchmarks against a rigid plane",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="benchmark")
    for name in BENCHMARKS:
        p = sub.add_parser(name)
        p.add_argument("--pressure", type=float)
        p.add_argument("--displacement", type=float)
        p.add_argument("--degree", type=int)
        p.add_argument("--levels", type=int)
        p.add_argument("--grading", type=str, help="span_fraction,length_fraction")
        p.add_argument("--base-spans", type=str, dest="base_spans")
        p.add_argument(
            "--load-steps", type=int, dest="load_steps",
            help="load steps of a Newton level whose whole-load step fails; also the step a halved step recovers to",
        )
        p.add_argument("--young", type=float)
        p.add_argument("--poisson", type=float)
        p.add_argument("--radius", type=float)
        p.add_argument("--out", type=str)
    return parser


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def build_run_config(benchmark: str, options: dict) -> RunConfig:
    kwargs: dict = {"benchmark": benchmark}
    mapping = {
        "pressure": float,
        "displacement": float,
        "degree": int,
        "levels": int,
        "young": float,
        "poisson": float,
        "radius": float,
        "out": str,
        "grading": _floats,
        "base_spans": _ints,
        "load_steps": int,
    }
    unknown = sorted(set(options) - set(mapping))
    if unknown:
        raise ConfigError(f"unknown option(s) {', '.join(unknown)}; known: {', '.join(mapping)}")
    for key, conv in mapping.items():
        value = options.get(key)
        if value is None:
            continue
        kwargs["n_load_steps" if key == "load_steps" else key] = conv(value)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    options: dict = {}
    try:
        if args.config:
            options.update(parse_config_file(args.config))
        from_file = options.pop("benchmark", None)
        benchmark = args.benchmark or from_file
        if benchmark is None:
            print(_USAGE, file=sys.stderr)
            return 2
        cli_options = {
            k: v
            for k, v in vars(args).items()
            if k not in ("config", "benchmark") and v is not None
        }
        options.update(cli_options)
        config = build_run_config(benchmark, options)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 2
    try:
        if config.benchmark == "infsup":
            result = run_infsup(config)
            for h, beta in result.rows:
                print(f"h={h:.6e} beta={beta:.6e}")
            if result.ratio is not None:
                print(f"beta ratio max/min = {result.ratio:.4f}")
        else:
            result = run_benchmark(config)
            for (h, l2, h1) in result.disp_rows:
                print(f"h={h:.6e} L2={l2:.6e} H1={h1:.6e}")
            for key, value in result.rates.items():
                print(f"{key} = {value:.4f}")
            print(f"outputs written to {config.out}")
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
