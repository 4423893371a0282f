"""Command-line front end: ``run``, ``bench``, and ``converge``.

Exit codes: 0 success, 2 solver non-convergence, 3 singular configuration
(vortex collision), 4 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .errors import ConfigError, NonConvergence, VortexCollision
from .harness import (
    PRESETS,
    ExperimentSpec,
    benchmark,
    convergence_study,
    emit_benchmark_csv,
    emit_csv,
    emit_svg,
    load_config,
    preset,
    run_experiment,
)

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_SINGULAR = 3
EXIT_CONFIG = 4


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), help="built-in configuration")
    parser.add_argument("--config", help="flat JSON configuration file")
    parser.add_argument("--method", help="pihajoki | tao | semiexplicit | gl2 | gl4 | gl6")
    parser.add_argument("--order", type=int, help="2, 4, or 6 (extended-space methods)")
    parser.add_argument("--composition", help="triple_jump | suzuki | yoshida")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--t-end", dest="t_end", type=float, help="integration horizon")
    parser.add_argument("--omega", type=float, help="copy-coupling strength")
    parser.add_argument("--tol", type=float, help="nonlinear solve tolerance")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="solver iteration cap")
    parser.add_argument("--solver", help="simplified_newton | broyden")


def _spec_from_args(args) -> ExperimentSpec:
    if bool(args.preset) == bool(args.config):
        raise ConfigError("exactly one of --preset or --config is required")
    spec = preset(args.preset) if args.preset else load_config(args.config)
    # every option named after a spec field overrides it
    names = [f.name for f in fields(ExperimentSpec)]
    overrides = {key: getattr(args, key) for key in names if getattr(args, key, None) is not None}
    if overrides.get("method") in ("gl2", "gl4", "gl6"):
        overrides.setdefault("composition", None)
        overrides.setdefault("order", int(overrides["method"][2]))
    return replace(spec, **overrides)


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    record = run_experiment(spec)
    if args.out:
        emit_csv(record, args.out)
    if args.svg:
        emit_svg(record, args.svg)
    worst = {name: float(series.max()) for name, series in record.drifts.items()}
    drift_text = ", ".join(f"{k}={v:.3e}" for k, v in worst.items()) or "none"
    print(
        f"{spec.method_label} on {spec.system}: {record.total_steps} steps, "
        f"itr_total={record.itr_total}, vf_total={record.vf_total}, "
        f"max drift [{drift_text}]"
    )
    if not record.complete:
        k = record.failed_step
        print(f"run incomplete at step {k} (t={k * spec.dt:g}): {record.failure}", file=sys.stderr)
        return EXIT_NONCONVERGENCE if record.failure_kind == "non_convergence" else EXIT_SINGULAR
    return EXIT_OK


def _cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    row = benchmark(spec, args.reps)
    if args.out:
        emit_benchmark_csv([row], args.out)
    print(
        f"{row['method']}: time={row['time_s']:.4f}s itr_avg={row['itr_avg']:.3f} "
        f"vf_avg={row['vf_avg']:.3f} ({row['converged_steps']}/{row['total_steps']} steps)"
    )
    return EXIT_OK


def _cmd_converge(args) -> int:
    spec = _spec_from_args(args)
    try:
        dts = [float(v) for v in args.dt_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --dt-list: {exc}") from exc
    slope, errors = convergence_study(spec, dts, t_end=args.t_end)
    for dt, err in errors.items():
        print(f"dt={dt:g} error={err:.6e}")
    print(f"slope={slope:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extphase",
        description="Structure-preserving integrators for non-separable Hamiltonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate and record drift series")
    _add_spec_arguments(p_run)
    p_run.add_argument("--out", help="trajectory CSV path")
    p_run.add_argument("--svg", help="drift chart SVG path")
    p_run.add_argument("--stride", dest="record_stride", type=int, help="record every k-th step")
    p_run.add_argument("--record-state", action="store_const", const=True,
                       help="append state columns")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="time the bare stepping loop")
    _add_spec_arguments(p_bench)
    p_bench.add_argument("--reps", type=int, default=1, help="timing repetitions")
    p_bench.add_argument("--out", help="benchmark CSV path")
    p_bench.set_defaults(fn=_cmd_bench)

    p_conv = sub.add_parser("converge", help="estimate the convergence order")
    _add_spec_arguments(p_conv)
    p_conv.add_argument("--dt-list", required=True, help="comma-separated step sizes")
    p_conv.set_defaults(fn=_cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse printed a usage error, or the help
        return EXIT_CONFIG if exc.code else EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except VortexCollision as exc:
        print(f"singular configuration: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
