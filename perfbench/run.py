"""extphase benchmark: one closed-loop caller in one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload lattice-projected --seed 1 --seconds 10 --trace 0

The run repeats fixed-size reps of the workload until ``--seconds`` have
passed, checks every rep, and prints as its last line one JSON object with
``correct``, ``attempted`` and ``failed`` (one op is one step) and the
metrics named in ``BENCHMARK.json``: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  A traced run alternates untraced and
traced reps, so that it can report the tracing overhead and check that
tracing changes no result, and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up probes, spread evenly over the run so that the median sees the
# machine's speed swings the way the reps do.
SETUP_SAMPLES = 21
# The vortex gradient's matrix products go through BLAS; one caller, one
# thread.  Set before NumPy is first imported.
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"

# It loads NumPy, before the memory baseline is taken.
from reference import NOMINAL_S, reference_seconds  # noqa: E402

# NumPy is imported before the clock starts: its import time is not
# extphase's and varies by a fifth from run to run.
SETUP_PROBE = """\
import sys, time
import numpy
start = time.perf_counter()
import workloads
workloads.first_step(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Time from ``import extphase`` in a fresh interpreter through the
    workload's first step."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, seconds: float, tracer=None, probe=None):
    """Reps until the deadline; with a tracer, untraced and traced alternate.
    With a probe, ``SETUP_SAMPLES`` calls of it are spread over the run.
    Every rep and probe sits between two passes of the reference kernel, and
    the mean of those two is its reference time.

    Returns ``(untraced, traced, probes)``, probes as ``(seconds,
    reference_s)`` pairs.  Every rep must repeat the first one's counts and
    final state bit for bit.
    """
    untraced, traced, probes = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    wanted = SETUP_SAMPLES if probe is not None else 0
    before = reference_seconds()
    while True:
        if len(probes) < wanted * (time.perf_counter() - start) / seconds:
            probe_s = probe()
            after = reference_seconds()
            probes.append((probe_s, (before + after) / 2))
        else:
            if tracer is not None and len(traced) < len(untraced):
                tracer.run = len(traced)
                rep, target = runner.rep(tracer), traced
            else:
                rep, target = runner.rep(), untraced
            after = reference_seconds()
            rep.reference_s = (before + after) / 2
            target.append(rep)
        before = after
        if time.perf_counter() >= deadline and len(probes) >= wanted and (tracer is None or traced):
            break
    reference = untraced[0]
    for rep in untraced[1:] + traced:
        if (rep.grads, rep.passes, rep.steps) != (reference.grads, reference.passes, reference.steps):
            rep.problems.append("counts differ from the first rep")
        elif rep.state is None or reference.state is None or (
            rep.state.tobytes() != reference.state.tobytes()
        ):
            rep.problems.append("final state differs from the first rep")
    return untraced, traced, probes


def end_to_end(reps, steps: int, probes, rss_before_mb: float) -> dict:
    """The end-to-end metrics; times are scaled to the reference machine."""
    first = reps[0]
    return {
        "norm_steps_per_s": statistics.median(
            r.steps / r.seconds * r.reference_s / NOMINAL_S for r in reps
        ),
        "grads_per_step": first.grads / steps,
        "passes_per_step": first.passes / steps,
        "setup_s": statistics.median(s * NOMINAL_S / ref for s, ref in probes),
        "peak_rss_mb": peak_rss_mb() - rss_before_mb,
    }


def as_measured(reps, probes) -> dict:
    """The unscaled timings, printed beside the metrics."""
    measured = {
        "steps_per_s": statistics.median(r.steps / r.seconds for r in reps),
        "reference_ms": 1e3 * statistics.median(r.reference_s for r in reps),
    }
    if probes:
        measured["setup_s"] = statistics.median(s for s, _ in probes)
    return measured


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extphase" / "__init__.py").is_file():
        print(f"perfbench: no extphase package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rss_before_mb = peak_rss_mb()
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    runner = workloads.Runner(workloads.WORKLOADS[args.workload], args.seed, OUT_DIR)

    if args.trace:
        tracer = Tracer()
        untraced, traced, probes = measure(runner, args.seconds, tracer)
        reps = untraced + traced
        values = layers.per_layer(tracer, untraced, traced)
        tracer.write(OUT_DIR / f"trace-{args.workload}.csv")
        section = declared["per_layer"]
    else:
        untraced, _, probes = measure(
            runner, args.seconds, probe=lambda: setup_probe(args.workload, args.seed)
        )
        reps = untraced
        values = end_to_end(reps, runner.workload.steps, probes, rss_before_mb)
        section = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    problems = [p for rep in reps for p in rep.problems]
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in as_measured(untraced, probes).items():
        print(f"{args.workload} as measured: {name} = {value:.6g}")
    attempted = sum(runner.workload.steps for _ in reps)
    failed = sum(runner.workload.steps for rep in reps if rep.problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
