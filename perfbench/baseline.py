"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload it runs ``perfbench/run.py`` once per seed in ``SEEDS``,
untraced, and once per seed in ``TRACED_SEEDS`` with ``--trace 1``, all
sequentially.  It prints, per end-to-end metric, the median and quartiles
over the seeds and the spread (interquartile distance over the median)
against a third of the metric's bound, and with ``--out`` writes the summary
with the machine's facts.  The workloads' reasons are in ``BENCHMARK.json``;
which end-to-end metric each per-layer metric should move is ``MOVES`` in
``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 2, 3]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n{done.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {}
    steady = True
    for workload in (w["name"] for w in declared["workloads"]):
        untraced = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        entry = {"end_to_end": {}, "per_layer": {}}
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in untraced])
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            if flag == "WIDE":
                steady = False
            print(f"{workload:18s} {name:16s} median {stats['median']:12.6g}  "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}) {flag}")
        for name in (m["name"] for m in declared["per_layer"]):
            entry["per_layer"][name] = summary([r["metrics"][name]["value"] for r in traced])
        report[workload] = entry

    if args.out:
        import numpy

        from reference import NOMINAL_S

        args.out.write_text(json.dumps({
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas_threads": 1,
                "reference_nominal_s": NOMINAL_S,
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "seeds": SEEDS,
            "traced_seeds": TRACED_SEEDS,
            "workloads": report,
        }, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady: some spread is over a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
