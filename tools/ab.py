"""In-process interleaved A/B of two checkouts on one perfbench workload.

Usage, from the repository root:

    python3 tools/ab.py lattice-projected /path/to/parent/checkout . --rounds 20

Both checkouts' ``extphase`` packages and ``perfbench/workloads.py`` are
imported into this one process, each side under its own module objects, and
each round runs one rep of the named workload on each side, in alternating
order, so that both sides see the same swings of the host.  A side's speed
in a round is its rep's steps per second; the round's ratio is B's speed
over A's.  The script prints each round, then the median ratio, the
quartiles of the round ratios, how many rounds each side won and the
two-sided sign-test p-value of that split, and checks that both sides' reps
pass their own checks and end on the same state bit for bit.  It reads the
workloads as they are and edits nothing.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
from pathlib import Path

from checkout import load  # before NumPy: it sets the BLAS thread count


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def sign_test(k: int, n: int) -> float:
    """Two-sided p-value of ``k`` wins in ``n`` rounds if neither side is faster:
    the chance of a split at least as lopsided in ``n`` fair coin tosses."""
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = [load(root, "workloads") for root in (args.a, args.b)]
    if any(args.workload not in side.WORKLOADS for side in sides):
        print(f"ab: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        runners = [
            side.Runner(side.WORKLOADS[args.workload], args.seed, Path(tmp) / label)
            for side, label in zip(sides, "ab")
        ]
        for runner, label in zip(runners, "ab"):
            (Path(tmp) / label).mkdir()
            runner.rep()  # warm-up, untimed
        ratios, states = [], set()
        for k in range(args.rounds):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            speeds = [0.0, 0.0]
            for i in order:
                rep = runners[i].rep()
                for problem in rep.problems:  # a failed rep has no speed to compare
                    print(f"check failed: {'AB'[i]}: {problem}", file=sys.stderr)
                if rep.problems:
                    return 1
                speeds[i] = rep.steps / rep.seconds
                states.add(rep.state.tobytes())
            ratios.append(speeds[1] / speeds[0])
            print(f"round {k + 1:3d}: A {speeds[0]:10.1f}  B {speeds[1]:10.1f} steps/s  "
                  f"B/A {ratios[-1]:.4f}")
    b_won, a_won = sum(r > 1.0 for r in ratios), sum(r < 1.0 for r in ratios)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    print(f"{args.workload}: median B/A {median:.4f} over {len(ratios)} rounds, "
          f"quartiles {q1:.4f}-{q3:.4f}; B faster in {b_won}, A faster in {a_won}, "
          f"sign test p = {sign_test(b_won, b_won + a_won):.3g}")
    if len(states) != 1:
        print("final states differ between the sides or between reps", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
