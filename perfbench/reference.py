"""A fixed reference kernel that gauges the machine's speed during a run.

The benchmark may share a few cores of a host whose speed moves, for the
program and any other code alike: on a two-core host, by up to a factor of
1.9 over minutes.  A run
therefore alternates its timed work with this kernel and scales each timing
by the kernel's time next to it, so that the metrics read as if the machine
ran the kernel in ``NOMINAL_S``.  The kernel imports nothing from extphase:
a change to the program leaves it as it is.

Its work is the kind the workloads do: Python-level calls and arithmetic
around NumPy operations on small arrays, a small matrix product (BLAS) and
a pairwise difference table.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 1500
# A round figure near the kernel's median time on the machine that wrote
# perfbench/baseline.json (two cores of an x86-64 host).
NOMINAL_S = 0.020

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((10, 10))
_VECTOR = _rng.standard_normal(10)
_SMALL = _rng.standard_normal(5)


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(REPEATS):
        product = _MATRIX @ _VECTOR
        wave = np.sin(_SMALL) * _SMALL + np.cos(_SMALL)
        pairs = np.subtract.outer(_VECTOR, _VECTOR)
        squares = (pairs * pairs).sum(axis=1)
        total += float(product[0]) + float(wave[1]) + float(squares[2])
        for k in range(10):
            total += k * 0.5
    if not np.isfinite(total):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return time.perf_counter() - start
