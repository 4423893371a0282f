"""What the timing tools share: one BLAS thread, and a checkout's modules
imported into one process under module objects of their own.

Import this module before NumPy: it sets the thread counts that NumPy's
BLAS reads when it is first imported.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

# The vortex gradient's matrix products go through BLAS; one thread, as in
# perfbench/run.py.
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"

# The top-level modules a checkout brings: its package and perfbench's.
OWN_MODULES = ("extphase", "workloads", "tracing", "reference")


def _purge() -> None:
    for name in [name for name in sys.modules if name.split(".")[0] in OWN_MODULES]:
        del sys.modules[name]


def load(root: Path, module: str):
    """``module`` (``extphase``, or ``workloads`` from ``perfbench/``) of the
    checkout at ``root``, importing that checkout's ``extphase``; the
    modules leave ``sys.modules`` afterwards, so the next checkout imports
    its own."""
    _purge()
    root = root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        return importlib.import_module(module)
    finally:
        del sys.path[:2]
        _purge()
