"""Spans around extphase's layers, recorded from the benchmark's side.

A traced run wraps the system in a :class:`TimingSystem` and replaces, for
its duration only, the module attributes that ``harness``, ``projection``
and ``splitting`` look up at call time.  The library itself is not edited.
Spans are kept in memory as ``(name, start, end, parent, run)`` and written
to one file when the traced run ends; a layer's self time is its span
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager

from extphase import harness, invariants, projection, splitting
from extphase.hamiltonians import HamiltonianSystem

# (owner, attribute, span name) for every call-time lookup that is wrapped.
LAYER_ATTRIBUTES = (
    (harness, "benchmark", "harness"),
    (harness, "run_experiment", "harness"),
    (harness, "emit_csv", "harness.emit_csv"),
    (harness, "emit_svg", "harness.emit_svg"),
    (harness, "semiexplicit_step", "projection.step"),
    (projection, "solve_mu", "projection.solve"),
    (harness, "gl_step", "implicit_rk.step"),
    (harness, "pihajoki_step", "splitting.step"),
    (harness, "tao_step", "splitting.step"),
    (splitting, "coupling_flow", "splitting.coupling_flow"),
    (invariants.LinearInvariant, "evaluate", "invariants.evaluate"),
    (invariants.QuadraticInvariant, "evaluate", "invariants.evaluate"),
)

ROOT = "rep"


class Tracer:
    """In-memory span store; ``run`` tags every span with the current rep."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layers(self) -> dict[str, dict]:
        """Per span name: call count and summed self time in seconds."""
        out: dict[str, dict] = {}
        for name, own in zip(self.names, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def write(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,name,start_s,end_s,parent\n")
            for run, name, start, end, parent in zip(
                self.runs, self.names, self.starts, self.ends, self.parents
            ):
                fh.write(f"{run},{name},{start - origin!r},{end - origin!r},{parent}\n")


class TimingSystem(HamiltonianSystem):
    """Records a span around every energy and gradient call of ``base``.

    Chains the way :class:`extphase.CountingSystem` does: counting wrappers
    stacked on top still see exactly one ``grad`` per gradient evaluation.
    """

    def __init__(self, base: HamiltonianSystem, tracer: Tracer):
        self.base = base
        self.tracer = tracer
        self.dim = base.dim

    def energy(self, q, p) -> float:
        index = self.tracer.open("hamiltonians.energy")
        try:
            return self.base.energy(q, p)
        finally:
            self.tracer.close(index)

    def grad(self, q, p):
        index = self.tracer.open("hamiltonians.grad")
        try:
            return self.base.grad(q, p)
        finally:
            self.tracer.close(index)


@contextmanager
def patched(owner, attribute: str, make_wrapper):
    """Replace ``owner.attribute`` by ``make_wrapper(original)`` for a block."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def traced_layers(tracer: Tracer):
    """Put spans around every layer boundary in ``LAYER_ATTRIBUTES``."""

    def timed_build(build):
        def build_system(spec):
            system, z0, invs = build(spec)
            return TimingSystem(system, tracer), z0, invs

        return build_system

    with ExitStack() as stack:
        for owner, attribute, name in LAYER_ATTRIBUTES:
            stack.enter_context(
                patched(owner, attribute, lambda fn, name=name: tracer.wrap(name, fn))
            )
        stack.enter_context(patched(harness, "build_system", timed_build))
        yield
