"""The recorded rows of a run, each state a canonical row ``(2, d)`` whose energy
and invariants are evaluated in chunks; for ``harness.run_experiment``, not public API."""

from __future__ import annotations

import numpy as np

from .errors import VortexCollision
from .hamiltonians import HamiltonianSystem

# Rows a recorded run evaluates its diagnostics on at a time, and rows a writer
# converts to Python scalars at a time: one call per chunk, and the memory of
# one chunk, not of a column.
CHUNK_ROWS = 1024


class Recorder:
    """The recorded rows of one run.

    Each row's step, defect and costs go into preallocated columns when the
    run reaches it, and its state into a canonical row ``(q, p)`` of a
    ``(CHUNK_ROWS, 2, d)`` buffer, which is a slice of the kept states when
    the run keeps them.  The energy and every invariant are evaluated on the
    buffer's rows by one call each per full buffer, and then for the last
    partial one.
    A row whose energy raises :class:`VortexCollision` ends the record: the
    rows before it stay whole, and ``cut`` holds the collision with the
    run's totals as of that row's step.
    """

    def __init__(self, run, system: HamiltonianSystem, invs: list, n_rows: int, keep_states: bool):
        """``run`` is the harness's run object: its ``stats``, ``spent``,
        ``itr_total``, ``counter`` and ``write_z`` describe the last step."""
        self.run, self.system, self.invs = run, system, invs
        self.steps = np.empty(n_rows, dtype=int)
        self.itr = np.empty(n_rows, dtype=int)
        self.vf = np.empty(n_rows, dtype=int)
        self.defect = np.empty(n_rows)
        self.energy = np.empty(n_rows)
        self.values = [np.empty(n_rows) for _ in invs]
        row = (2, system.dim)
        self.states = np.empty((n_rows, *row)) if keep_states else None
        self.buffer = self.states if keep_states else np.empty((min(n_rows, CHUNK_ROWS), *row))
        # itr_total and vf_total after each buffered row's step
        self.tallies = np.empty((min(n_rows, CHUNK_ROWS), 2), dtype=int)
        self.rows = 0  # rows written
        self.done = 0  # rows evaluated
        self.cut = None

    def add(self, k: int) -> bool:
        """Record the run's state after step ``k``; False once the record has
        ended at a collision."""
        run, i = self.run, self.rows
        j = i - self.done
        self.steps[i] = k
        self.defect[i] = run.stats.defect_norm
        self.itr[i] = run.stats.iterations
        self.vf[i] = run.spent
        self.tallies[j] = run.itr_total, run.counter.n_grad
        run.write_z(self.buffer[j])
        self.rows = i + 1
        return j + 1 < CHUNK_ROWS or self.evaluate()

    def evaluate(self) -> bool:
        """Energy and invariants of the buffered rows, under one error state,
        so that overflow reads inf and a bad domain nan; False once the record
        has ended at a collision."""
        lo, hi = self.done, self.rows
        if hi == lo:
            return self.cut is None
        rows = self.buffer[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                self.energy[lo:hi] = self.system.energies(rows)
            except VortexCollision:
                hi = lo + self._first_collision(rows)
            if hi > lo:  # rows before a collision, if any
                for values, (_, inv) in zip(self.values, self.invs):
                    values[lo:hi] = inv.evaluate(rows[: hi - lo])
        self.done = self.rows = hi
        if self.states is not None:
            self.buffer = self.states[hi:]
        return self.cut is None

    def _first_collision(self, rows: np.ndarray) -> int:
        """Evaluate the buffered energies one row at a time up to the first row
        that collides, set ``cut`` from it, and return its index."""
        lo = self.done
        for r in range(len(rows)):
            try:
                self.energy[lo + r] = self.system.energies(rows[r])
            except VortexCollision as exc:
                itr_total, vf_total = self.tallies[r].tolist()
                # kept without its traceback, which would hold the run's frames alive
                self.cut = exc.with_traceback(None), (int(self.steps[lo + r]) - 1, itr_total, vf_total)
                return r
        return len(rows)
