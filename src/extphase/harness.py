"""Experiment runner: presets, trajectory records, benchmarks, convergence
studies, and flat-file emission (CSV and simple SVG line charts).

A run is described by a flat :class:`ExperimentSpec` (always expressible as
a flat JSON document).  The doubled-space explicit methods integrate the
embedded state and report invariants evaluated on the ``(q, p)`` block
together with the copy-mismatch norm; the projected and Runge-Kutta methods
integrate in the original phase space directly.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import invariants as inv_mod
from .core import COPIES, defect_norm, embed, halves, join, row_pairs
from .errors import (
    ConfigError, DimensionMismatch, NonConvergence, VortexCollision, _check_fields, _real,
)
from .hamiltonians import (
    EvalCounter,
    HamiltonianSystem,
    VortexConfig,
    canonical_from_planar,
    make_nls,
    make_testcase,
    make_vortices,
)
from .implicit_rk import gl_step, gl_tableau
from .projection import SolverConfig, StepStats, semiexplicit_step
from .recording import CHUNK_ROWS, Recorder
from .splitting import (
    COMPOSITIONS, TaoParams, _rotation_angle, composed_step, pihajoki_step, tao_step,
)

__all__ = [
    "PRESETS", "ExperimentSpec", "TrajectoryRecord", "benchmark", "build_system",
    "convergence_study", "emit_csv", "emit_svg", "final_state", "load_config", "load_csv",
    "make_spec", "preset", "run_experiment",
]

# the order of each Gauss-Legendre method, its number of stages doubled
GAUSS_ORDERS = {"gl2": 2, "gl4": 4, "gl6": 6}
METHODS = ("pihajoki", "tao", "semiexplicit", *GAUSS_ORDERS)
SYSTEMS = ("testcase", "nls", "vortex")
MAX_RECORD_ROWS = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Flat description of one integration run.

    A spec checks itself when it is built, by the constructor or by
    :func:`dataclasses.replace`, and raises :class:`ConfigError` for any
    field or combination of fields that no run accepts.  It checks its
    method by building its step, and its initial data by building its
    system with :func:`build_system`, so coincident initial vortices raise
    :class:`VortexCollision` here.
    """

    system: str = "testcase"
    method: str = "semiexplicit"
    dt: float = 0.1
    t_end: float = 10.0
    order: int = 2
    composition: str | None = None
    omega: float = 10.0
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter
    solver: str = "simplified_newton"  # the only value a spec takes
    warm_start: bool = False
    d: int | None = None
    gammas: tuple | None = None
    positions: tuple | None = None
    q0: tuple | None = None
    p0: tuple | None = None
    record_stride: int | None = None
    record_state: bool = False
    name: str = "experiment"

    def __post_init__(self) -> None:
        _check_fields(self)
        blocks = [b for b in (self.gammas, self.q0, self.p0) if b is not None]
        blocks += self.positions or ()
        if not all(isinstance(b, tuple) and all(_real(v) and math.isfinite(v) for v in b)
                   for b in blocks):
            raise ConfigError("gammas, positions, q0 and p0 must hold finite numbers")
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}, expected one of {SYSTEMS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ConfigError("t_end must be positive and finite")
        if self.dt > self.t_end * (1.0 + 1e-12):
            raise ConfigError("dt must not exceed t_end")
        self.n_steps  # raises unless t_end is a whole number of dt steps
        _make_step(self)  # the method, its schedule and its solve and coupling settings
        if self.record_stride is not None and self.record_stride < 1:
            raise ConfigError("record_stride must be at least 1")
        build_system(self)  # the initial data must fit the system and evaluate

    @property
    def n_steps(self) -> int:
        """Number of ``dt`` steps to ``t_end``, which must be a whole number."""
        ratio = self.t_end / self.dt
        n = int(round(ratio)) if math.isfinite(ratio) else 0
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-6 * max(self.t_end, 1.0):
            raise ConfigError("t_end must be an integer number of steps")
        return n

    @property
    def method_label(self) -> str:
        return self.method if self.method in GAUSS_ORDERS else f"{self.method}-{self.order}"


PRESETS: dict[str, dict] = {
    # d = 2 closed-form system, long horizon
    "testcase": dict(
        name="testcase",
        system="testcase",
        method="semiexplicit",
        q0=(-1.0, 2.0),
        p0=(1.0, -1.0),
        dt=0.1,
        t_end=1000.0,
        omega=10.0,
        tol=1e-14,
    ),
    # four vortices with mixed-sign circulations
    "vortex4": dict(
        name="vortex4",
        system="vortex",
        method="semiexplicit",
        gammas=(4.0, -3.0, -2.0, 7.0),
        positions=((1.0, 2.0), (-1.5, 1.0), (-3.0, -1.0), (2.0, 0.5)),
        dt=0.05,
        t_end=200.0,
        omega=10.0,
        tol=1e-14,
    ),
    # five-site quartic lattice benchmark
    "nls_bench": dict(
        name="nls_bench",
        system="nls",
        method="semiexplicit",
        d=5,
        q0=(3.0, 0.01, 0.01, 0.01, 0.01),
        p0=(1.0, 0.0, 0.0, 0.0, 0.0),
        dt=1e-3,
        t_end=1000.0,
        omega=100.0,
        tol=1e-10,
    ),
    # ten vortices, long benchmark horizon
    "vortex10": dict(
        name="vortex10",
        system="vortex",
        method="semiexplicit",
        gammas=(-0.5, 0.3, 0.6, 0.7, -0.2, -0.8, -0.9, -0.3, 0.7, -0.6),
        positions=(
            (3.0, -5.0),
            (-10.0, -6.0),
            (6.0, 0.0),
            (9.0, -2.0),
            (0.0, 0.0),
            (7.0, 10.0),
            (-8.0, 2.0),
            (5.0, 9.0),
            (9.0, 0.0),
            (7.0, -1.0),
        ),
        dt=0.1,
        t_end=1000.0,
        omega=7.0,
        tol=1e-10,
    ),
}

_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def preset(name: str, **overrides) -> ExperimentSpec:
    """Named built-in configuration, optionally overridden field by field."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    return make_spec({**PRESETS[name], **overrides})


def make_spec(mapping: dict) -> ExperimentSpec:
    unknown = set(mapping) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    # JSON lists become the spec's tuples; the spec checks what they hold
    return ExperimentSpec(**{key: _tuples(value) for key, value in mapping.items()})


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def load_config(path) -> ExperimentSpec:
    """Read a flat JSON key-value document; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a flat JSON object")
    return make_spec(data)


def build_system(spec: ExperimentSpec):
    """Instantiate the system, initial state, and its named invariants; raise
    :class:`ConfigError` if the initial data does not fit or evaluate there."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            q0, p0 = spec.q0, spec.p0
            if spec.system == "testcase":
                system = make_testcase()
                default = PRESETS["testcase"]  # its state for a block that is None, not empty
                q0, p0 = default["q0"] if q0 is None else q0, default["p0"] if p0 is None else p0
                named = {"L": inv_mod.testcase_L, "Q": inv_mod.testcase_Q}
            elif spec.system == "nls":
                if spec.d is None:
                    raise ConfigError("no lattice dimension d")
                system = make_nls(spec.d)
                named = {"mass": partial(inv_mod.nls_mass, spec.d)}
            else:
                config = VortexConfig(spec.gammas, spec.positions)
                system = make_vortices(config)
                if config.initial_positions is not None:
                    q0, p0 = halves(canonical_from_planar(config, config.initial_positions))
                named = {
                    "L_a": partial(inv_mod.vortex_linear_impulse_x, config.circulations),
                    "L_b": partial(inv_mod.vortex_linear_impulse_y, config.circulations),
                    "Q_kappa": partial(inv_mod.vortex_angular_impulse, config.circulations),
                }
            if q0 is None or p0 is None:
                raise ConfigError("no initial blocks q0 and p0 (or vortex positions)")
            z0 = join(q0, p0)
            system.energy(*halves(z0, system.dim))  # z0's length, before any d x d block exists
            invs = [(name, make()) for name, make in named.items()]
            [inv.evaluate(z0) for _, inv in invs]  # only to see they evaluate
    # math's range and domain errors too; a ConfigError is a ValueError
    except (ArithmeticError, ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"initial data the {spec.system} system cannot take: {exc}") from exc
    return system, z0, invs


def _make_step(spec: ExperimentSpec):
    """Build the run's ``step(system, dt, state) -> (state, StepStats)``; raise
    :class:`ConfigError` for method, schedule, solve or coupling settings no run takes.

    Returns ``(step, cost)``: every pass of the step (a projection
    iteration, a Gauss sweep, or one explicit step) costs exactly ``cost``
    gradient evaluations.  The state is the embedded point ``zeta`` for the
    explicit methods and ``z`` otherwise.  This module's step attributes are
    looked up when the run starts or at call time, never at import, so a
    wrapper installed on one of them sees every call of the run.
    """
    if spec.method in GAUSS_ORDERS:  # its own order (or the default 2), uncomposed
        pairs = dict.fromkeys([(2, None), (GAUSS_ORDERS[spec.method], None)])
    else:
        pairs = COMPOSITIONS
    if (spec.order, spec.composition) not in pairs:
        raise ConfigError(f"{spec.method} takes (order, composition) in {list(pairs)}")
    if spec.solver != ExperimentSpec.solver:  # its default, the one projection solve
        raise ConfigError(f"solver must be {ExperimentSpec.solver!r}, not {spec.solver!r}")
    cfg = SolverConfig(spec.tol, spec.max_iter)
    params = TaoParams(spec.omega)
    if spec.method in GAUSS_ORDERS:
        tableau = gl_tableau(GAUSS_ORDERS[spec.method])
        return partial(gl_step, tableau=tableau, cfg=cfg), tableau.stages

    scheme = COMPOSITIONS[spec.order, spec.composition]
    if spec.method == "tao":
        [_rotation_angle(spec.omega, g * spec.dt) for g in scheme.coefficients]
        base = partial(tao_step, params=params)
        cost = (4 if spec.omega != 0.0 else 3) * len(scheme)
    else:
        base, cost = pihajoki_step, 3 * len(scheme)
    inner = composed_step(base, scheme)

    if spec.method == "semiexplicit":
        mu_prev = None

        def step(system, dt, z):
            nonlocal mu_prev
            mu0 = mu_prev if spec.warm_start else None
            z, stats = semiexplicit_step(system, inner, dt, z, cfg, mu0=mu0)
            mu_prev = stats.mu
            return z, stats

        return step, cost

    def step(system, dt, zeta):
        try:
            # a state near float range overflows in the defect norm too
            with np.errstate(over="ignore", invalid="ignore"):
                zeta = inner(system, dt, zeta)
                defect = defect_norm(zeta)
            # x - q is inf or nan where either copy is, so a finite defect means a finite state
            finite = math.isfinite(defect) or np.isfinite(zeta).all()
        except (ArithmeticError, ValueError):  # math's range and domain errors
            finite = False
        if not finite:
            raise NonConvergence("state is no longer finite; the copies separated")
        # an explicit step is one pass of fixed cost, with no iterations
        return zeta, StepStats(0, 0.0, defect_norm=defect)

    return step, cost


class _Run:
    """One run, stepped by iterating it: each iteration takes step ``k``, checks
    its gradient cost and yields ``k``.  ``stats`` and ``spent`` are the last
    step's (zero before the first), ``itr_total`` sums the steps' iterations,
    and a step that raises leaves ``k`` at its own number."""

    def __init__(self, spec: ExperimentSpec, system: HamiltonianSystem, z0: np.ndarray):
        self.spec = spec
        self.counter = EvalCounter()
        self.system = system.with_counter(self.counter)
        self.extended = spec.method in ("pihajoki", "tao")
        self._step, self.cost_per_pass = _make_step(spec)
        self.state = embed(z0) if self.extended else z0
        self.k = 0
        self.itr_total = 0
        self.stats = StepStats(0, 0.0)
        self.spent = 0

    def write_z(self, out: np.ndarray) -> np.ndarray:
        """Write the original-space state after step ``k`` into the canonical
        row ``out`` of shape ``(2, d)`` and return it; for the explicit
        methods that is the first copy ``(q, p)``."""
        out[...] = row_pairs(self.state, COPIES)[0] if self.extended else self.state.reshape(2, -1)
        return out

    def __iter__(self):
        for self.k in range(1, self.spec.n_steps + 1):
            before = self.counter.n_grad
            try:
                self.state, self.stats = self._step(self.system, self.spec.dt, self.state)
            except NonConvergence as exc:  # its passes were paid for, so they count
                self.itr_total += exc.iterations
                raise
            self.spent = self.counter.n_grad - before
            expected = self.cost_per_pass * max(self.stats.iterations, 1)  # explicit: one pass
            if self.spent != expected:
                raise AssertionError(f"cost accounting violated: spent {self.spent} "
                                     f"gradient evaluations, expected {expected}")
            self.itr_total += self.stats.iterations
            yield self.k


@dataclass
class TrajectoryRecord:
    """Recorded series of one run plus cumulative cost accounting."""

    spec: ExperimentSpec
    invariant_names: list
    steps: np.ndarray
    times: np.ndarray
    defect: np.ndarray
    energy_err: np.ndarray
    drifts: dict
    itr: np.ndarray
    vf: np.ndarray
    states: np.ndarray | None
    total_steps: int
    itr_total: int
    vf_total: int
    # the raised error itself, so its best iterate, residual and iterations stay readable
    failure: NonConvergence | VortexCollision | None = None

    @property
    def rows(self) -> int:
        return self.steps.size

    @property
    def complete(self) -> bool:
        return self.failure is None

    @property
    def failed_step(self) -> int | None:
        """Number of the step an incomplete run failed at, ``None`` if complete."""
        return None if self.failure is None else self.total_steps + 1

    @property
    def failure_kind(self) -> str | None:
        """``"non_convergence"`` or ``"collision"`` for an incomplete run."""
        if self.failure is None:
            return None
        return "non_convergence" if isinstance(self.failure, NonConvergence) else "collision"


def run_experiment(spec: ExperimentSpec) -> TrajectoryRecord:
    """Integrate from 0 to ``t_end`` recording defect, energy error, and
    invariant drift at strided steps.

    Solver failures and vortex collisions do not raise: the partial record
    is returned flagged incomplete with the raised error attached.  The
    energy and invariants are evaluated ``CHUNK_ROWS`` rows at a time.
    """
    system, z0, invs = build_system(spec)
    n_steps = spec.n_steps
    stride = spec.record_stride or max(1, math.ceil(n_steps / MAX_RECORD_ROWS))
    run = _Run(spec, system, z0)
    rec = Recorder(run, system, invs, 1 + math.ceil(n_steps / stride), spec.record_state)

    failure = None
    rec.add(0)
    try:
        for k in run:
            if (k % stride == 0 or k == n_steps) and not rec.add(k):
                break
    except (NonConvergence, VortexCollision) as exc:
        # kept without its traceback, which would hold the run's frames alive
        failure = exc.with_traceback(None)
    rec.evaluate()
    total_steps = n_steps if failure is None else run.k - 1
    itr_total, vf_total = run.itr_total, run.counter.n_grad
    if rec.cut is not None:  # a recorded row collided, before any failing step
        failure, (total_steps, itr_total, vf_total) = rec.cut

    n = rec.rows
    steps = rec.steps[:n]
    return TrajectoryRecord(
        spec=spec,
        invariant_names=[name for name, _ in invs],
        steps=steps,
        times=steps * spec.dt,
        defect=rec.defect[:n],
        energy_err=inv_mod._relative_drift(rec.energy[:n]),
        drifts={name: inv_mod._relative_drift(values[:n])
                for (name, _), values in zip(invs, rec.values)},
        itr=rec.itr[:n],
        vf=rec.vf[:n],
        states=None if rec.states is None else rec.states[:n].reshape(n, 2 * system.dim),
        total_steps=total_steps,
        itr_total=itr_total,
        vf_total=vf_total,
        failure=failure,
    )


def benchmark(spec: ExperimentSpec, repetitions: int) -> dict:
    """Wall-clock the bare stepping loop, averaged over repetitions.

    Diagnostics (energy and invariant evaluation, record assembly) are kept
    outside the timed region; only stepping and the solves inside it are
    measured on a monotonic clock.
    """
    whole = isinstance(repetitions, numbers.Integral) and not isinstance(repetitions, bool)
    if not whole or repetitions < 1:
        raise ConfigError(f"repetitions must be a whole number, at least 1: {repetitions!r}")
    system, z0, _ = build_system(spec)
    n_steps = spec.n_steps
    elapsed = []
    for _ in range(repetitions):
        run = _Run(spec, system, z0)
        start = time.perf_counter()
        for _ in run:
            pass
        elapsed.append(time.perf_counter() - start)
    return {
        "method": spec.method_label,
        "order": GAUSS_ORDERS.get(spec.method, spec.order),
        "dt": spec.dt,
        "t_end": spec.t_end,
        "tol": spec.tol,
        "time_s": sum(elapsed) / len(elapsed),
        "itr_avg": run.itr_total / n_steps,
        "vf_avg": run.counter.n_grad / n_steps,
        # every step taken converged: a step that does not raises
        "converged_steps": run.k,
        "total_steps": n_steps,
        # exact integer tallies, handy for cost-identity checks
        "itr_total": run.itr_total,
        "vf_total": run.counter.n_grad,
    }


def final_state(spec: ExperimentSpec) -> np.ndarray:
    """Original-space state after integrating to ``t_end`` (no recording)."""
    system, z0, _ = build_system(spec)
    run = _Run(spec, system, z0)
    for _ in run:
        pass
    return run.write_z(np.empty((2, system.dim))).reshape(-1)


def convergence_study(spec: ExperimentSpec, dt_list):
    """Least-squares order estimate from final-state errors over a dt sweep to ``spec.t_end``.

    Requires at least four distinct step sizes in geometric progression.  The
    reference solution is a 3-stage Gauss run at ``min(dt)/20``, solved to ``1e-14``.
    Returns ``(slope, errors)`` with ``errors`` mapping dt to the Euclidean
    final-state error.
    """
    dts = sorted((float(v) for v in dt_list), reverse=True)
    specs = [replace(spec, dt=dt) for dt in dts]  # each checked before any run
    if len(dts) < 4:
        raise ConfigError("need at least four step sizes")
    if len(set(dts)) < len(dts):
        raise ConfigError("step sizes must be distinct")
    ratios = [dts[i] / dts[i + 1] for i in range(len(dts) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ConfigError("step sizes must form a geometric progression")
    ref_spec = replace(
        spec,
        method="gl6",
        order=6,
        composition=None,
        dt=min(dts) / 20.0,
        tol=1e-14,
        max_iter=500,
    )
    z_ref = final_state(ref_spec)
    errors = {s.dt: max(float(np.linalg.norm(final_state(s) - z_ref)), 1e-16) for s in specs}
    slope = float(
        np.polyfit(np.log(list(errors.keys())), np.log(list(errors.values())), 1)[0]
    )
    return slope, errors


# ---------------------------------------------------------------------------
# Flat-file emission


def _scalar_rows(columns):
    """The rows of ``columns`` (arrays or lists) as tuples of Python scalars,
    as far as the shortest column reaches."""
    n = min((len(values) for values in columns), default=0)
    for start in range(0, n, CHUNK_ROWS):
        chunk = [values[start:start + CHUNK_ROWS] for values in columns]
        yield from zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in chunk])


def _csv_lines(columns, specs: dict):
    """Header and rows of ``(name, values)`` columns, formatted by ``specs`` or ``.17g``."""
    yield ",".join(name for name, _ in columns)
    template = ",".join("%" + specs.get(name, ".17g") for name, _ in columns)
    for row in _scalar_rows([values for _, values in columns]):
        yield template % row


def emit_csv(record: TrajectoryRecord, path) -> None:
    """Write the record using the documented column schema, 17 significant
    digits, `,` separator, `.` decimal."""
    columns = [("step", record.steps), ("t", record.times), ("defect_norm", record.defect),
               ("energy_rel_err", record.energy_err)]
    columns += [(f"{name}_rel_err", record.drifts[name]) for name in record.invariant_names]
    columns += [("itr", record.itr), ("vf_evals", record.vf)]
    if record.states is not None and record.rows:
        q, _ = halves(record.states[0])
        labels = [f"q{i}" for i in range(1, q.size + 1)] + [f"p{i}" for i in range(1, q.size + 1)]
        columns += zip(labels, record.states.T)
    _write_lines(path, _csv_lines(columns, {"step": "d", "itr": "d", "vf_evals": "d"}))


def emit_benchmark_csv(rows: list, path) -> None:
    keys = ("method", "order", "dt", "t_end", "tol", "time_s", "itr_avg", "vf_avg",
            "converged_steps", "total_steps")
    specs = {"method": "s", "order": "d", "converged_steps": "d", "total_steps": "d"}
    _write_lines(path, _csv_lines([(key, [row[key] for row in rows]) for key in keys], specs))


def load_csv(path) -> dict:
    """Parse a CSV written by :func:`emit_csv` into float column arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header == [""]:  # an empty file, or an empty first line
                raise ConfigError("no header line")
            start = fh.tell()
            table = np.empty((0, len(header)))  # a header-only file, which loadtxt warns on
            if fh.readline().strip():
                fh.seek(start)
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not a table of numbers
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return dict(zip(header, table.T))


def emit_svg(record: TrajectoryRecord, path) -> None:
    """Render defect and per-invariant drift panels with log-scale y axes.

    Zero and non-finite values cannot be shown on a log axis and are
    omitted from the polylines (the CSV keeps them).
    """
    _write_lines(path, _svg_lines(record))


def _svg_lines(record: TrajectoryRecord):
    ts = record.times
    panels = [("defect", record.defect)]
    panels += [(f"{name} drift", record.drifts[name]) for name in record.invariant_names]
    width, height, margin = 360, 280, 45
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * len(panels)}" '
        f'height="{height}" font-family="sans-serif" font-size="11">'
    )
    for idx, (title, values) in enumerate(panels):
        x0 = idx * width + margin
        y0 = margin
        plot_w = width - 2 * margin
        plot_h = height - 2 * margin
        keep = np.isfinite(values) & (values > 0.0)
        yield (
            f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="black"/>'
        )
        yield f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 - 8}" text-anchor="middle">{title}</text>'
        if keep.any():
            logv = np.log10(values[keep])
            tk = ts[keep]
            lo, hi = float(logv.min()), float(logv.max())
            if hi - lo < 1e-12:
                lo, hi = lo - 1.0, hi + 1.0
            t_lo, t_hi = float(ts.min()), float(ts.max())
            t_span = (t_hi - t_lo) or 1.0
            xs = x0 + (tk - t_lo) / t_span * plot_w
            ys = y0 + (hi - logv) / (hi - lo) * plot_h
            points = " ".join(["%.2f,%.2f" % xy for xy in _scalar_rows((xs, ys))])
            yield f'<polyline points="{points}" fill="none" stroke="#1f77b4"/>'
            yield f'<text x="{x0 - 6}" y="{y0 + 10}" text-anchor="end">1e{hi:.1f}</text>'
            yield f'<text x="{x0 - 6}" y="{y0 + plot_h}" text-anchor="end">1e{lo:.1f}</text>'
        else:
            yield (
                f'<text x="{x0 + plot_w / 2:.1f}" y="{y0 + plot_h / 2:.1f}" '
                'text-anchor="middle" fill="#777">all values zero</text>'
            )
        yield f'<text x="{x0 + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle">t</text>'
    yield "</svg>"


def _write_lines(path, lines) -> None:
    """Write ``lines`` to ``path`` one at a time, each ending in a newline."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
