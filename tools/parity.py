"""Bitwise parity of extphase's results between two source trees.

Usage, from the repository root:

    python3 tools/parity.py dump src /tmp/new.json
    python3 tools/parity.py dump /path/to/other/checkout/src /tmp/old.json
    python3 tools/parity.py compare /tmp/old.json /tmp/new.json

``dump`` imports ``extphase`` from the given source directory and writes
one JSON object of named entries.  A tree from before invariants took
canonical rows ``(..., 2, d)`` (when ``evaluate`` took a ``(B, 2d)``
stack) is dumped with its own copy of this tool.  It covers every built-in preset under
every method configuration: a 20-step run recording every step with its
state, ``drift_series`` over those states with each of the preset's named
invariants, the SHA-256 of that run's CSV and SVG files, ``final_state``,
and ``benchmark``'s row without its timing.  It pins the system's
interface, ``grad``, the row kernel ``fields``, ``energy`` and
``energies``, and each named invariant of each preset's system, and of the
one- and two-site lattices, at 20 seeded points each: normal draws at
three scales, signed zeros, and draws mixing in infinities, nan,
subnormals and ``1e150``; a point a kernel refuses records its error.
``fields`` is pinned at every point, one ``(2, d)`` row at a time, and on
one stack of each system's six finite points, the normal draws, so the
kernel is judged on more than one row.  The energy and the invariants are
pinned per point and on its one canonical row ``(1, 2, d)`` (``energies``
and a stacked ``evaluate``).  It also covers 21 runs meant to fail: 18
that do, 12 on ``nls_bench``, 4 on ``testcase`` and a projected and a
Gauss solve stalled at ``max_iter=2``, whose errors are compared as text
and, for a ``NonConvergence``, by what they carry: ``iterations``,
``final_residual`` and the SHA-256 of the ``best`` iterate's bytes; and 3
projected runs at ``tol=1e-16``, which complete by stopping at round-off,
so they pin where such a solve stops; the SHA-256 of the CSV
and SVG files of one full-horizon ``vortex4`` ``tao-2`` run (4,001 rows);
and the bytes ``emit_benchmark_csv`` writes for a fixed row: 2,831
entries.  Floats are stored with ``float.hex``, so equal entries are equal
bit for bit.

``compare`` prints the entries that differ between the two dumps, then the
entries found in only one of them, with a count of each, and exits 1 if
there is any, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

STEPS = 20
SCHEMES = ((2, None), (4, "triple_jump"), (4, "suzuki"), (6, "yoshida"))


def method_configurations() -> list[dict]:
    """The 19 configurations: each explicit method under each composition,
    the projected method also under each start, and Gauss.  The projected
    ones name their solver, as the entry keys always have."""
    configs = []
    for order, composition in SCHEMES:
        scheme = dict(order=order, composition=composition)
        configs += [dict(method="pihajoki", **scheme), dict(method="tao", **scheme)]
        for warm_start in (False, True):
            configs.append(dict(method="semiexplicit", solver="simplified_newton",
                                warm_start=warm_start, **scheme))
    configs += [dict(method=m, order=int(m[2]), composition=None) for m in ("gl2", "gl4", "gl6")]
    return configs


def failure_configurations() -> list[dict]:
    """21 runs meant to fail on a step, each kind of method at least once: 12
    on ``nls_bench``, 4 ``testcase`` blow-ups at large steps, where the
    explicit runs leave the range or domain of ``math``'s functions, a
    projected and a Gauss solve stalled at ``max_iter=2`` on their first
    step, and 3 projected runs at ``tol=1e-16``, which complete by stopping
    at round-off and so pin where such a solve stops."""
    configs = []
    for order, composition in SCHEMES:
        scheme = dict(order=order, composition=composition)
        # the explicit copies separate past float range within six steps
        configs += [
            dict(method="pihajoki", dt=0.1, t_end=100.0, **scheme),
            dict(method="tao", dt=0.1, t_end=100.0, **scheme),
        ]
        # the projection diverges on its first step
        configs.append(
            dict(method="semiexplicit", solver="simplified_newton", dt=0.5, t_end=2.0, **scheme)
        )
    configs = [dict(preset="nls_bench", **config) for config in configs]
    configs += [
        dict(preset="testcase", method="pihajoki", dt=16.0, t_end=3200.0),
        dict(preset="testcase", method="tao", dt=8.0, t_end=1600.0),
        dict(preset="testcase", method="semiexplicit", dt=16.0, t_end=3200.0),
        dict(preset="testcase", method="gl2", dt=16.0, t_end=3200.0),
        dict(preset="testcase", order=4, composition="triple_jump", max_iter=2, t_end=1.0),
        dict(preset="nls_bench", method="gl4", order=4, max_iter=2, t_end=0.1),
        dict(preset="nls_bench", tol=1e-16, t_end=0.1),
        dict(preset="testcase", order=4, composition="triple_jump", tol=1e-16, t_end=1.0),
        dict(preset="vortex4", tol=1e-16, t_end=0.5),
    ]
    return configs


# Entries of the kernel points beside ordinary values: signed zeros, the
# infinities, nan, subnormals, and values whose squares near float range.
EDGE_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e150, -1e150)


def kernel_points(size: int, seed: int) -> list:
    """20 seeded flat points of length ``size``: six normal draws at the
    scales 1e-3, 1 and 1e3, three of signed zeros, and eleven normal draws
    with about half their entries replaced by ``EDGE_VALUES``."""
    rng = np.random.default_rng(seed)
    points = [rng.normal(size=size) * scale for scale in (1e-3, 1.0, 1e3) for _ in range(2)]
    points += [np.zeros(size), -np.zeros(size), np.where(np.arange(size) % 2, -0.0, 0.0)]
    for _ in range(11):
        point = rng.normal(size=size)
        mask = rng.random(size) < 0.5
        point[mask] = rng.choice(EDGE_VALUES, size=int(mask.sum()))
        points.append(point)
    return points


# A benchmark row with every field set, its timing included.
BENCHMARK_ROW = {
    "method": "tao-2", "order": 2, "dt": 0.1, "t_end": 0.30000000000000004, "tol": 1e-14,
    "time_s": 0.0012345678901234567, "itr_avg": 0.0, "vf_avg": 4.0, "converged_steps": 3,
    "total_steps": 3,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _values(array) -> list:
    flat = np.asarray(array).ravel().tolist()
    return [v.hex() if isinstance(v, float) else v for v in flat]


def _record_entries(xp, key: str, record, out: dict, tmp_dir: Path) -> None:
    out[f"{key}/steps"] = _values(record.steps)
    out[f"{key}/times"] = _values(record.times)
    out[f"{key}/defect"] = _values(record.defect)
    out[f"{key}/energy_err"] = _values(record.energy_err)
    for name in record.invariant_names:
        out[f"{key}/drift/{name}"] = _values(record.drifts[name])
    out[f"{key}/itr"] = _values(record.itr)
    out[f"{key}/vf"] = _values(record.vf)
    if record.states is not None:
        out[f"{key}/states"] = _values(record.states)
    out[f"{key}/totals"] = [record.total_steps, record.itr_total, record.vf_total]
    out[f"{key}/complete"] = bool(record.complete)
    out[f"{key}/failure"] = None if record.failure is None else str(record.failure)
    out[f"{key}/failure_kind"] = record.failure_kind
    if isinstance(record.failure, xp.NonConvergence):
        best = record.failure.best
        out[f"{key}/failure_data"] = [
            record.failure.iterations,
            float(record.failure.final_residual).hex(),
            None if best is None else hashlib.sha256(np.asarray(best).tobytes()).hexdigest(),
        ]
    for kind, emit in (("csv", xp.emit_csv), ("svg", xp.emit_svg)):
        path = tmp_dir / f"out.{kind}"
        emit(record, path)
        out[f"{key}/{kind}_sha256"] = _sha256(path)


def _diagnostics(xp, system, invariants) -> list:
    """``(entry, per point, on a stack)`` evaluators of the energy and each
    named invariant."""
    d = system.dim
    energy = ("energy", lambda z: system.energy(*xp.halves(z, d)), system.energies)
    return [energy] + [(name, inv.evaluate, inv.evaluate) for name, inv in invariants]


def _guarded(out: dict, key: str, fn) -> None:
    """Run ``fn``; an error it raises is itself the entry."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - a raised error is a result to compare
        out[f"{key}/raised"] = f"{type(exc).__name__}: {exc}"


def dump(src_dir: str, out_path: str) -> int:
    sys.path.insert(0, str(Path(src_dir).resolve()))
    import extphase as xp

    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        for name in sorted(xp.PRESETS):
            dt = xp.PRESETS[name]["dt"]
            for config in method_configurations():
                key = name + "/" + ",".join(f"{k}={v}" for k, v in config.items())
                spec = xp.preset(
                    name, t_end=STEPS * dt, record_stride=1, record_state=True, **config
                )

                def run(spec=spec, key=key):
                    record = xp.run_experiment(spec)
                    _record_entries(xp, key, record, out, tmp_dir)
                    invariants = xp.build_system(spec)[2]
                    for inv_name, series in xp.drift_series(record.states, invariants).items():
                        out[f"{key}/drift_series/{inv_name}"] = _values(series)
                    out[f"{key}/final_state"] = _values(xp.final_state(spec))
                    row = xp.benchmark(spec, 1)
                    row.pop("time_s")
                    out[f"{key}/benchmark"] = {
                        k: v.hex() if isinstance(v, float) else v for k, v in row.items()
                    }

                _guarded(out, key, run)
        for config in failure_configurations():
            name = config.pop("preset")
            key = f"failure/{name}/" + ",".join(f"{k}={v}" for k, v in config.items())
            spec = xp.preset(name, **config)

            def run_failing(spec=spec, key=key):
                _record_entries(xp, key, xp.run_experiment(spec), out, tmp_dir)

            _guarded(out, key, run_failing)

        def run_full_horizon(key="full/vortex4/method=tao,order=2"):
            record = xp.run_experiment(xp.preset("vortex4", method="tao", record_stride=1))
            out[f"{key}/rows"] = record.rows
            for kind, emit in (("csv", xp.emit_csv), ("svg", xp.emit_svg)):
                emit(record, tmp_dir / f"full.{kind}")
                out[f"{key}/{kind}_sha256"] = _sha256(tmp_dir / f"full.{kind}")

        def write_benchmark_csv(key="emit_benchmark_csv"):
            xp.harness.emit_benchmark_csv([BENCHMARK_ROW], tmp_dir / "bench.csv")
            out[key] = (tmp_dir / "bench.csv").read_text(encoding="utf-8")

        kernels = {}
        for name in sorted(xp.PRESETS):
            system, _, invariants = xp.build_system(xp.preset(name))
            kernels[name] = system, invariants
        # the lattice without its coupling sum, and the smallest one where
        # each neighbour loop runs exactly once
        for d in (1, 2):
            kernels[f"nls_d{d}"] = xp.make_nls(d), [("mass", xp.nls_mass(d))]
        for seed, (name, (system, invariants)) in enumerate(kernels.items()):
            diagnostics = _diagnostics(xp, system, invariants)
            points = kernel_points(2 * system.dim, seed)

            fields_at = [(f"kernel/{name}/stack/fields", np.array(points[:6]).reshape(6, 2, -1))]
            for i, z in enumerate(points):
                key = f"kernel/{name}/{i}"

                def evaluate(system=system, z=z, key=key):
                    with np.errstate(all="ignore"):
                        out[f"{key}/point"] = _values(z)
                        out[f"{key}/grad"] = _values(xp.join(*system.grad(*xp.halves(z))))

                _guarded(out, key, evaluate)
                fields_at.append((f"{key}/fields", z.reshape(2, -1)))
                for entry, one, stacked in diagnostics:
                    for label, fn, arg in ((entry, one, z), (f"{entry}/stack", stacked, z.reshape(1, 2, -1))):

                        def diagnose(fn=fn, arg=arg, label=f"{key}/{label}"):
                            with np.errstate(all="ignore"):
                                out[label] = _values(fn(arg))

                        _guarded(out, f"{key}/{label}", diagnose)
            # the row kernel, one row at a time and on the stack
            for key, rows in fields_at:

                def evaluate_fields(system=system, rows=rows, key=key):
                    with np.errstate(all="ignore"):
                        out[key] = _values(system.fields(rows))

                _guarded(out, key, evaluate_fields)

        _guarded(out, "full/vortex4/method=tao,order=2", run_full_horizon)
        _guarded(out, "emit_benchmark_csv", write_benchmark_csv)
    Path(out_path).write_text(json.dumps(out, sort_keys=True), encoding="utf-8")
    failed = sum(
        1 for k, v in out.items() if k.startswith("failure/") and k.endswith("/complete") and not v
    )
    print(f"{len(out)} entries written to {out_path}; {failed} of "
          f"{len(failure_configurations())} failure runs failed")
    return 0


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))
    differing = sorted(k for k in set(a) & set(b) if a[k] != b[k])
    only_a, only_b = sorted(set(a) - set(b)), sorted(set(b) - set(a))
    for label, keys in (("differs", differing), (f"only in {a_path}", only_a),
                        (f"only in {b_path}", only_b)):
        for key in keys:
            print(f"{label}: {key}")
    print(f"{len(set(a) | set(b))} entries: {len(differing)} differing, "
          f"{len(only_a)} only in {a_path}, {len(only_b)} only in {b_path}")
    return 1 if differing or only_a or only_b else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "dump":
        return dump(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
