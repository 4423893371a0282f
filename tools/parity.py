"""Bitwise parity of extphase's results between two source trees.

Usage, from the repository root:

    python3 tools/parity.py dump src /tmp/new.json
    python3 tools/parity.py dump /path/to/other/checkout/src /tmp/old.json
    python3 tools/parity.py compare /tmp/old.json /tmp/new.json

``dump`` imports ``extphase`` from the given source directory and writes
one JSON object of named entries.  It covers every built-in preset under
every method configuration: a 20-step run recording every step with its
state, the SHA-256 of that run's CSV and SVG files, ``final_state``, and
``benchmark``'s row without its timing.  It also covers 16 ``nls_bench``
runs that fail, whose errors are compared as text.  Floats are stored
with ``float.hex``, so equal entries are equal bit for bit.

``compare`` prints every entry that differs or is missing from one side
and exits 1 if there is any, 0 otherwise.
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
SOLVERS = ("simplified_newton", "broyden")


def method_configurations() -> list[dict]:
    """The 27 configurations: each explicit method under each composition,
    the projected method also under each solver and start, and Gauss."""
    configs = []
    for order, composition in SCHEMES:
        scheme = dict(order=order, composition=composition)
        configs += [dict(method="pihajoki", **scheme), dict(method="tao", **scheme)]
        for solver in SOLVERS:
            for warm_start in (False, True):
                configs.append(
                    dict(method="semiexplicit", solver=solver, warm_start=warm_start, **scheme)
                )
    configs += [dict(method=m, order=int(m[2]), composition=None) for m in ("gl2", "gl4", "gl6")]
    return configs


def failure_configurations() -> list[dict]:
    """16 ``nls_bench`` runs that fail on a step, each kind of method at least once."""
    configs = []
    for order, composition in SCHEMES:
        scheme = dict(order=order, composition=composition)
        # the explicit copies separate past float range within six steps
        configs += [
            dict(method="pihajoki", dt=0.1, t_end=100.0, **scheme),
            dict(method="tao", dt=0.1, t_end=100.0, **scheme),
        ]
        # the projection diverges on its first step
        configs += [
            dict(method="semiexplicit", solver=solver, dt=0.5, t_end=2.0, **scheme)
            for solver in SOLVERS
        ]
    return configs


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
    for kind, emit in (("csv", xp.emit_csv), ("svg", xp.emit_svg)):
        path = tmp_dir / f"out.{kind}"
        emit(record, path)
        out[f"{key}/{kind}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()


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
                    _record_entries(xp, key, xp.run_experiment(spec), out, tmp_dir)
                    out[f"{key}/final_state"] = _values(xp.final_state(spec))
                    row = xp.benchmark(spec, 1)
                    row.pop("time_s")
                    out[f"{key}/benchmark"] = {
                        k: v.hex() if isinstance(v, float) else v for k, v in row.items()
                    }

                _guarded(out, key, run)
        for config in failure_configurations():
            key = "failure/nls_bench/" + ",".join(f"{k}={v}" for k, v in config.items())
            spec = xp.preset("nls_bench", **config)

            def run_failing(spec=spec, key=key):
                _record_entries(xp, key, xp.run_experiment(spec), out, tmp_dir)

            _guarded(out, key, run_failing)
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
    differing = sorted(k for k in set(a) | set(b) if a.get(k, "<missing>") != b.get(k, "<missing>"))
    for key in differing:
        print(f"differs: {key}")
    print(f"{len(set(a) | set(b))} entries, {len(differing)} differing")
    return 1 if differing else 0


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
