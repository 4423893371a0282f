import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from extphase import (
    ConfigError,
    ExperimentSpec,
    NonConvergence,
    PRESETS,
    PointVortexSystem,
    SolverConfig,
    TrajectoryRecord,
    VortexCollision,
    benchmark,
    blocks,
    build_system,
    convergence_study,
    defect_norm,
    embed,
    emit_csv,
    emit_svg,
    final_state,
    halves,
    harness,
    join,
    load_config,
    load_csv,
    make_spec,
    preset,
    projection,
    run_experiment,
    splitting,
)
from extphase.cli import main
from extphase.harness import emit_benchmark_csv
from extphase.splitting import COMPOSITIONS


def test_presets_carry_reference_configurations():
    t = PRESETS["testcase"]
    assert t["q0"] == (-1.0, 2.0) and t["p0"] == (1.0, -1.0)
    assert t["dt"] == 0.1 and t["omega"] == 10.0 and t["tol"] == 1e-14

    v4 = PRESETS["vortex4"]
    assert v4["gammas"] == (4.0, -3.0, -2.0, 7.0)
    assert v4["positions"] == ((1.0, 2.0), (-1.5, 1.0), (-3.0, -1.0), (2.0, 0.5))
    assert v4["dt"] == 0.05

    nls = PRESETS["nls_bench"]
    assert nls["d"] == 5 and nls["omega"] == 100.0
    assert nls["q0"] == (3.0, 0.01, 0.01, 0.01, 0.01)
    assert nls["p0"] == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert nls["dt"] == 1e-3

    v10 = PRESETS["vortex10"]
    assert v10["gammas"] == (-0.5, 0.3, 0.6, 0.7, -0.2, -0.8, -0.9, -0.3, 0.7, -0.6)
    assert len(v10["positions"]) == 10
    assert v10["positions"][0] == (3.0, -5.0) and v10["positions"][-1] == (7.0, -1.0)
    assert v10["dt"] == 0.1 and v10["omega"] == 7.0


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        make_spec({"system": "testcase", "stepsize": 0.1})


def test_spec_validation_rules():
    with pytest.raises(ConfigError):
        preset("testcase", dt=20.0, t_end=10.0)
    with pytest.raises(ConfigError):
        preset("testcase", method="rk4")
    with pytest.raises(ConfigError):
        preset("testcase", order=3)
    with pytest.raises(ConfigError):
        preset("testcase", order=4, composition="yoshida")
    with pytest.raises(ConfigError):
        preset("testcase", order=6, composition="suzuki")
    with pytest.raises(ConfigError):
        preset("testcase", method="gl4", composition="suzuki")
    with pytest.raises(ConfigError):
        preset("nls_bench", q0=(1.0,))
    with pytest.raises(ConfigError, match="testcase system cannot take"):
        preset("testcase", q0=())  # an empty block is not a missing one
    with pytest.raises(ConfigError, match="dimension d"):
        make_spec({"system": "nls", "q0": [1.0], "p0": [0.0]})
    with pytest.raises(ConfigError):
        make_spec({"system": "vortex", "dt": 0.1, "t_end": 1.0})
    with pytest.raises(ConfigError):
        preset("unknown_preset")


def test_spec_checks_itself_on_construction():
    # t_end = 1.0 is not a whole number of dt = 0.3 steps
    with pytest.raises(ConfigError):
        ExperimentSpec(dt=0.3, t_end=1.0)
    with pytest.raises(ConfigError):
        replace(preset("testcase"), dt=-1.0)
    spec = ExperimentSpec(dt=0.25, t_end=1.0)
    assert spec.n_steps == 4
    # the solve defaults are the solver's own
    cfg = SolverConfig()
    assert (spec.tol, spec.max_iter, spec.solver) == (cfg.tol, cfg.max_iter, "simplified_newton")


_G4 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_S4 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_W6 = (0.784513610477560, 0.235573213359357, -1.17767998417887)
_W6_0 = 1.0 - 2.0 * (_W6[2] + _W6[1] + _W6[0])
# the substep fractions of each (order, composition) a doubled-space method accepts
_SCHEDULES = {
    (2, None): (1.0,), (2, "single"): (1.0,),
    (4, None): (_G4, 1.0 - 2.0 * _G4, _G4), (4, "triple_jump"): (_G4, 1.0 - 2.0 * _G4, _G4),
    (4, "suzuki"): (_S4, _S4, 1.0 - 4.0 * _S4, _S4, _S4),
    (6, None): (*_W6, _W6_0, *_W6[::-1]), (6, "yoshida"): (*_W6, _W6_0, *_W6[::-1]),
}
_GAUSS_PAIRS = {"gl2": [(2, None)], "gl4": [(2, None), (4, None)], "gl6": [(2, None), (6, None)]}


@pytest.mark.parametrize("method", harness.METHODS)
def test_the_schedule_vocabulary_is_pinned(monkeypatch, method):
    # every (order, composition) each method accepts or rejects, with the
    # rejection's text, the cost of a pass and the substep fractions it composes
    fractions = []

    def recorder(system, dt, zeta, params=None):
        fractions.append(dt)
        return zeta

    monkeypatch.setattr(harness, "pihajoki_step", recorder)
    monkeypatch.setattr(harness, "tao_step", recorder)
    pairs = _GAUSS_PAIRS.get(method, list(_SCHEDULES))
    for order in (2, 3, 4, 6):
        for composition in (None, "single", "triple_jump", "suzuki", "yoshida", "bogus"):
            build = partial(ExperimentSpec, method=method, order=order, composition=composition)
            if (order, composition) not in pairs:
                with pytest.raises(ConfigError) as info:
                    build()
                assert str(info.value) == f"{method} takes (order, composition) in {pairs}"
                continue
            spec = build()
            step, cost = harness._make_step(spec)
            if method in _GAUSS_PAIRS:
                assert cost == int(method[2]) // 2
                continue
            fractions.clear()
            system, z0, _ = harness.build_system(spec)
            step(system, 1.0, z0 if method == "semiexplicit" else embed(z0))
            schedule = _SCHEDULES[order, composition]
            assert tuple(fractions) == schedule
            assert cost == (4 if method == "tao" else 3) * len(schedule)


def test_single_step_run_records_two_rows():
    spec = preset("testcase", method="semiexplicit", dt=0.1, t_end=0.1, tol=1e-12)
    record = run_experiment(spec)
    assert record.complete and record.failure_kind is None and record.failed_step is None
    assert record.total_steps == 1
    assert record.steps.tolist() == [0, 1]
    assert record.times.tolist() == [0.0, 0.1]


def test_extended_methods_record_block_invariants():
    spec = preset("testcase", method="pihajoki", t_end=1.0, record_state=True)
    record = run_experiment(spec)
    assert record.complete
    assert record.states.shape == (11, 4)
    # drift is measured on the (q, p) block of the doubled state
    from extphase import testcase_L

    lin = testcase_L()
    v0 = lin.evaluate(record.states[0])
    manual = abs(lin.evaluate(record.states[-1]) - v0) / abs(v0)
    assert record.drifts["L"][-1] == pytest.approx(manual, rel=1e-12, abs=1e-18)


def test_per_step_cost_columns():
    spec = preset("testcase", method="tao", t_end=1.0)
    record = run_experiment(spec)
    assert np.all(record.vf[1:] == 4)
    assert np.all(record.itr[1:] == 0)
    assert record.vf_total == 4 * record.total_steps

    spec = preset("testcase", method="semiexplicit", t_end=1.0, tol=1e-12)
    record = run_experiment(spec)
    assert np.all(record.vf[1:] == 3 * record.itr[1:])

    spec = preset("testcase", method="gl4", t_end=1.0, tol=1e-12)
    record = run_experiment(spec)
    assert np.all(record.vf[1:] == 2 * record.itr[1:])


def test_record_stride():
    spec = preset("testcase", method="pihajoki", t_end=1.0, record_stride=4)
    record = run_experiment(spec)
    assert record.steps.tolist() == [0, 4, 8, 10]  # final step always recorded


def test_failure_produces_partial_record():
    spec = preset("nls_bench", method="pihajoki", t_end=10.0)
    record = run_experiment(spec)
    assert not record.complete
    assert record.failure_kind == "non_convergence"
    assert record.total_steps < 10_000
    assert record.failed_step == record.total_steps + 1


def test_failure_is_kept_as_data():
    # the projection diverges on its first step; its error keeps the solve's state
    record = run_experiment(preset("nls_bench", method="semiexplicit", dt=0.5, t_end=2.0))
    assert not record.complete
    assert record.failure_kind == "non_convergence"
    assert isinstance(record.failure, NonConvergence)
    assert record.failed_step == 1
    assert record.failure.iterations >= 1
    assert record.failure.best.shape == (10,)  # the multiplier, length 2d
    assert np.isfinite(record.failure.final_residual)


# 2,500 tao-2 steps of vortex4, every one recorded: three diagnostic chunks
LONG_RECORD = dict(method="tao", t_end=125.0, record_stride=1, record_state=True)


def _per_row_drift(values) -> bytes:
    values = np.array(values)
    return (np.abs(values - values[0]) / max(abs(values[0]), 1e-300)).tobytes()


@pytest.mark.parametrize("fail_at", [None, 1500])
def test_recorded_columns_are_per_row_diagnostics_across_chunks(monkeypatch, fail_at):
    spec = preset("vortex4", **LONG_RECORD)
    assert spec.n_steps > 2 * harness.CHUNK_ROWS
    step, kept = harness.tao_step, []

    def keep_or_fail(*args, **kwargs):  # a run that fails inside the second chunk
        if len(kept) + 1 == fail_at:
            raise NonConvergence("stopped inside a chunk")
        kept.append(step(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(harness, "tao_step", keep_or_fail)
    record = run_experiment(spec)
    system, z0, invariants = build_system(spec)
    n = len(kept) + 1
    assert n == (spec.n_steps + 1 if fail_at is None else fail_at)
    assert record.complete == (fail_at is None)
    assert (record.total_steps, record.itr_total, record.vf_total) == (n - 1, 0, 4 * (n - 1))
    states = np.array([z0] + [join(*blocks(zeta)[::2]) for zeta in kept])
    assert record.states.tobytes() == states.tobytes()
    assert record.steps.tolist() == list(range(n))
    assert record.defect.tolist() == [0.0] + [defect_norm(zeta) for zeta in kept]
    assert record.itr.tolist() == [0] * n and record.vf.tolist() == [0] + [4] * (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = [system.energy(*halves(z)) for z in states]
        assert record.energy_err.tobytes() == _per_row_drift(energies)
        for name, inv in invariants:
            assert record.drifts[name].tobytes() == _per_row_drift([inv.evaluate(z) for z in states])


@pytest.mark.parametrize("row", [4, 2100])  # in a full chunk, and in the last partial one
def test_a_colliding_recorded_row_ends_the_record_at_whole_rows(monkeypatch, tmp_path, row):
    spec = preset("vortex4", **LONG_RECORD)
    clean = run_experiment(spec)
    target, energies = clean.states[row][:4], PointVortexSystem.energies

    def collide_at_row(self, rows):
        if (rows[..., 0, :] == target).all(axis=-1).any():
            raise VortexCollision("vortices closer than 1e-12 in planar coordinates")
        return energies(self, rows)

    monkeypatch.setattr(PointVortexSystem, "energies", collide_at_row)
    record = run_experiment(spec)
    assert record.failure_kind == "collision" and record.failed_step == row
    # the run's totals as of the colliding row's step
    assert (record.total_steps, record.itr_total, record.vf_total) == (row - 1, 0, 4 * row)
    columns = [record.steps, record.times, record.defect, record.energy_err, record.itr, record.vf,
               record.states, *record.drifts.values()]
    assert [len(column) for column in columns] == [row] * len(columns)
    assert record.states.tobytes() == clean.states[:row].tobytes()
    assert record.energy_err.tobytes() == clean.energy_err[:row].tobytes()
    for name in record.invariant_names:
        assert record.drifts[name].tobytes() == clean.drifts[name][:row].tobytes()
    emit_csv(record, tmp_path / "run.csv")
    assert load_csv(tmp_path / "run.csv")["step"].tolist() == list(range(row))


def test_a_warm_started_projected_run_saves_gradients():
    # 300 nls_bench steps, each solve starting from the last step's multiplier
    cold, warm = (run_experiment(preset("nls_bench", t_end=0.3, warm_start=w)) for w in (False, True))
    bound = cold.total_steps * cold.spec.tol
    assert cold.complete and warm.complete and warm.total_steps == 300
    assert warm.vf_total == 3 * warm.itr_total
    assert warm.vf_total < cold.vf_total
    assert cold.drifts["mass"].max() <= bound
    assert warm.drifts["mass"].max() <= bound


def test_failed_runs_keep_the_cost_identity(capsys):
    # the failing step's passes were paid for in gradients, so they are counted;
    # each run stalls at its iteration cap after steps that converged
    stalled = ["run", "--preset", "vortex4", "--order", "4", "--composition", "triple_jump",
               "--max-iter", "4", "--t-end", "20"]
    assert main(stalled) == 2
    assert "5 steps, itr_total=24, vf_total=216," in capsys.readouterr().out
    for spec, cost in (
        (preset("vortex4", order=4, composition="triple_jump", max_iter=4, t_end=20.0), 9),
        (preset("vortex4", method="gl4", order=4, max_iter=8, t_end=10.0), 2),
    ):
        record = run_experiment(spec)
        assert record.failure_kind == "non_convergence" and record.total_steps > 0
        assert record.vf_total == cost * record.itr_total
        assert record.itr_total == record.itr.sum() + record.failure.iterations


def test_csv_round_trip(tmp_path):
    spec = preset("testcase", method="semiexplicit", t_end=1.0, tol=1e-12, record_state=True)
    record = run_experiment(spec)
    path = tmp_path / "out.csv"
    emit_csv(record, path)
    cols = load_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "step,t,defect_norm,energy_rel_err,L_rel_err,Q_rel_err,itr,vf_evals,q1,q2,p1,p2"
    np.testing.assert_array_equal(cols["step"], record.steps)
    np.testing.assert_array_equal(cols["t"], record.times)
    np.testing.assert_array_equal(cols["defect_norm"], record.defect)
    np.testing.assert_array_equal(cols["L_rel_err"], record.drifts["L"])
    np.testing.assert_array_equal(cols["q1"], record.states[:, 0])
    np.testing.assert_array_equal(cols["p2"], record.states[:, 3])


def test_csv_text_is_pinned(tmp_path):
    # integer columns print as integers and floats as format(v, ".17g"); every
    # line ends in "\n", the last one too
    record = run_experiment(preset("testcase", method="pihajoki", t_end=0.2, record_state=True))
    path = tmp_path / "run.csv"
    emit_csv(record, path)
    assert path.read_text() == (
        "step,t,defect_norm,energy_rel_err,L_rel_err,Q_rel_err,itr,vf_evals,q1,q2,p1,p2\n"
        "0,0,0,0,0,0,0,0,-1,2,1,-1\n"
        "1,0.10000000000000001,2.8142940332165515e-07,1.3236054444628723e-08,"
        "1.7771091265217365e-09,1.3278488234883903e-07,0,3,-1.0181503432109111,"
        "1.9957005772187952,0.98789977415457453,-1.0042858165875543\n"
        "2,0.20000000000000001,5.630756661107505e-07,2.6512184439819841e-08,"
        "3.5555369759521227e-09,2.6595308636837939e-07,0,3,-1.0363006864234703,"
        "1.9913827872069909,0.97579954831024796,-1.0085623903691419\n"
    )
    emit_benchmark_csv([benchmark(preset("testcase", method="tao", t_end=0.2), 1)], path)
    assert re.fullmatch(
        r"method,order,dt,t_end,tol,time_s,itr_avg,vf_avg,converged_steps,total_steps\n"
        r"tao-2,2,0\.10000000000000001,0\.20000000000000001,1e-14,[0-9.e+-]+,0,4,2,2\n",
        path.read_text(),
    )


# Row counts around the writers' chunk of rows, and a few small ones.
ROW_COUNTS = st.sampled_from(
    [0, 1, 2, 7, harness.CHUNK_ROWS - 1, harness.CHUNK_ROWS, harness.CHUNK_ROWS + 1,
     2 * harness.CHUNK_ROWS + 5]
)
ANY_FLOATS = arrays(np.float64, st.integers(1, 12), elements=st.floats() | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300]))
INTEGERS = arrays(np.int64, st.integers(1, 12), elements=st.integers(-2**62, 2**62))


def _drawn_record(data, n: int, states: bool) -> TrajectoryRecord:
    """A testcase record of ``n`` rows whose columns repeat drawn values."""
    def column(strategy):
        return np.resize(data.draw(strategy), n)

    return TrajectoryRecord(
        spec=preset("testcase", t_end=1.0),
        invariant_names=["L", "Q"],
        steps=column(INTEGERS),
        times=column(ANY_FLOATS),
        defect=column(ANY_FLOATS),
        energy_err=column(ANY_FLOATS),
        drifts={"L": column(ANY_FLOATS), "Q": column(ANY_FLOATS)},
        itr=column(INTEGERS),
        vf=column(INTEGERS),
        states=np.resize(data.draw(ANY_FLOATS), (n, 4)) if states else None,
        total_steps=n,
        itr_total=0,
        vf_total=0,
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=ROW_COUNTS, states=st.booleans(), data=st.data())
def test_csv_lines_are_format_per_value(tmp_path_factory, n, states, data):
    record = _drawn_record(data, n, states)
    names = ["step", "t", "defect_norm", "energy_rel_err", "L_rel_err", "Q_rel_err", "itr",
             "vf_evals"]
    columns = [record.steps, record.times, record.defect, record.energy_err,
               record.drifts["L"], record.drifts["Q"], record.itr, record.vf]
    if states and n:
        names += ["q1", "q2", "p1", "p2"]
        columns += list(record.states.T)
    formats = ["d" if name in ("step", "itr", "vf_evals") else ".17g" for name in names]
    expected = [",".join(names)] + [
        ",".join(format(v, fmt) for fmt, v in zip(formats, row)) for row in zip(*columns)
    ]
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    emit_csv(record, path)
    assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=ROW_COUNTS.filter(bool), dt=st.floats(1e-3, 10.0), data=st.data())
def test_svg_points_are_the_fstring_per_point(tmp_path_factory, n, dt, data):
    record = _drawn_record(data, n, states=False)
    record.times = np.arange(n) * dt
    path = tmp_path_factory.mktemp("svg") / "plot.svg"
    emit_svg(record, path)
    expected = []
    ts = record.times
    t_span = (float(ts.max()) - float(ts.min())) or 1.0
    for idx, values in enumerate((record.defect, record.drifts["L"], record.drifts["Q"])):
        keep = np.isfinite(values) & (values > 0.0)
        if not keep.any():
            continue
        logv = np.log10(values[keep])
        lo, hi = float(logv.min()), float(logv.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        xs = idx * 360 + 45 + (ts[keep] - float(ts.min())) / t_span * 270
        ys = 45 + (hi - logv) / (hi - lo) * 190
        expected.append(" ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys)))
    assert re.findall(r'<polyline points="([^"]*)"', path.read_text()) == expected


def test_svg_leaves_out_non_finite_values(tmp_path):
    record = run_experiment(preset("testcase", method="pihajoki", t_end=0.3))
    record.defect[1] = np.inf
    record.drifts["L"][2] = np.nan
    path = tmp_path / "plot.svg"
    emit_svg(record, path)  # a RuntimeWarning here fails the test
    text = path.read_text()
    assert text.count("<polyline") == 3 and "nan" not in text and "inf" not in text


def test_empty_record_gives_header_only_csv(tmp_path):
    spec = preset("testcase", t_end=1.0)
    record = TrajectoryRecord(
        spec=spec,
        invariant_names=["L", "Q"],
        steps=np.array([], dtype=int),
        times=np.array([]),
        defect=np.array([]),
        energy_err=np.array([]),
        drifts={"L": np.array([]), "Q": np.array([])},
        itr=np.array([], dtype=int),
        vf=np.array([], dtype=int),
        states=None,
        total_steps=0,
        itr_total=0,
        vf_total=0,
    )
    path = tmp_path / "empty.csv"
    emit_csv(record, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("step,")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = load_csv(path)
    assert list(columns) == lines[0].split(",")
    assert all(values.dtype == float and values.size == 0 for values in columns.values())


def test_load_csv_turns_an_unreadable_file_into_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_csv(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("step,t\n0,zero\n")
    with pytest.raises(ConfigError):
        load_csv(bad)
    bad.write_text("")
    with pytest.raises(ConfigError, match=f"cannot read {re.escape(str(bad))}: no header line"):
        load_csv(bad)


def test_svg_emission(tmp_path):
    spec = preset("testcase", method="semiexplicit", t_end=2.0, tol=1e-12)
    record = run_experiment(spec)
    path = tmp_path / "plot.svg"
    emit_svg(record, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    # the t = 0 rows are exact zeros and must be left out of the polylines
    assert text.count("polyline") >= 2


def test_benchmark_rows():
    spec = preset("testcase", method="tao", t_end=2.0)
    row = benchmark(spec, 2)
    assert row["vf_avg"] == 4.0
    assert row["itr_avg"] == 0.0
    assert row["total_steps"] == 20
    assert row["converged_steps"] == 20
    assert row["time_s"] > 0.0

    spec = preset("testcase", method="gl4", t_end=2.0, tol=1e-12)
    row = benchmark(spec, 1)
    assert row["vf_avg"] == pytest.approx(2.0 * row["itr_avg"], abs=1e-12)

    for repetitions in (0, -1, 2.5, True, "2"):
        with pytest.raises(ConfigError, match="repetitions must be a whole number"):
            benchmark(spec, repetitions)
    assert benchmark(spec, np.int64(1))["total_steps"] == 20


def test_benchmark_csv(tmp_path):
    spec = preset("testcase", method="tao", t_end=1.0)
    row = benchmark(spec, 1)
    from extphase.harness import emit_benchmark_csv

    path = tmp_path / "bench.csv"
    emit_benchmark_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,order,dt,t_end,tol,time_s,itr_avg,vf_avg,converged_steps,total_steps"
    assert lines[1].startswith("tao-2,2,")


def test_convergence_study_input_validation(monkeypatch):
    # every step size is a spec over the horizon, checked before the reference run
    def no_run(spec):
        raise AssertionError(f"a run started at dt={spec.dt}")

    monkeypatch.setattr(harness, "final_state", no_run)
    spec = preset("vortex4", method="gl4", order=4, t_end=50.0)
    for dts, message in (
        ([0.8, 0.4, 0.2, 0.1], "t_end must be an integer number of steps"),
        ([0.1, 0.05, 0.025, 0.0], "dt must be positive and finite"),
        ([0.1, 0.05, 0.025, float("nan")], "dt must be positive and finite"),
        ([100.0, 50.0, 25.0, 12.5], "dt must not exceed t_end"),
    ):
        with pytest.raises(ConfigError, match=message):
            convergence_study(spec, dts)
    monkeypatch.undo()
    spec = preset("testcase", tol=1e-13, t_end=1.0)
    with pytest.raises(ConfigError):
        convergence_study(spec, [0.1, 0.05, 0.025])
    with pytest.raises(ConfigError):
        convergence_study(spec, [0.1, 0.05, 0.03, 0.02])
    # a repeated size is a geometric progression of ratio 1 but leaves one point to fit
    with pytest.raises(ConfigError, match="distinct"):
        convergence_study(spec, [0.1, 0.1, 0.1, 0.1])


def test_final_state_matches_recorded_run():
    spec = preset("testcase", method="semiexplicit", t_end=1.0, tol=1e-12, record_state=True)
    record = run_experiment(spec)
    z_end = final_state(spec)
    np.testing.assert_allclose(z_end, record.states[-1], rtol=0, atol=0)


# --- CLI ---------------------------------------------------------------------


def test_cli_run_with_preset(tmp_path, capsys):
    out = tmp_path / "r.csv"
    svg = tmp_path / "r.svg"
    code = main(
        [
            "run",
            "--preset",
            "testcase",
            "--t-end",
            "1.0",
            "--tol",
            "1e-12",
            "--stride",
            "2",
            "--record-state",
            "--out",
            str(out),
            "--svg",
            str(svg),
        ]
    )
    assert code == 0
    assert out.exists() and svg.exists()
    assert "semiexplicit-2 on testcase" in capsys.readouterr().out
    cols = load_csv(out)
    assert "q1" in cols and "p2" in cols
    assert cols["step"].tolist() == [0, 2, 4, 6, 8, 10]
    # the help names every method, order and composition a spec accepts
    assert main(["run", "--help"]) == 0
    words = capsys.readouterr().out.split()
    names = [*harness.METHODS, *(c for _, c in COMPOSITIONS if c)]
    names += [str(order) for order, _ in COMPOSITIONS]
    assert [name for name in names if name not in words] == []


def test_cli_run_with_config_file(tmp_path):
    cfg = {
        "system": "testcase",
        "method": "pihajoki",
        "dt": 0.1,
        "t_end": 1.0,
        "q0": [-1.0, 2.0],
        "p0": [1.0, -1.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0


def test_cli_run_keeps_the_config_recording_settings(tmp_path, capsys):
    cfg = {"system": "testcase", "method": "tao", "dt": 0.1, "t_end": 1.0,
           "record_stride": 5, "record_state": True}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    cols = load_csv(out)
    assert cols["step"].tolist() == [0, 5, 10] and "p2" in cols
    assert main(["run", "--config", str(path), "--stride", "2", "--out", str(out)]) == 0
    assert load_csv(out)["step"].tolist() == [0, 2, 4, 6, 8, 10]
    capsys.readouterr()


def test_cli_rejects_bad_configs(tmp_path, capsys):
    assert main(["run", "--preset", "testcase", "--config", "x.json"]) == 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": "testcase", "bogus": 1}))
    assert main(["run", "--config", str(path)]) == 4
    path.write_text("not json")
    assert main(["run", "--config", str(path)]) == 4
    assert main(["run", "--preset", "testcase", "--method", "gl4", "--order", "3"]) == 4
    capsys.readouterr()
    # solver and coupling settings are checked before the run, not inside it
    for extra in (
        ["--tol", "1e-17"],
        ["--tol", "inf"],
        ["--method", "gl4", "--tol", "inf"],
        ["--omega", "nan"],
        ["--method", "tao", "--omega", "1e308"],
        ["--method", "tao", "--omega", "1e308", "--order", "6", "--composition", "yoshida"],
        ["--dt", "0.3", "--t-end", "1.0"],
    ):
        assert main(["run", "--preset", "testcase", *extra]) == 4, extra
        assert "configuration error:" in capsys.readouterr().err
    # field types, finite and evaluable initial data, and well-formed blocks
    base = {"system": "testcase", "method": "pihajoki", "dt": 0.1, "t_end": 1.0}
    vortex = {**base, "system": "vortex", "gammas": [1, 2], "positions": [[0, 0], [1, 1]]}
    for cfg in (
        {**base, "dt": "0.1"},
        {**base, "tol": None},
        {**base, "omega": "x"},
        {**base, "record_stride": "2"},
        {**base, "max_iter": 2.5},
        {**base, "record_stride": 0},
        {**base, "system": "nope"},
        {**base, "t_end": 0},
        {**base, "warm_start": "yes"},
        {**base, "q0": ["a", "b"]},
        {**base, "q0": [1e200, 0]},
        {**base, "system": "nls", "d": 2, "q0": [1e100, 0], "p0": [0, 0]},
        {**vortex, "gammas": 5},
        {**vortex, "gammas": [0, 1]},
        {**vortex, "positions": [1, 2]},
        {**vortex, "positions": [[1e200, 0], [1, 1]]},
    ):
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 4, cfg
        assert "configuration error:" in capsys.readouterr().err
    path.write_text('{"system": "testcase", "q0": [1e400, 0]}')
    assert main(["run", "--config", str(path)]) == 4
    path.write_text(json.dumps([base]))
    assert main(["run", "--config", str(path)]) == 4
    assert "flat JSON object" in capsys.readouterr().err
    # an output file that cannot be opened
    missing = str(tmp_path / "no_such_dir" / "r.csv")
    assert main(["run", "--preset", "testcase", "--t-end", "0.1", "--out", missing]) == 4
    assert f"cannot write {missing}" in capsys.readouterr().err
    # usage errors, and a step size that is not positive
    for argv in (
        ["run", "--preset", "nope"],
        ["bench", "--preset", "testcase", "--dt", "x"],
        ["converge", "--preset", "testcase", "--dt-list", "0.1,0.05,0.025,0"],
        ["converge", "--preset", "testcase", "--dt-list", "0.1,x"],
        # a prefix of a flag is not the flag: --d is not --dt, and d has no flag
        ["run", "--preset", "testcase", "--t-end", "1", "--d", "0.05"],
        ["run", "--preset", "testcase", "--t-end", "1", "--om", "3", "--meth", "tao"],
        ["bench", "--preset", "testcase", "--t-end", "1", "--rep", "2"],
        # the projection has one solver, and no flag to choose it
        ["run", "--preset", "vortex4", "--solver", "broyden"],
        ["run", "--preset", "vortex4", "--solver", "simplified_newton"],
    ):
        assert main(argv) == 4, argv
    capsys.readouterr()
    argv = ["converge", "--preset", "vortex4", "--method", "gl4", "--t-end", "50",
            "--dt-list", "0.8,0.4,0.2,0.1"]
    assert main(argv) == 4
    assert "t_end must be an integer number of steps" in capsys.readouterr().err
    argv = ["converge", "--preset", "testcase", "--method", "gl4", "--t-end", "1",
            "--dt-list", "0.1,0.1,0.1,0.1"]
    assert main(argv) == 4
    assert "step sizes must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["broyden", "newton", ""])
def test_a_spec_takes_only_the_one_projection_solver(tmp_path, capsys, solver):
    config = {"system": "testcase", "method": "semiexplicit", "dt": 0.1, "t_end": 1.0}
    accepted = "solver must be 'simplified_newton'"
    with pytest.raises(ConfigError, match=accepted):
        make_spec({**config, "solver": solver})
    with pytest.raises(ConfigError, match=accepted):  # whatever the method
        make_spec({**config, "method": "gl2", "solver": solver})
    path = tmp_path / "solver.json"
    path.write_text(json.dumps({**config, "solver": solver}))
    assert main(["run", "--config", str(path)]) == 4
    assert accepted in capsys.readouterr().err
    assert make_spec({**config, "solver": "simplified_newton"}).solver == "simplified_newton"


@pytest.mark.parametrize(
    "attribute, method",
    [("pihajoki_step", "pihajoki"), ("pihajoki_step", "semiexplicit"), ("gl_step", "gl2")],
)
def test_cost_identity_guard_fires(monkeypatch, attribute, method):
    # the harness looks its step functions up per run, so this wrapper is seen
    step = getattr(harness, attribute)

    def one_gradient_too_many(system, dt, state, *args, **kwargs):
        system.grad(state[: system.dim], state[system.dim : 2 * system.dim])
        return step(system, dt, state, *args, **kwargs)

    monkeypatch.setattr(harness, attribute, one_gradient_too_many)
    with pytest.raises(AssertionError, match="cost accounting violated"):
        run_experiment(preset("testcase", method=method, t_end=0.1))


@pytest.mark.parametrize(
    "module, attribute, method",
    [(projection, "solve_mu", "semiexplicit"), (splitting, "coupling_flow", "tao")],
)
def test_steps_look_their_layers_up_at_call_time(monkeypatch, module, attribute, method):
    # a tracer wraps these module attributes; a step that bound one at import
    # would run the original and leave that layer's spans empty
    spec = preset("testcase", method=method, t_end=1.0, tol=1e-12)
    assert spec.omega != 0.0  # tao rotates its copies in every step
    expected = final_state(spec)
    original = getattr(module, attribute)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attribute, counted)
    assert final_state(spec).tobytes() == expected.tobytes()
    assert len(calls) == spec.n_steps


def test_cli_exit_code_on_nonconvergence(capsys):
    for argv in (
        ["run", "--preset", "nls_bench", "--method", "pihajoki", "--t-end", "10.0"],
        # a state near float range overflows the defect norm before it leaves it
        ["run", "--preset", "nls_bench", "--method", "pihajoki", "--dt", "0.05", "--t-end", "100"],
        ["run", "--preset", "nls_bench", "--method", "tao", "--dt", "0.05", "--t-end", "100"],
        # math.sin(inf) in the gradient, and math.exp overflowing in a recorded energy
        ["run", "--preset", "testcase", "--method", "pihajoki", "--dt", "16", "--t-end", "3200"],
        ["bench", "--preset", "testcase", "--method", "pihajoki", "--dt", "16", "--t-end", "3200"],
        ["run", "--preset", "testcase", "--method", "tao", "--dt", "8", "--t-end", "1600"],
        # a projected solve stalled at its iteration cap, and one that diverges
        ["run", "--preset", "testcase", "--order", "4", "--composition", "triple_jump",
         "--max-iter", "2", "--t-end", "1"],
        ["bench", "--preset", "nls_bench", "--max-iter", "2", "--t-end", "0.1"],
        ["run", "--preset", "nls_bench", "--dt", "0.5", "--t-end", "2"],
    ):
        assert main(argv) == 2, argv
        expected = r"run incomplete at step \d+ \(t=[0-9.e+-]+\): " if argv[0] == "run" else (
            "solver failed to converge: ")
        assert re.search(expected, capsys.readouterr().err), argv


def test_cli_runs_to_round_off_at_the_smallest_tol(capsys):
    # a solve that stops at round-off above tol is on the diagonal up to its own
    # residual and the shift's rounding, so the run completes
    for argv in (
        ["run", "--preset", "nls_bench", "--tol", "1e-16", "--t-end", "0.1"],
        ["bench", "--preset", "nls_bench", "--tol", "1e-16", "--t-end", "0.1"],
        ["run", "--preset", "testcase", "--order", "4", "--composition", "triple_jump",
         "--tol", "1e-16", "--t-end", "1"],
        ["run", "--preset", "vortex4", "--tol", "1e-16", "--t-end", "0.5"],
    ):
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_the_testcase_preset_runs_past_its_round_off_stall():
    # at a solve tolerance of 1e-14 without the round-off stop, step 3602 stalled
    record = run_experiment(preset("testcase", t_end=400.0))
    assert record.complete and record.total_steps == 4000
    assert max(record.drifts["L"].max(), record.drifts["Q"].max()) <= 1e-11


def test_a_diagnostic_beyond_math_range_records_inf():
    record = run_experiment(preset("testcase", method="tao", dt=8.0, t_end=1600.0))
    assert record.failure_kind == "non_convergence"
    assert np.isinf(record.energy_err).any()
    assert np.isfinite(record.energy_err[:2]).all()


def test_cli_exit_code_on_collision(tmp_path, capsys):
    cfg = {
        "system": "vortex",
        "method": "pihajoki",
        "dt": 0.05,
        "t_end": 1.0,
        "gammas": [1.0, 1.0],
        "positions": [[0.5, 0.5], [0.5, 0.5]],
    }
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    capsys.readouterr()


def test_cli_bench(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--preset", "testcase", "--method", "tao", "--t-end", "1.0", "--reps", "2", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "vf_avg=4.000" in capsys.readouterr().out


def test_cli_converge(capsys):
    code = main(
        [
            "converge",
            "--preset",
            "testcase",
            "--method",
            "pihajoki",
            "--t-end",
            "1.0",
            "--tol",
            "1e-13",
            "--dt-list",
            "0.1,0.05,0.025,0.0125",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "slope=" in out
    slope = float(out.strip().splitlines()[-1].split("=")[1])
    assert 1.8 <= slope <= 2.2


# --- CLI failure surface -----------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 300),
    st.sampled_from([10**400, -(10**400), 1e308, -1e308, 1e-320]),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    NUMBERS,
    st.lists(st.one_of(NUMBERS, st.text(max_size=2)), max_size=5),
    st.lists(st.lists(NUMBERS, max_size=3), max_size=5),
)


def base_configs(x):
    """One flat config per system, each with ``x`` as one entry of its initial data."""
    return [
        {"system": "testcase", "q0": [-1.0, x], "p0": [1.0, -1.0]},
        {"system": "nls", "d": 2, "q0": [x, 0.1], "p0": [0.5, 0.0]},
        {"system": "vortex", "gammas": [1.0, -2.0, x], "positions": [[1, 0], [-1, 0.5], [0, -1.5]]},
        {"system": "vortex", "gammas": [1.0, -2.0, 3.0], "positions": [[x, 0], [-1, 0.5], [0, -1]]},
    ]


SPEC_KEYS = [f.name for f in fields(ExperimentSpec)]


@st.composite
def flat_configs(draw):
    """A config of ``base_configs``, sometimes with a junk entry in its initial
    data, and with up to two fields (or an unknown key) set to junk."""
    x = draw(NUMBERS) if draw(st.integers(0, 3)) == 3 else 2.0
    config = draw(st.sampled_from(base_configs(x)))
    for key in draw(st.lists(st.sampled_from(SPEC_KEYS + ["bogus"]), max_size=2)):
        config[key] = draw(JUNK)
    return config


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=flat_configs())
@example(config={"system": "testcase", "q0": [1e200, 0]})
def test_a_spec_that_constructs_is_a_run_that_starts(config):
    # the spec checks its initial data, so the run's own build of the system cannot fail
    try:
        spec = make_spec(config)
    except (ConfigError, VortexCollision):
        return
    harness.build_system(spec)


@pytest.mark.parametrize("big", [10**20, -(2**64), 2**1000], ids=["1e20", "-2^64", "2^1000"])
def test_a_spec_integer_past_64_bits_reads_as_its_float(big):
    # the spec's number rule takes any integer a float holds; the array reader
    # reads it as that float, though NumPy keeps it as an object
    def built(config):
        try:
            return harness.build_system(make_spec(config))[1].tobytes()
        except (ConfigError, VortexCollision) as error:
            return repr(error)

    for config, floated in zip(base_configs(big), base_configs(float(big))):
        assert built(config) == built(floated), config
    if abs(big) < 1e100:  # the lattice state then builds
        assert isinstance(built(base_configs(big)[1]), bytes)


# per option: values a run mostly accepts, then values it mostly rejects
OPTIONS = {
    "--method": (["pihajoki", "tao", "semiexplicit", "gl2", "gl4", "gl6"], ["rk4", "gl"]),
    "--order": (["2", "4", "6"], ["3", "x"]),
    "--composition": (["triple_jump", "suzuki", "yoshida"], ["single", "bogus"]),
    "--omega": (["10", "0", "1e3"], ["-1", "nan", "inf", "1e308"]),
    "--tol": (["1e-10", "1e-12", "1e-6"], ["1e-17", "0", "nan", "inf"]),
    "--stride": (["1", "3"], ["0", "-1", "x"]),
    "--reps": (["1", "2"], ["0", "x"]),
    "--dt": (["0.01", "0.05", "0.1"], ["0", "-0.1", "nan", "inf", "1e400", "x"]),
    "--max-iter": (["50", "200"], ["1", "0", "-3", "2.5"]),
}
SPEC_FLAGS = ["--method", "--order", "--composition", "--omega", "--tol"]
COMMAND_FLAGS = {"run": ["--stride", "--record-state"], "bench": ["--reps"], "converge": []}
PREFIX_FLAGS = ["--d", "--om", "--rep"]  # prefixes of --dt, --omega and --reps, all refused


def _pick(draw, choices):
    """One of ``choices``, from its second list about one time in eight
    (the draw that hypothesis starts from picks the first)."""
    good, bad = choices
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))


@st.composite
def cli_argvs(draw, tmp: Path):
    """An argv for ``cli.main``; a run it lets start is at most 20 steps of
    at most 200 iterations each (and at most 2 repetitions)."""
    command = _pick(draw, (["run", "bench", "converge"], ["walk"]))
    argv = [command]
    source = _pick(draw, (["preset", "config"], ["both", "neither"]))
    if source in ("preset", "both"):
        argv += ["--preset", _pick(draw, (sorted(PRESETS), ["nope"]))]
    if source in ("config", "both"):
        config = draw(flat_configs())
        path = tmp / "config.json"
        path.write_text(_pick(draw, ([json.dumps(config)], ["not json", "[1, 2]"])))
        argv += ["--config", str(path)]
    dt = _pick(draw, OPTIONS["--dt"])
    # a whole number of steps, at most 20, when dt is one a run accepts
    horizon = draw(st.integers(1, 20)) * float(dt) if dt in OPTIONS["--dt"][0] else 1.0
    t_end = repr(horizon) if dt in OPTIONS["--dt"][0] else dt
    argv += ["--dt", dt, "--t-end", t_end, "--max-iter", _pick(draw, OPTIONS["--max-iter"])]
    if command == "converge" or draw(st.integers(0, 7)) == 7:
        # four halvings of t_end, so that the reference run is 320 steps
        halvings = ",".join(repr(horizon / 2**i) for i in range(1, 5))
        bad = ["0.1,0.05,0.025,0", "0.1,0.05", "a,b", "-0.1,-0.2,-0.4,-0.8"]
        argv += ["--dt-list", _pick(draw, ([halvings], bad))]
    # mostly the flags the command takes, sometimes one it does not
    flags = SPEC_FLAGS + COMMAND_FLAGS.get(command, [])
    if draw(st.integers(0, 7)) == 7:
        flags = flags + ["--stride", "--reps", "--bogus", *PREFIX_FLAGS]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        if flag == "--record-state":
            argv += [flag]
        else:
            argv += [flag, _pick(draw, OPTIONS.get(flag, (["1"], ["x"])))]
    for flag, name in (("--out", "out.csv"), ("--svg", "out.svg")):
        if command != "converge" and draw(st.booleans()) and (flag == "--out" or command == "run"):
            argv += [flag, str(tmp / _pick(draw, ([name], [f"missing/{name}"])))]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_returns_a_documented_exit_code(tmp_path_factory, data):
    argv = data.draw(cli_argvs(tmp_path_factory.getbasetemp()))
    # a leaked RuntimeWarning is an error here too (pyproject filterwarnings)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if set(argv) & set(PREFIX_FLAGS):
        assert code == 4, argv
