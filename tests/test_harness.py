import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extphase import (
    ConfigError,
    ExperimentSpec,
    NonConvergence,
    PRESETS,
    TrajectoryRecord,
    benchmark,
    convergence_study,
    emit_csv,
    emit_svg,
    final_state,
    harness,
    load_config,
    load_csv,
    make_spec,
    preset,
    run_experiment,
)
from extphase.cli import main
from extphase.harness import emit_benchmark_csv


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
    assert ExperimentSpec(dt=0.25, t_end=1.0).n_steps == 4


def test_single_step_run_records_two_rows():
    spec = preset("testcase", method="semiexplicit", dt=0.1, t_end=0.1, tol=1e-12)
    record = run_experiment(spec)
    assert record.complete
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

    with pytest.raises(ConfigError):
        benchmark(spec, 0)


def test_benchmark_csv(tmp_path):
    spec = preset("testcase", method="tao", t_end=1.0)
    row = benchmark(spec, 1)
    from extphase.harness import emit_benchmark_csv

    path = tmp_path / "bench.csv"
    emit_benchmark_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,order,dt,t_end,tol,time_s,itr_avg,vf_avg,converged_steps,total_steps"
    assert lines[1].startswith("tao-2,2,")


def test_convergence_study_input_validation():
    spec = preset("testcase", tol=1e-13)
    with pytest.raises(ConfigError):
        convergence_study(spec, [0.1, 0.05, 0.025], t_end=1.0)
    with pytest.raises(ConfigError):
        convergence_study(spec, [0.1, 0.05, 0.03, 0.02], t_end=1.0)


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
        ["--solver", "foo"],
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
    # usage errors, and a step size that is not positive
    for argv in (
        ["run", "--preset", "nope"],
        ["bench", "--preset", "testcase", "--dt", "x"],
        ["converge", "--preset", "testcase", "--dt-list", "0.1,0.05,0.025,0"],
    ):
        assert main(argv) == 4, argv
    capsys.readouterr()


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


def test_cli_exit_code_on_nonconvergence(capsys):
    for argv in (
        ["--method", "pihajoki", "--t-end", "10.0"],
        # a state near float range overflows the defect norm before it leaves it
        ["--method", "pihajoki", "--dt", "0.05", "--t-end", "100"],
        ["--method", "tao", "--dt", "0.05", "--t-end", "100"],
    ):
        assert main(["run", "--preset", "nls_bench", *argv]) == 2, argv
        assert re.search(r"run incomplete at step \d+ \(t=[0-9.e+-]+\): ", capsys.readouterr().err)


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
# per option: values a run mostly accepts, then values it mostly rejects
OPTIONS = {
    "--method": (["pihajoki", "tao", "semiexplicit", "gl2", "gl4", "gl6"], ["rk4", "gl"]),
    "--order": (["2", "4", "6"], ["3", "x"]),
    "--composition": (["triple_jump", "suzuki", "yoshida"], ["single", "bogus"]),
    "--omega": (["10", "0", "1e3"], ["-1", "nan", "inf", "1e308"]),
    "--tol": (["1e-10", "1e-12", "1e-6"], ["1e-17", "0", "nan", "inf"]),
    "--solver": (["simplified_newton", "broyden"], ["newton"]),
    "--stride": (["1", "3"], ["0", "-1", "x"]),
    "--reps": (["1", "2"], ["0", "x"]),
    "--dt": (["0.01", "0.05", "0.1"], ["0", "-0.1", "nan", "inf", "1e400", "x"]),
    "--max-iter": (["50", "200"], ["1", "0", "-3", "2.5"]),
}
SPEC_FLAGS = ["--method", "--order", "--composition", "--omega", "--tol", "--solver"]
COMMAND_FLAGS = {"run": ["--stride", "--record-state"], "bench": ["--reps"], "converge": []}


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
        x = draw(NUMBERS) if draw(st.integers(0, 3)) == 3 else 2.0
        config = draw(st.sampled_from(base_configs(x)))
        for key in draw(st.lists(st.sampled_from(SPEC_KEYS + ["bogus"]), max_size=2)):
            config[key] = draw(JUNK)
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
        flags = flags + ["--stride", "--reps", "--bogus"]
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
