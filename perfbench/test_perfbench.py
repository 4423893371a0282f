"""Tracing must not change what the program computes or counts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import extphase as xp  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from extphase import harness, projection, splitting  # noqa: E402
from tracing import TimingSystem, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_rep_matches_untraced_rep(name, tmp_path):
    runner = workloads.Runner(workloads.WORKLOADS[name], seed=7, out_dir=tmp_path)
    tracer = Tracer()
    plain = runner.rep()
    traced = runner.rep(tracer)
    assert plain.problems == [] and traced.problems == []
    assert (traced.grads, traced.passes, traced.steps) == (plain.grads, plain.passes, plain.steps)
    assert traced.state.tobytes() == plain.state.tobytes()
    layers.per_layer(tracer, [plain], [traced])
    assert traced.problems == []


def test_traced_run_restores_every_patched_attribute(tmp_path):
    runner = workloads.Runner(workloads.WORKLOADS["vortex-recorded"], seed=7, out_dir=tmp_path)
    runner.rep(Tracer())
    assert harness.tao_step is splitting.tao_step
    assert harness.semiexplicit_step is projection.semiexplicit_step
    assert projection.solve_mu.__module__ == "extphase.projection"
    assert harness.build_system.__module__ == "extphase.harness"
    assert xp.LinearInvariant.evaluate.__module__ == "extphase.invariants"


@pytest.mark.parametrize("timing_outside", [True, False])
def test_timing_system_charges_what_a_counting_system_charges(timing_outside):
    tracer = Tracer()
    counter = xp.EvalCounter()
    base = xp.make_nls(5)
    if timing_outside:
        system = TimingSystem(base.with_counter(counter), tracer)
    else:
        system = TimingSystem(base, tracer).with_counter(counter)
    cfg = xp.SolverConfig(tol=1e-10)
    z = np.array([3.0, 0.01, 0.01, 0.01, 0.01, 1.0, 0.0, 0.0, 0.0, 0.0])
    reference = z
    for _ in range(5):
        z, _stats = xp.semiexplicit_step(system, xp.pihajoki_step, 1e-3, z, cfg)
        reference, _stats = xp.semiexplicit_step(base, xp.pihajoki_step, 1e-3, reference, cfg)
    assert counter.n_grad == tracer.layers()["hamiltonians.grad"]["calls"] > 0
    assert z.tobytes() == reference.tobytes()
