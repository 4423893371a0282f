"""Per-layer metrics derived from a traced run's spans.

``MOVES`` states, before any measurement, which end-to-end metric each
per-layer metric should move and on which workload.  A layer that does not
run on a workload reports 0 there.
"""

from __future__ import annotations

import statistics

from tracing import ROOT

MOVES = {
    "hamiltonians.grad.calls_per_step": "grads_per_step on all workloads",
    "hamiltonians.grad.us": "norm_steps_per_s, mainly on lattice-projected and vortex-gauss",
    "hamiltonians.grad.share": "norm_steps_per_s, mainly on lattice-projected and vortex-gauss",
    "hamiltonians.energy.us": "norm_steps_per_s on vortex-recorded only (per recorded row)",
    "splitting.step.calls_per_step": "grads_per_step and norm_steps_per_s on lattice-projected and vortex-recorded",
    "splitting.step.self_us": "norm_steps_per_s on lattice-projected and vortex-recorded; 0 on vortex-gauss",
    "splitting.coupling_flow.us": "norm_steps_per_s on vortex-recorded only",
    "projection.solve.iters_per_step": "passes_per_step, grads_per_step and norm_steps_per_s on lattice-projected only",
    "projection.solve.self_us_per_iter": "norm_steps_per_s on lattice-projected only",
    "projection.step.self_us": "norm_steps_per_s on lattice-projected only (embed, restrict, defect)",
    "implicit_rk.sweeps_per_step": "passes_per_step, grads_per_step and norm_steps_per_s on vortex-gauss only",
    "implicit_rk.self_us_per_sweep": "norm_steps_per_s on vortex-gauss only",
    "invariants.evaluate.calls_per_row": "norm_steps_per_s on vortex-recorded only",
    "invariants.evaluate.us": "norm_steps_per_s on vortex-recorded only",
    "harness.self_us_per_step": "norm_steps_per_s on all workloads",
    "harness.emit_csv.s": "norm_steps_per_s and peak_rss_mb on vortex-recorded",
    "harness.emit_svg.s": "norm_steps_per_s and peak_rss_mb on vortex-recorded",
    "harness.rows": "norm_steps_per_s and peak_rss_mb on vortex-recorded",
    "trace.overhead": "none: traced over untraced wall time, minus 1",
}

# Share of the traced reps' wall time that may fall outside every layer span.
WALL_MATCH = 1e-3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, untraced, traced) -> dict:
    """Per-layer metrics of the traced reps; checks the trace on the way."""
    spans = tracer.layers()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    steps = sum(r.steps for r in traced)
    passes = sum(r.passes for r in traced)
    rows = sum(r.rows for r in traced)
    wall = sum(r.seconds for r in traced)
    solve = "projection.solve" in spans
    sweeps = "implicit_rk.step" in spans
    _check(tracer, spans, traced, wall, solve)
    return {
        "hamiltonians.grad.calls_per_step": _ratio(calls("hamiltonians.grad"), steps),
        "hamiltonians.grad.us": 1e6 * _ratio(self_s("hamiltonians.grad"), calls("hamiltonians.grad")),
        "hamiltonians.grad.share": _ratio(self_s("hamiltonians.grad"), wall),
        "hamiltonians.energy.us": 1e6 * _ratio(self_s("hamiltonians.energy"), rows),
        "splitting.step.calls_per_step": _ratio(calls("splitting.step"), steps),
        "splitting.step.self_us": 1e6 * _ratio(self_s("splitting.step"), calls("splitting.step")),
        "splitting.coupling_flow.us": 1e6
        * _ratio(self_s("splitting.coupling_flow"), calls("splitting.coupling_flow")),
        "projection.solve.iters_per_step": _ratio(passes, steps) if solve else 0.0,
        "projection.solve.self_us_per_iter": 1e6 * _ratio(self_s("projection.solve"), passes) if solve else 0.0,
        "projection.step.self_us": 1e6 * _ratio(self_s("projection.step"), calls("projection.step")),
        "implicit_rk.sweeps_per_step": _ratio(passes, steps) if sweeps else 0.0,
        "implicit_rk.self_us_per_sweep": 1e6 * _ratio(self_s("implicit_rk.step"), passes) if sweeps else 0.0,
        "invariants.evaluate.calls_per_row": _ratio(calls("invariants.evaluate"), rows),
        "invariants.evaluate.us": 1e6 * _ratio(self_s("invariants.evaluate"), calls("invariants.evaluate")),
        "harness.self_us_per_step": 1e6 * _ratio(self_s("harness"), steps),
        "harness.emit_csv.s": _ratio(self_s("harness.emit_csv"), calls("harness.emit_csv")),
        "harness.emit_svg.s": _ratio(self_s("harness.emit_svg"), calls("harness.emit_svg")),
        "harness.rows": _ratio(rows, len(traced)),
        "trace.overhead": statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced)
        - 1.0,
    }


def _check(tracer, spans, traced, wall, solve) -> None:
    """The trace must see every gradient and inner step the program counted,
    and its self times must account for the traced wall time."""
    problems = []
    grads = sum(r.grads for r in traced)
    if spans.get("hamiltonians.grad", {}).get("calls", 0) != grads:
        problems.append("trace saw a different number of gradients than the program counted")
    if solve and spans.get("splitting.step", {}).get("calls", 0) != sum(r.passes for r in traced):
        problems.append("trace saw a different number of inner steps than projection iterations")
    covered = sum(own for name, own in zip(tracer.names, tracer.self_times()) if name != ROOT)
    if wall - covered > WALL_MATCH * wall:
        problems.append(f"layer self times sum to {covered:.6f}s against {wall:.6f}s wall")
    for rep in traced:
        rep.problems.extend(problems)
