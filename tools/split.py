"""Where a projected lattice step, a Gauss vortex sweep and a coupled vortex step spend their time.

Usage, from the repository root:

    python3 tools/split.py . --rounds 100
    python3 tools/split.py /path/to/parent/checkout . --rounds 100

Each given checkout's ``extphase`` is imported into this one process under
its own module objects, and ``timeit`` times the pieces of three
configurations at their presets' initial states:

- the projected lattice step of the lattice-projected workload
  (``nls_bench``, d=5, ``semiexplicit`` over ``pihajoki_step``, simplified
  Newton, ``tol=1e-10``, cold start): the whole step, its inner steps as
  they run inside it (a ``perf_counter`` pair around each), and one
  ``fields`` call on each of the strided ``FLOWS`` views ``(q, y)`` and
  ``(x, p)`` of the embedded point, which an inner step's kernel reads
  twice and once; and a ``CountingSystem`` around a kernel that returns its
  rows, against that kernel bare;
- a gl6 sweep of the vortex-gauss workload (``vortex10``, ``dt=0.1``,
  ``tol=1e-10``): the whole step and one ``fields`` call on its three stage
  rows;
- the coupled step of the vortex-recorded workload (``vortex4``, ``tao-2``,
  ``omega=10``): the whole ``tao_step`` on the embedded initial state, one
  ``fields`` call on its frozen ``(q, y)`` rows, and one ``coupling_flow``.

Each round times every piece of every checkout once, as 100 calls, in an
order that rotates from round to round, and a piece's time is its minimum
over the rounds, so that all pieces see the same swings of the host.  Each
timing follows untimed calls of the same piece, since the piece timed just
before leaves the caches to a different working set.  For each checkout
the script prints the projected step's kernel time (``passes`` times two
``(q, y)`` and one ``(x, p)`` fields call), the inner step's time outside the kernel per pass, the solve +
embed + finish time per step (the step minus its inner steps), and the
step's time outside the kernel against the kernel's, with the counting
wrapper's own cost per ``fields`` call (the counted call less the bare
one), which a metered run adds to each of them; then the sweep's time, split
into its ``fields`` call and the rest; then the coupled step's time, split
into its four ``fields`` calls, its ``coupling_flow`` and the rest.  The
solve + embed + finish time splits into the step's fixed time, embed +
finish, which is a step over an inner step that returns a copy of its
input (one pass, at ``mu = 0``) less ``solve_mu`` over that inner step,
and the solve's own time per pass, the rest over the passes.
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path
from time import perf_counter

from checkout import load  # before NumPy: it sets the BLAS thread count

import numpy as np

NUMBER = 100  # calls per timing


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, nargs="*", default=[Path(".")],
                        help="checkouts to import extphase from (default: .)")
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def timed(call):
    """Seconds per call of ``call``, as a function of the number of calls."""
    return lambda number: timeit.Timer(call).timeit(number) / number


def pieces(xp) -> tuple[dict, int, int]:
    """The timings of one checkout, and the step's passes and sweeps."""
    harness = xp.harness
    system, z, _ = harness.build_system(harness.preset("nls_bench", tol=1e-10))
    cfg = xp.SolverConfig(tol=1e-10)
    dt = 1e-3
    row = z.reshape(2, -1)
    passes = xp.semiexplicit_step(system, xp.pihajoki_step, dt, z, cfg)[1].iterations
    spent = [0.0]

    def timed_inner(system, dt, zeta):
        start = perf_counter()
        image = xp.pihajoki_step(system, dt, zeta)
        spent[0] += perf_counter() - start
        return image

    def inner_in_step(number):
        spent[0] = 0.0
        for _ in range(number):
            xp.semiexplicit_step(system, timed_inner, dt, z, cfg)
        return spent[0] / number

    def copy_inner(_system, _dt, zeta):  # on the diagonal: one pass, at mu = 0
        return zeta.copy()

    zeta = xp.embed(z)
    qy, xp_rows = xp.core.row_pairs(zeta, xp.core.FLOWS)  # the flows' points, strided

    class Rows(xp.HamiltonianSystem):  # a kernel that costs next to nothing
        dim = system.dim

        def energy(self, q, p):
            return 0.0

        def grad(self, q, p):
            return q, p

        def fields(self, rows):
            return rows

    bare = Rows()
    counted = bare.with_counter(xp.EvalCounter())
    gspec = harness.preset("vortex10", method="gl6", order=6, tol=1e-10, dt=0.1)
    vortices, w, _ = harness.build_system(gspec)
    tableau = xp.gl_tableau(6)
    stages = np.stack([w.reshape(2, -1)] * tableau.stages)
    sweeps = xp.gl_step(vortices, gspec.dt, w, tableau, cfg)[1].iterations
    tspec = harness.preset("vortex4", method="tao", order=2, omega=10.0)
    coupled, v, _ = harness.build_system(tspec)
    params, omega, vzeta = xp.TaoParams(tspec.omega), tspec.omega, xp.embed(v)
    frozen = xp.core.row_pairs(vzeta, xp.core.FLOWS)[0]  # (q, y), as the step's first flow reads it
    return {
        "step": timed(lambda: xp.semiexplicit_step(system, xp.pihajoki_step, dt, z, cfg)),
        "inner": inner_in_step,
        "copy_step": timed(lambda: xp.semiexplicit_step(system, copy_inner, dt, z, cfg)),
        "copy_solve": timed(lambda: xp.solve_mu(system, copy_inner, dt, zeta, cfg)),
        "fields_qy": timed(lambda: system.fields(qy)),
        "fields_xp": timed(lambda: system.fields(xp_rows)),
        "bare_rows": timed(lambda: bare.fields(row)),
        "counted_rows": timed(lambda: counted.fields(row)),
        "gl_step": timed(lambda: xp.gl_step(vortices, gspec.dt, w, tableau, cfg)),
        "gl_fields": timed(lambda: vortices.fields(stages)),
        "tao_step": timed(lambda: xp.tao_step(coupled, tspec.dt, vzeta, params)),
        "tao_fields": timed(lambda: coupled.fields(frozen)),
        "coupling_flow": timed(lambda: xp.splitting.coupling_flow(omega, tspec.dt, vzeta)),
    }, passes, sweeps


def interleaved_minima(timings: dict, rounds: int) -> dict:
    """Microseconds per call of each entry: its minimum over ``rounds``
    timings of :data:`NUMBER` calls, the entries timed in an order that
    rotates each round, each timing after a fifth as many untimed calls."""
    keys = list(timings)
    best = dict.fromkeys(keys, float("inf"))
    for k in range(rounds):
        for key in keys[k % len(keys):] + keys[:k % len(keys)]:
            timings[key](NUMBER // 5)  # warm-up, untimed
            best[key] = min(best[key], timings[key](NUMBER))
    return {key: 1e6 * seconds for key, seconds in best.items()}


def report(root: Path, us: dict, passes: int, sweeps: int) -> None:
    per_pass = 2 * us["fields_qy"] + us["fields_xp"]  # A(dt/2) B(dt) A(dt/2)
    kernel = passes * per_pass
    print(f"extphase from {root}")
    print(f"  projected lattice step (nls_bench, tol 1e-10, {passes} passes): "
          f"{us['step']:.1f} us")
    print(f"    kernel, {3 * passes} fields calls, on (q, y) {us['fields_qy']:.2f} us and "
          f"(x, p) {us['fields_xp']:.2f} us: {kernel:.1f} us/step")
    inner = us["inner"] / passes  # one inner step, as it runs inside the step
    print(f"    inner step outside the kernel: {inner - per_pass:.2f} us/pass "
          f"({inner:.2f} us per inner step)")
    fixed = us["copy_step"] - us["copy_solve"]  # embed + finish, as a step over a copy reads them
    solve = us["step"] - us["inner"] - fixed
    print(f"    solve + embed + finish: {us['step'] - us['inner']:.1f} us/step: "
          f"solve {solve / passes:.2f} us/pass, embed + finish {fixed:.2f} us/step")
    print(f"    outside the kernel: {us['step'] - kernel:.1f} us/step "
          f"against the kernel's {kernel:.1f}")
    print(f"    counting wrapper: {us['counted_rows'] - us['bare_rows']:.3f} us per fields call")
    sweep = us["gl_step"] / sweeps
    print(f"  gl6 vortex10 sweep ({sweeps} per step): {sweep:.2f} us, "
          f"fields {us['gl_fields']:.2f} us, the rest {sweep - us['gl_fields']:.2f} us")
    tao_kernel = 4 * us["tao_fields"]
    rest = us["tao_step"] - tao_kernel - us["coupling_flow"]
    print(f"  tao-2 vortex4 step: {us['tao_step']:.1f} us, 4 fields calls of "
          f"{us['tao_fields']:.2f} us: {tao_kernel:.1f} us, coupling_flow "
          f"{us['coupling_flow']:.2f} us, the rest {rest:.2f} us")


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = [pieces(load(root, "extphase")) for root in args.root]
    timings = {(i, name): t for i, (side, _, _) in enumerate(sides) for name, t in side.items()}
    us = interleaved_minima(timings, args.rounds)
    print(f"interleaved minima over {args.rounds} rounds of {NUMBER} calls")
    for i, (root, (_, passes, sweeps)) in enumerate(zip(args.root, sides)):
        report(root, {name: us[j, name] for j, name in timings if j == i}, passes, sweeps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
