"""The four benchmark workloads: seeded inputs, one op per input, output checks.

Each workload is an endless, seed-determined stream of ``Case`` objects.  A
case's ``run`` performs one closed-loop operation against awrlab, raises
``CheckFailed`` if the output is wrong, and returns the wave pattern it
produced (or None).  Draws are stratified (Latin hypercube within fixed
blocks) so that every run sees nearly the same mix of cheap and expensive
inputs.  No draw is ever discarded; each workload's draws lie where every
op succeeds.

All awrlab calls go through module attributes (``perturbed.solve_perturbed``
and so on) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from awrlab import core, fv, original, perturbed, transport

ORIGINAL, PERTURBED = core.ORIGINAL, core.PERTURBED
JUMP_TOL = 1e-9          # scaled jump-residual tolerance used by tier-1
WEAK_TOL = 1e-8          # weak-form residual tolerance (acceptance 9)
XI_POINTS = 33           # samples per exact solution in exact-batch
SMALL_PRESSURE = 1e-4    # threshold of the "A or B small" input property


class CheckFailed(Exception):
    """An op returned an output that failed its check."""


@dataclass
class Case:
    run: Callable[[], str | None]
    small_pressure: bool


@dataclass
class Workload:
    cases: Callable[[np.random.Generator, "Context"], Iterator[Case]]
    window: int              # ops whose counts and properties are reported; a
                             # whole number of op-kind cycles
    in_process: bool = True


@dataclass
class Context:
    """What a workload needs from the harness."""

    python: str
    env: dict
    tmp: str
    perfbench: str
    seed: int
    tracer: object = None


# -- input generation ----------------------------------------------------

def stratified(rng: np.random.Generator, dims: int, block: int = 16) -> Iterator[np.ndarray]:
    """Unit-cube points, a Latin hypercube of ``block`` points at a time."""
    while True:
        strata = rng.permuted(np.tile(np.arange(block), (dims, 1)), axis=1).T
        yield from (strata + rng.random((block, dims))) / block


def log_uniform(u, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** float(u)


def delta_data(u) -> tuple[core.State, core.State]:
    """Compressive data (u- > u+) around acceptance data (2,1) -> (1,2)."""
    return (core.State(log_uniform(u[0], 1.6, 2.5), log_uniform(u[1], 0.7, 1.3)),
            core.State(log_uniform(u[2], 0.8, 1.25), log_uniform(u[3], 1.6, 2.5)))


def vacuum_data(u) -> tuple[core.State, core.State]:
    """Expansive data (u- < u+) around acceptance data (1,1) -> (2,2)."""
    return (core.State(log_uniform(u[2], 0.8, 1.25), log_uniform(u[1], 0.7, 1.3)),
            core.State(log_uniform(u[0], 1.6, 2.5), log_uniform(u[3], 1.6, 2.5)))


# -- checks --------------------------------------------------------------

def wave_window(sol) -> tuple[float, float]:
    """Self-similar window around all waves, as the CLI computes it."""
    speeds = []
    for w in sol.waves:
        speeds += [w.speed] if hasattr(w, "speed") else [w.head, w.tail]
    if not speeds:
        speeds = [sol.left.u]
    lo, hi = min(speeds), max(speeds)
    pad = max(1.0, 0.25 * (hi - lo))
    return lo - pad, hi + pad


def _term_scale(system: str, p: core.PressureParams, s: core.State) -> float:
    """Largest term of the conserved momentum of ``s``."""
    div = 1.0 - p.alpha if system == PERTURBED else 1.0
    return max(s.rho * s.u, p.A * s.rho**2, p.B * s.rho ** (1.0 - p.alpha) / div)


def check_jumps(system: str, p: core.PressureParams, sol) -> None:
    """Both jump residuals of every shock, scaled by the terms they cancel."""
    if system == ORIGINAL:
        pairs = [(sol.left, sol.star, w.speed) for w in sol.waves
                 if isinstance(w, original.Shock)]
        residual = original.rh_residual
    else:
        states = (sol.left, sol.star, sol.right) if len(sol.waves) == 2 else (sol.left, sol.right)
        pairs = [(states[k], states[k + 1], w.speed) for k, w in enumerate(sol.waves)
                 if isinstance(w, perturbed.ShockWave)]
        residual = perturbed.rh_residual_perturbed
    for sl, sr, sigma in pairs:
        r1, r2 = residual(p, sl, sr, sigma)
        speed = max(1.0, abs(sigma), sl.u, sr.u)
        scale1 = speed * max(1.0, sl.rho, sr.rho)
        scale2 = speed * max(1.0, _term_scale(system, p, sl), _term_scale(system, p, sr))
        if not (abs(r1) <= JUMP_TOL * scale1 and abs(r2) <= JUMP_TOL * scale2):
            raise CheckFailed(f"jump residual ({r1:.3e}, {r2:.3e}) at sigma={sigma}")


def pattern(system: str, sol) -> str:
    kinds = "".join("R" if hasattr(w, "head") else "S" for w in sol.waves
                    if not isinstance(w, original.Contact))
    if system == ORIGINAL:
        return "original_fan" if kinds == "R" else "original_shock"
    return f"perturbed_{kinds}"


# -- exact-batch -----------------------------------------------------------

# The draw box holds only data on which every op succeeds.  Two edges bound
# it.  Slow low-density left states next to dense right states put the
# perturbed star state at u* <= 0 (InapplicableError; about 0.13% of
# perturbed draws with u and rho in [0.1, 10]); u in [2, 20] and rho in
# [0.3, 3] keep u* well above 0.  Small alpha and B with a large velocity
# gap put the original vacuum-side star density below 1e-120, where the
# star-state bisection stops at its iteration cap short of the root and the
# fan profile then raises BracketError; alpha >= 0.1 keeps it above 1e-75.
EXACT_U = (2.0, 20.0)
EXACT_RHO = (0.3, 3.0)
EXACT_ALPHA = (0.1, 0.95)


def exact_batch(rng: np.random.Generator, ctx: Context) -> Iterator[Case]:
    """Log-uniform A and B in [1e-6, 1], alpha in EXACT_ALPHA, u in EXACT_U
    and rho in EXACT_RHO.  Ops cycle through original compressive, perturbed
    compressive, original expansive and perturbed expansive data (u- > u+
    or u- < u+), each class with its own stratified stream, so every run has
    the same share of shocks and fans.  Each op solves, samples XI_POINTS
    across the wave window and checks every shock's jump residual."""
    streams = [stratified(rng, 7) for _ in range(4)]
    i = 0
    while True:
        system = ORIGINAL if i % 2 == 0 else PERTURBED
        compressive = i % 4 < 2
        u = next(streams[i % 4])
        alpha = log_uniform(u[0], *EXACT_ALPHA)
        B, A = log_uniform(u[1], 1e-6, 1.0), log_uniform(u[2], 1e-6, 1.0)
        u_hi, u_lo = sorted((log_uniform(u[3], *EXACT_U), log_uniform(u[5], *EXACT_U)),
                            reverse=compressive)
        left = core.State(u_hi, log_uniform(u[4], *EXACT_RHO))
        right = core.State(u_lo, log_uniform(u[6], *EXACT_RHO))

        def run(system=system, A=A, B=B, alpha=alpha, left=left, right=right):
            p = core.PressureParams(A, B, alpha, system=system)
            solver = original.solve if system == ORIGINAL else perturbed.solve_perturbed
            sol = solver(p, left, right)
            lo, hi = wave_window(sol)
            for xi in np.linspace(lo, hi, XI_POINTS):
                u_s, rho_s = sol.sample(float(xi))
                if not (math.isfinite(u_s) and rho_s >= 0.0 and math.isfinite(rho_s)):
                    raise CheckFailed(f"sample ({u_s}, {rho_s}) at xi={xi}")
            check_jumps(system, p, sol)
            return pattern(system, sol)

        yield Case(run, min(A, B) < SMALL_PRESSURE)
        i += 1


# -- limit-certify -------------------------------------------------------

SCHEDULE_ORIGINAL = transport.default_schedule(1e-1, 1e-6, 6)
SCHEDULE_PERTURBED = transport.default_schedule(1e-1, 1e-5, 5)
WEAK_FORM_A = 1e-2


def _weak_form(alpha: float, left: core.State, right: core.State) -> str:
    """Residuals at A = B = 1e-2 for a bump on each wave, as wide as a fan
    (0.5 on a shock), and one inside the region between the waves."""
    p = core.PressureParams(WEAK_FORM_A, WEAK_FORM_A, alpha, system=PERTURBED)
    sol = perturbed.solve_perturbed(p, left, right)
    bumps = [perturbed.BumpTestFunction(w.speed, 0.5) if hasattr(w, "speed") else
             perturbed.BumpTestFunction(0.5 * (w.head + w.tail), 0.5 * (w.tail - w.head))
             for w in sol.waves]
    if len(bumps) == 2:
        gap = bumps[1].center - bumps[0].center
        bumps.append(perturbed.BumpTestFunction(bumps[0].center + 0.5 * gap, 0.25 * gap))
    for bump in bumps:
        r1, r2 = perturbed.weak_form_residual(p, sol, bump)
        if not max(abs(r1), abs(r2)) <= WEAK_TOL:
            raise CheckFailed(f"weak-form residual ({r1:.3e}, {r2:.3e}) at {bump}")
    return pattern(PERTURBED, sol)


def limit_certify(rng: np.random.Generator, ctx: Context) -> Iterator[Case]:
    """Cycle of three ops: an original sweep to 1e-6 (compressive and
    expansive data in turn), then perturbed delta-forming and
    vacuum-forming certification (sweep to 1e-5, delta consistency for
    compressive data, weak form at A = 1e-2)."""
    streams = [stratified(rng, 5) for _ in range(3)]
    i = 0
    while True:
        kind = i % 3
        u = next(streams[kind])
        alpha = 0.3 + 0.2 * float(u[4])
        compressive = kind == 1 or (kind == 0 and (i // 3) % 2 == 0)
        left, right = delta_data(u) if compressive else vacuum_data(u)

        if kind == 0:
            def run(alpha=alpha, left=left, right=right, compressive=compressive):
                report = transport.sweep_original(left, right, alpha, SCHEDULE_ORIGINAL)
                if not report.passed:
                    raise CheckFailed("sweep_original verdict failed")
                return "original_shock" if compressive else "original_fan"
        else:
            def run(alpha=alpha, left=left, right=right, compressive=compressive):
                report = transport.sweep_perturbed(left, right, alpha, SCHEDULE_PERTURBED)
                if not report.passed:
                    raise CheckFailed("sweep_perturbed verdict failed")
                if compressive:
                    a = SCHEDULE_PERTURBED[-1]
                    rec = transport.limit_delta_consistency(left, right, alpha, a, a)
                    if not rec.mass_error <= 0.05 * abs(rec.mass_target):
                        raise CheckFailed(f"delta mass proxy off by {rec.mass_error:.3e}")
                return _weak_form(alpha, left, right)

        yield Case(run, True)
        i += 1


# -- fv-structure ----------------------------------------------------------

FV_GRIDS = (300, 900, 2700)
FV_DOMAIN = (-2.0, 3.0)
FV_T = 0.4
MASS_TOL = 1e-10
# The scheme's density peak trails sigma*t by 0.5 to 2.0 cells on these
# draws (1.6 on acceptance 10's single problem, which bounds it by 2 cells),
# so the peak is checked at 3 cells.  Weight and peak are checked on the
# finest grid only, as acceptance 10 does; at 300 cells no peak stands out.
PEAK_CELLS = 3.0
# (system, data, A, checks); L1 refinement is checked only where the star
# band is resolved on these grids: original vacuum data and perturbed
# two-shock data at A = 1e-2 (acceptance 10 uses the same split)
FV_FAMILIES = (
    (ORIGINAL, "delta", 1e-5, ("weight",)),
    (PERTURBED, "delta", 1e-5, ("weight", "peak")),
    (ORIGINAL, "vacuum", 1e-5, ("l1",)),
    (PERTURBED, "vacuum", 1e-5, ()),
    (PERTURBED, "delta", 1e-2, ("l1",)),
)
FV_PATTERNS = {(ORIGINAL, "delta"): "original_shock", (ORIGINAL, "vacuum"): "original_fan",
               (PERTURBED, "delta"): "perturbed_SS", (PERTURBED, "vacuum"): "perturbed_RR"}


def _fv_op(system, p, left, right, n, checks, ladder) -> None:
    grid = fv.GridConfig(FV_DOMAIN[0], FV_DOMAIN[1], n, cfl=0.5, t_end=FV_T)
    snap = fv.simulate(system, p, left, right, grid)[-1]
    # outflow boundaries keep the end states, so mass changes by the net
    # boundary flux while the waves stay inside the domain
    m0 = left.rho * -FV_DOMAIN[0] + right.rho * FV_DOMAIN[1]
    expect = m0 + FV_T * (left.rho * left.u - right.rho * right.u)
    if not abs(snap.total_mass() - expect) <= MASS_TOL * m0:
        raise CheckFailed(f"mass {snap.total_mass()!r} != {expect!r}")
    if "weight" in checks and n == FV_GRIDS[-1]:
        delta = transport.transport_solve(left, right).delta
        target = delta.weight_rate * math.hypot(1.0, delta.sigma) * FV_T
        w = fv.delta_weight_estimate(snap, left, right)
        if w is None or not abs(w - target) < 0.10 * target:
            raise CheckFailed(f"delta weight {w} vs {target}")
        x_peak = float(snap.x[np.argmax(snap.rho)])
        if "peak" in checks and not abs(x_peak - delta.sigma * FV_T) <= PEAK_CELLS * snap.dx:
            raise CheckFailed(f"delta peak at {x_peak}, expected {delta.sigma * FV_T}")
    if "l1" in checks:
        solver = original.solve if system == ORIGINAL else perturbed.solve_perturbed
        exact = solver(p, left, right)
        err = fv.l1_error_vs_exact(snap, exact.sample)
        if ladder and not err < ladder[-1]:
            raise CheckFailed(f"L1 error {err} did not fall below {ladder[-1]}")
        ladder.append(err)


def fv_structure(rng: np.random.Generator, ctx: Context) -> Iterator[Case]:
    """Each drawn problem runs on every grid of FV_GRIDS in turn; families
    cycle through FV_FAMILIES."""
    streams = [stratified(rng, 5) for _ in FV_FAMILIES]
    k = 0
    while True:
        fam = k % len(FV_FAMILIES)
        system, data, A, checks = FV_FAMILIES[fam]
        u = next(streams[fam])
        left, right = delta_data(u) if data == "delta" else vacuum_data(u)
        p = core.PressureParams(A, A, 0.4 + 0.2 * float(u[4]), system=system)
        ladder: list[float] = []
        for n in FV_GRIDS:
            def run(p=p, left=left, right=right, n=n, ladder=ladder, system=system,
                    checks=checks, name=FV_PATTERNS[system, data]):
                _fv_op(system, p, left, right, n, checks, ladder)
                return name

            yield Case(run, A < SMALL_PRESSURE)
        k += 1


# -- cli-batch -----------------------------------------------------------

def _cli_commands(u, seed: int, cycle: int):
    """(argv, expected exit code, CSV file, expected rows) for each
    subcommand, on small inputs drawn from ``u``."""
    system = ORIGINAL if cycle % 2 == 0 else PERTURBED
    alpha = 0.3 + 0.2 * float(u[4])
    comp, exp = delta_data(u), vacuum_data(u)
    data = comp if cycle % 4 < 2 else exp
    a = f"{log_uniform(u[5], 1e-3, 1e-1):.6g}"

    def states(pair):
        return ["--left", f"{pair[0].u:.6g},{pair[0].rho:.6g}",
                "--right", f"{pair[1].u:.6g},{pair[1].rho:.6g}"]

    common = ["--A", a, "--B", a, "--alpha", f"{alpha:.6g}"]
    schedule = "1e-1:1e-6:6" if system == ORIGINAL else "1e-1:1e-5:5"
    n_sched = 6 if system == ORIGINAL else 5
    return [
        (["solve", "--system", system, *common, *states(data), "--samples", "101"],
         0, "profile.csv", 101),
        (["classify", "--system", system, *common, *states(data)], 0, None, 0),
        (["sweep", "--system", system, "--alpha", f"{alpha:.6g}", *states(data),
          "--schedule", schedule], 0, f"sweep_{system}.csv", n_sched),
        (["simulate", "--system", system, *common, *states(data), "--grid", "300",
          "--T", "0.2"], 0, "snapshot_t0p2.csv", 300),
        (["weakcheck", "--A", "1e-2", "--B", "1e-2", "--alpha", f"{alpha:.6g}",
          *states(comp), "--bumps", "2", "--seed", str(seed)], 0, "weakcheck.csv", 2),
        (["delta", *states(comp)], 0, "delta.csv", 2),
    ]


def _csv_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def cli_batch(rng: np.random.Generator, ctx: Context) -> Iterator[Case]:
    """One fresh ``python -m awrlab.cli`` process per op, cycling through
    the six subcommands; checks the exit code and the CSV row count."""
    stream = stratified(rng, 6)
    op = 0
    cycle = 0
    while True:
        for argv, code, csv_name, rows in _cli_commands(next(stream), ctx.seed, cycle):
            out = os.path.join(ctx.tmp, f"op{op}")

            def run(argv=argv, code=code, csv_name=csv_name, rows=rows, out=out):
                _run_cli(ctx, argv + ["--out", out], code)
                if csv_name is not None:
                    got = _csv_rows(os.path.join(out, csv_name))
                    if got != rows:
                        raise CheckFailed(f"{csv_name}: {got} rows, expected {rows}")
                return None

            yield Case(run, argv[0] == "sweep")
            op += 1
        cycle += 1


def _run_cli(ctx: Context, argv: list[str], expected: int) -> None:
    tracer = ctx.tracer
    if tracer is None:
        cmd = [ctx.python, "-m", "awrlab.cli", *argv]
    else:
        child_out = os.path.join(ctx.tmp, "child_trace.json")
        cmd = [ctx.python, "-X", "importtime",
               os.path.join(ctx.perfbench, "cli_child.py"), child_out, *argv]
    proc = subprocess.run(cmd, env=ctx.env, cwd=ctx.tmp, capture_output=True,
                          text=True, timeout=120)
    if tracer is not None:
        with open(child_out, encoding="utf-8") as fh:
            tracer.merge(json.load(fh), under=tracer.stack[-1])
        os.remove(child_out)
    if proc.returncode != expected:
        raise CheckFailed(
            f"exit {proc.returncode}, expected {expected}: {proc.stderr.strip()[-300:]}"
        )


WORKLOADS = {
    "exact-batch": Workload(exact_batch, window=128),
    "limit-certify": Workload(limit_certify, window=12),
    "fv-structure": Workload(fv_structure, window=15),
    "cli-batch": Workload(cli_batch, window=6, in_process=False),
}
