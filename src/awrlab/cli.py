"""Command-line front end: solve / classify / sweep / simulate / weakcheck / delta.

Configuration comes from flags plus an optional JSON file (flags override the
file; unknown file keys are rejected).  Outputs are deterministic CSV files
and static SVG plots under --out (or $AWRLAB_OUT, or ./awrlab_out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# numpy is imported only inside the two commands that compute with it
# (simulate, through fv, and weakcheck), so the other four start without it.
from . import original, perturbed, transport
from .core import ORIGINAL, PERTURBED, TRANSPORT, PressureParams, State
from .io import emit_csv, emit_svg_plot
from .rootfind import BracketError

SWEEP_COLUMNS = ["A", "B", "rho_star", "u_star", "sigma1", "sigma2", "product", "A_rho_star"]

_CONFIG_KEYS = {
    "system", "A", "B", "alpha", "left", "right", "schedule", "grid",
    "cfl", "T", "out", "seed", "samples", "xmin", "xmax", "kind",
    "tol", "bumps", "log_density", "snapshot_times",
}


class ConfigError(ValueError):
    pass


def _parse_state(text: str) -> State:
    try:
        u_s, rho_s = text.split(",")
        return State(float(u_s), float(rho_s))
    except ValueError as exc:
        raise ConfigError(f"state must be 'u,rho' with positive entries: {exc}") from exc


def _parse_schedule(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"schedule must be 'lo:hi[:n]', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    n = int(parts[2]) if len(parts) == 3 else 6
    if lo <= 0 or hi <= 0 or hi >= lo:
        raise ConfigError("schedule must decrease through positive values")
    return transport.default_schedule(lo, hi, n)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="awrlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--system", choices=[ORIGINAL, PERTURBED, TRANSPORT])
        p.add_argument("--A", type=float)
        p.add_argument("--B", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--left", help="left state as 'u,rho'")
        p.add_argument("--right", help="right state as 'u,rho'")
        p.add_argument("--out", help="output directory (default $AWRLAB_OUT)")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("solve", help="sample an exact Riemann solution")
    common(p)
    p.add_argument("--samples", type=int)

    p = sub.add_parser("classify", help="report the phase-plane region of the data")
    common(p)

    p = sub.add_parser("sweep", help="vanishing-pressure sweep with verdicts")
    common(p)
    p.add_argument("--schedule", help="coupled A=B schedule as 'lo:hi[:n]'")

    p = sub.add_parser("simulate", help="finite-volume run on Riemann data")
    common(p)
    p.add_argument("--grid", type=int, help="number of cells")
    p.add_argument("--cfl", type=float)
    p.add_argument("--T", type=float, help="end time")
    p.add_argument("--xmin", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--log-density", action="store_true", default=None, dest="log_density")

    p = sub.add_parser("weakcheck", help="weak-formulation residuals of an exact solution")
    common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--bumps", type=int, help="number of test functions")

    p = sub.add_parser("delta", help="transport-limit delta shock report")
    common(p)
    p.add_argument("--kind", choices=["transport", "special", "both"])
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over the optional JSON config; validate keys."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: line {exc.lineno}: {exc.msg}") from exc
        unknown = set(cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _require(opts: dict, key: str):
    if key in opts and opts[key] is not None:
        return opts[key]
    raise ConfigError(f"missing required option --{key}")


def _states(opts: dict) -> tuple[State, State]:
    left = opts.get("left")
    right = opts.get("right")
    if left is None or right is None:
        raise ConfigError("both --left and --right are required")

    def state(key: str, value) -> State:
        # a flag gives a string; a JSON config gives a string or any JSON value
        try:
            if isinstance(value, str):
                return _parse_state(value)
            pair = isinstance(value, list) and len(value) == 2
            # type(), not isinstance: JSON true and false parse to bool, an int
            if not (pair and all(type(v) in (int, float) for v in value)):
                raise ConfigError(f"expected 'u,rho' or a pair of numbers, got {value!r}")
            return State(float(value[0]), float(value[1]))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    return state("left", left), state("right", right)


def _count(opts: dict, key: str, default: int, least: int) -> int:
    value = opts.get(key)
    if value is None:
        return default
    # type(), not isinstance: JSON true and false parse to bool, an int
    if type(value) is not int or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _params(opts: dict, system: str) -> PressureParams:
    return PressureParams(
        float(_require(opts, "A")),
        float(_require(opts, "B")),
        float(_require(opts, "alpha")),
        system=system,
    )


def _out_dir(opts: dict) -> str:
    out = opts.get("out") or os.environ.get("AWRLAB_OUT") or "awrlab_out"
    os.makedirs(out, exist_ok=True)
    return out


def _wave_window(sol) -> tuple[float, float]:
    edges = [edge for wave in sol.waves for edge in wave.edges] or [sol.left.u]
    lo, hi = min(edges), max(edges)
    pad = max(1.0, 0.25 * (hi - lo))
    return lo - pad, hi + pad


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from lo to hi, equal bit for bit to
    numpy.linspace(lo, hi, n)."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _cmd_solve(opts: dict) -> int:
    system = _require(opts, "system")
    left, right = _states(opts)
    samples = _count(opts, "samples", 401, 2)
    if system == TRANSPORT:
        sol = transport.transport_solve(left, right)
        lo, hi = min(left.u, right.u) - 1.0, max(left.u, right.u) + 1.0
    else:
        params = _params(opts, system)
        sol = (original.solve if system == ORIGINAL else perturbed.solve_perturbed)(
            params, left, right
        )
        lo, hi = _wave_window(sol)
    rows = []
    for x in _linspace(lo, hi, samples):
        u, rho = sol.sample(x)
        rows.append((x, u, rho))
    out = _out_dir(opts)
    emit_csv(["xi", "u", "rho"], rows, os.path.join(out, "profile.csv"))
    emit_svg_plot(
        {
            "u": ([r[0] for r in rows], [r[1] for r in rows]),
            "rho": ([r[0] for r in rows], [r[2] for r in rows]),
        },
        os.path.join(out, "profile.svg"),
        title=f"{system} Riemann profile",
    )
    print(f"wrote {samples} samples to {os.path.join(out, 'profile.csv')}")
    return 0


def _cmd_classify(opts: dict) -> int:
    system = _require(opts, "system")
    left, right = _states(opts)
    if system == TRANSPORT:
        kind = transport.transport_solve(left, right).kind
        print(f"transport solution kind: {kind}")
        return 0
    params = _params(opts, system)
    if system == ORIGINAL:
        label = original.classify(params, left, right)
    else:
        label = perturbed.classify_perturbed(params, left, right)
    print(f"region: {label.value}")
    return 0


def _cmd_sweep(opts: dict) -> int:
    system = _require(opts, "system")
    if system == TRANSPORT:
        raise ConfigError("sweep requires a pressured system (original|perturbed)")
    left, right = _states(opts)
    alpha = float(_require(opts, "alpha"))
    schedule = opts.get("schedule") or "1e-1:1e-6"
    if isinstance(schedule, str):
        schedule = _parse_schedule(schedule)
    runner = transport.sweep_original if system == ORIGINAL else transport.sweep_perturbed
    report = runner(left, right, alpha, schedule)
    out = _out_dir(opts)
    if report.records:
        rows = [tuple(getattr(r, c) for c in SWEEP_COLUMNS) for r in report.records]
        emit_csv(SWEEP_COLUMNS, rows, os.path.join(out, f"sweep_{system}.csv"))
        emit_svg_plot(
            {
                "rho_star": ([r.A for r in report.records], [r.rho_star for r in report.records]),
            },
            os.path.join(out, f"sweep_{system}_rho_star.svg"),
            title="intermediate density vs A",
            log_y=True,
        )
    if report.threshold is not None:
        print(f"coupled region threshold A = B = {report.threshold:.12g}")
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(
            f"[{status}] {v.claim}: target={v.target:.10g} "
            f"achieved={v.achieved:.10g} tol={v.tolerance:.3g}"
        )
    return 0 if report.passed else 2


def _cmd_simulate(opts: dict) -> int:
    from . import fv

    system = _require(opts, "system")
    if system == TRANSPORT:
        raise ConfigError("simulate requires a pressured system (original|perturbed)")
    left, right = _states(opts)
    params = _params(opts, system)
    grid = fv.GridConfig(
        x_min=float(opts.get("xmin", -1.0)),
        x_max=float(opts.get("xmax", 1.5)),
        n_cells=int(_require(opts, "grid")),
        cfl=float(opts.get("cfl", 0.5)),
        t_end=float(_require(opts, "T")),
    )
    snaps = fv.simulate(system, params, left, right, grid, opts.get("snapshot_times"))
    out = _out_dir(opts)
    t_prev, floored_prev = 0.0, 0
    for snap in snaps:
        rows = list(
            zip(
                (float(v) for v in snap.x),
                (float(v) for v in snap.rho),
                (float(v) for v in snap.u),
                (float(v) for v in snap.q1),
                (float(v) for v in snap.q2),
                [snap.time] * len(snap.x),
            )
        )
        tag = f"{snap.time:.6f}".rstrip("0").rstrip(".").replace(".", "p")
        emit_csv(
            ["x", "rho", "u", "q1", "q2", "t"],
            rows,
            os.path.join(out, f"snapshot_t{tag}.csv"),
        )
        emit_svg_plot(
            {"rho": (list(map(float, snap.x)), list(map(float, snap.rho)))},
            os.path.join(out, f"snapshot_t{tag}_rho.svg"),
            title=f"density at t={snap.time:.4f}",
            log_y=bool(opts.get("log_density")),
        )
        emit_svg_plot(
            {"u": (list(map(float, snap.x)), list(map(float, snap.u)))},
            os.path.join(out, f"snapshot_t{tag}_u.svg"),
            title=f"velocity at t={snap.time:.4f}",
        )
        # floored_cells counts from t = 0; report each interval's increase
        if snap.floored_cells > floored_prev:
            print(
                f"warning: density floor triggered in {snap.floored_cells - floored_prev}"
                f" cell-updates over t in ({t_prev:g}, {snap.time:g}]"
            )
        t_prev, floored_prev = snap.time, snap.floored_cells
    print(f"wrote {len(snaps)} snapshot(s) to {out}")
    return 0


def _cmd_weakcheck(opts: dict) -> int:
    left, right = _states(opts)
    params = _params(opts, PERTURBED)
    tol = float(opts.get("tol", 1e-8))
    n_bumps = _count(opts, "bumps", 5, 1)
    seed = int(opts.get("seed", 0))
    sol = perturbed.solve_perturbed(params, left, right)
    lo, hi = _wave_window(sol)
    import numpy as np

    rng = np.random.RandomState(seed)
    centers = sorted(rng.uniform(lo + 1.0, hi - 1.0, size=n_bumps))
    worst = 0.0
    rows = []
    for c in centers:
        bump = perturbed.BumpTestFunction(float(c), 1.0)
        r1, r2 = perturbed.weak_form_residual(
            params, sol, bump, window=(lo - 2.0, hi + 2.0)
        )
        worst = max(worst, abs(r1), abs(r2))
        rows.append((float(c), 1.0, r1, r2))
        print(f"bump center={c:+.6f}: r1={r1:+.3e} r2={r2:+.3e}")
    out = _out_dir(opts)
    emit_csv(["center", "width", "r1", "r2"], rows, os.path.join(out, "weakcheck.csv"))
    print(f"max |residual| = {worst:.3e} (tol {tol:.3e})")
    return 0 if worst <= tol else 2


def _cmd_delta(opts: dict) -> int:
    left, right = _states(opts)
    kind = opts.get("kind", "both")
    if not right.u < left.u:
        print("error: delta shocks require u+ < u-", file=sys.stderr)
        return 1
    shocks = []
    if kind in ("transport", "both"):
        shocks.append(transport.transport_solve(left, right).delta)
    if kind in ("special", "both"):
        shocks.append(transport.special_delta(left, right))
    rows = []
    for d in shocks:
        r_mass, r_mom = transport.grh_residual(d)
        klass = transport.entropy_check(d)
        rows.append((d.kind, d.sigma, d.weight_rate, r_mass, r_mom, klass.value))
        print(
            f"{d.kind}: sigma={d.sigma:.12g} weight_rate={d.weight_rate:.12g} "
            f"entropy={klass.value} residuals=({r_mass:+.3e}, {r_mom:+.3e})"
        )
    out = _out_dir(opts)
    emit_csv(
        ["kind", "sigma", "weight_rate", "r_mass", "r_momentum", "entropy"],
        rows,
        os.path.join(out, "delta.csv"),
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "weakcheck": _cmd_weakcheck,
    "delta": _cmd_delta,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        return _COMMANDS[args.command](opts)
    except (ConfigError, ValueError, OSError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
