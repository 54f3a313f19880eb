"""Command-line front end: solve / classify / sweep / simulate / weakcheck / delta.

Configuration comes from flags plus an optional JSON file (flags override the
file; unknown file keys are rejected).  OPTIONS is the one place an option is
defined: its flag, check, default and help; _COMMANDS gives each command its
flags.  Outputs are deterministic CSV files and static SVG plots under --out
(or $AWRLAB_OUT, or ./awrlab_out).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from typing import Callable, NamedTuple

# Each command imports the modules it runs, so no command loads a solver it
# does not call, and only simulate loads numpy (through fv).
from .core import (
    ORIGINAL, PERTURBED, TRANSPORT, BracketError, PressureParams, State, default_schedule,
)
from .io import emit_csv, emit_svg_plot

DELTA_KINDS = ("transport", "special", "both")
SWEEP_COLUMNS = ["A", "B", "rho_star", "u_star", "sigma1", "sigma2", "product", "A_rho_star"]


class ConfigError(ValueError):
    pass


def _real(v) -> float | None:
    """``v`` as a float when it is a finite JSON number, else None."""
    # type(), not isinstance: JSON true and false parse to bool, an int;
    # math.isfinite raises OverflowError on an int too large for a float
    return float(v) if type(v) in (int, float) and math.isfinite(v) else None


def _reals(v) -> list[float] | None:
    """``v`` as a list of floats when it is a list of finite JSON numbers, else None."""
    if not isinstance(v, list):
        return None
    reals = [_real(x) for x in v]
    return None if None in reals else reals


def _state(v) -> State:
    # a flag gives a string; a JSON config gives a string or any JSON value
    if isinstance(v, str):
        try:
            u_s, rho_s = v.split(",")
            return State(float(u_s), float(rho_s))
        except ValueError as exc:
            raise ConfigError(f"state must be 'u,rho' with positive entries: {exc}") from exc
    pair = _reals(v)
    if pair is None or len(pair) != 2:
        raise ConfigError(f"expected 'u,rho' or a pair of numbers, got {v!r}")
    return State(*pair)


def _schedule(v) -> list[float] | tuple[float, ...] | None:
    """A list of numbers as it is, or 'lo:hi[:n]' as its log-uniform schedule."""
    if not isinstance(v, str):
        return _reals(v)
    try:
        lo, hi, *n = v.split(":")
        lo, hi, n = float(lo), float(hi), [int(k) for k in n]
        if len(n) > 1 or not (math.isfinite(lo) and 0.0 < hi < lo):
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"expected 'lo:hi[:n]' with finite lo > hi > 0 and an integer n, got {v!r}"
        ) from None
    return default_schedule(lo, hi, *n)


class Option(NamedTuple):
    """One option.  ``flag`` holds the argparse keywords of its flag (None for
    a config-only key); ``check`` returns a given value, converted, or None to
    refuse it as not ``expected`` (a check that raises ValueError states its
    own reason); a None ``default`` leaves the option unset."""

    flag: dict | None
    check: Callable
    expected: str | None
    default: object = None
    help: str | None = None


def _choice(choices: tuple) -> tuple:
    check = lambda v: v if v in choices else None
    return {"choices": choices}, check, "one of " + ", ".join(choices)


def _at_least(least: int) -> tuple:
    check = lambda v: v if type(v) is int and v >= least else None
    return {"type": int}, check, f"an integer >= {least}"


def _number_in(interval: str, inside: Callable[[float], bool]) -> tuple:
    check = lambda v: x if (x := _real(v)) is not None and inside(x) else None
    return {"type": float}, check, "a number in " + interval


def _seed(v) -> int | None:
    """``v`` when it is an integer MT19937 takes as a seed (32 bits)."""
    if type(v) is not int:
        return None
    if not 0 <= v < 2**32:
        raise ValueError(f"must lie between 0 and 2**32 - 1, got {v}")
    return v


_NUMBER = ({"type": float}, _real, "a number")
_STRING = ({}, lambda v: v if isinstance(v, str) else None, "a string")
_STATE = ({}, _state, None)

# Every option, whichever commands read it: the keys of a JSON config, and
# the flags of the commands in _COMMANDS.
OPTIONS = {
    "system": Option(*_choice((ORIGINAL, PERTURBED, TRANSPORT))),
    "A": Option(*_NUMBER),
    "B": Option(*_NUMBER),
    "alpha": Option(*_NUMBER),
    "left": Option(*_STATE, help="left state as 'u,rho'"),
    "right": Option(*_STATE, help="right state as 'u,rho'"),
    "out": Option(*_STRING, help="output directory (default $AWRLAB_OUT)"),
    "seed": Option({"type": int}, _seed, "an integer", 0),
    "samples": Option(*_at_least(2), 401),
    "schedule": Option(
        {}, _schedule, "a 'lo:hi[:n]' string or a list of numbers",
        default_schedule(1e-1, 1e-6), "coupled A=B schedule as 'lo:hi[:n]'",
    ),
    "grid": Option(*_at_least(16), help="number of cells"),
    "cfl": Option(*_number_in("(0, 0.9]", lambda x: 0.0 < x <= 0.9), 0.5),
    "T": Option(*_number_in("(0, inf)", lambda x: x > 0.0), help="end time"),
    "xmin": Option(*_NUMBER, -1.0),
    "xmax": Option(*_NUMBER, 1.5),
    "log_density": Option(
        {"action": "store_true", "default": None},
        lambda v: v if type(v) is bool else None, "true or false", False,
    ),
    "tol": Option(*_NUMBER, 1e-8),
    "bumps": Option(*_at_least(1), 5, "number of test functions"),
    "kind": Option(*_choice(DELTA_KINDS), "both"),
    "snapshot_times": Option(None, _reals, "a list of numbers"),
}
# the flags of every command, before its own
_COMMON = ("system", "A", "B", "alpha", "left", "right", "out")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="awrlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_run, help_text, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in _COMMON + own:
            option = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=option.help, **option.flag)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over the optional JSON config, check every value
    against OPTIONS and fill in the defaults."""
    cfg = {}
    if args.config:
        import json
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object, got {cfg!r}")
        unknown = set(cfg) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**cfg, **{k: v for k, v in vars(args).items() if v is not None}}
    opts = {}
    for key, option in OPTIONS.items():
        value = merged.get(key)
        try:
            opts[key] = option.default if value is None else option.check(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if opts[key] is None and value is not None:
            raise ConfigError(f"{key} must be {option.expected}, got {value!r}")
    return opts


def _require(opts: dict, *keys: str) -> tuple:
    for key in keys:
        if opts[key] is None:
            raise ConfigError(f"missing required option --{key}")
    return tuple(opts[key] for key in keys)


def _params(opts: dict, system: str) -> PressureParams:
    return PressureParams(*_require(opts, "A", "B", "alpha"), system=system)


def _output(opts: dict, *name: str) -> str:
    """The output directory, or the path of ``name`` in it; the writers make it."""
    return os.path.join(opts["out"] or os.environ.get("AWRLAB_OUT") or "awrlab_out", *name)


def _exact(opts: dict, system: str, classify: bool = False):
    """The exact solution of the data under ``system`` and the xi-window that
    shows its waves, or with ``classify`` a pressured system's region label.
    Each solver is imported here, so no command loads one it does not run, and
    read off its module at each call, where tests and perfbench's tracer
    replace it."""
    left, right = _require(opts, "left", "right")
    if system == TRANSPORT:
        from . import transport
        sol = transport.transport_solve(left, right)
        return sol, (min(left.u, right.u) - 1.0, max(left.u, right.u) + 1.0)
    if system == ORIGINAL:
        from . import original
        run = original.classify if classify else original.solve
    else:
        from . import perturbed
        run = perturbed.classify_perturbed if classify else perturbed.solve_perturbed
    result = run(_params(opts, system), left, right)
    return result if classify else (result, _wave_window(result))


def _wave_window(sol) -> tuple[float, float]:
    edges = [edge for wave in sol.waves for edge in wave.edges] or [sol.left.u]
    lo, hi = min(edges), max(edges)
    pad = max(1.0, 0.25 * (hi - lo))
    return lo - pad, hi + pad


def _time_tag(t: float) -> str:
    """``t`` as snapshot file names spell it: 0.2 -> 0p2."""
    return f"{t:.6f}".rstrip("0").rstrip(".").replace(".", "p")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from lo to hi, equal bit for bit to
    numpy.linspace(lo, hi, n)."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _cmd_solve(opts: dict) -> int:
    system = _require(opts, "system")[0]
    sol, (lo, hi) = _exact(opts, system)
    xs = _linspace(lo, hi, opts["samples"])
    us, rhos = zip(*map(sol.sample, xs))
    profile = _output(opts, "profile.csv")
    emit_csv(["xi", "u", "rho"], zip(xs, us, rhos), profile)
    emit_svg_plot(
        {"u": (xs, us), "rho": (xs, rhos)},
        _output(opts, "profile.svg"),
        title=f"{system} Riemann profile",
    )
    print(f"wrote {opts['samples']} samples to {profile}")
    return 0


def _cmd_classify(opts: dict) -> int:
    system = _require(opts, "system")[0]
    if system == TRANSPORT:
        print(f"transport solution kind: {_exact(opts, system)[0].kind}")
    else:
        print(f"region: {_exact(opts, system, classify=True).value}")
    return 0


def _cmd_sweep(opts: dict) -> int:
    system, left, right = _require(opts, "system", "left", "right")
    from . import transport
    runner = transport.sweep_original if system == ORIGINAL else transport.sweep_perturbed
    report = runner(left, right, *_require(opts, "alpha"), opts["schedule"])
    if report.records:
        rows = [tuple(getattr(r, c) for c in SWEEP_COLUMNS) for r in report.records]
        emit_csv(SWEEP_COLUMNS, rows, _output(opts, f"sweep_{system}.csv"))
        emit_svg_plot(
            {
                "rho_star": ([r.A for r in report.records], [r.rho_star for r in report.records]),
            },
            _output(opts, f"sweep_{system}_rho_star.svg"),
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
    system, left, right = _require(opts, "system", "left", "right")
    params = _params(opts, system)
    n_cells, t_end = _require(opts, "grid", "T")
    if not opts["xmin"] < opts["xmax"]:
        raise ConfigError(f"xmin must lie below xmax, got {opts['xmin']!r} and {opts['xmax']!r}")
    grid = fv.GridConfig(opts["xmin"], opts["xmax"], n_cells, opts["cfl"], t_end)
    try:
        times = fv.snapshot_schedule(opts["snapshot_times"], t_end)
    except ValueError as exc:
        raise ConfigError(f"snapshot_times: {exc}") from exc
    # sorted times, so two that share a file name are neighbours
    for a, b in zip(times, times[1:]):
        if _time_tag(a) == _time_tag(b):
            raise ConfigError(
                f"snapshot_times: {a!r} and {b!r} both write snapshot_t{_time_tag(a)}.csv"
            )
    snaps = fv.simulate(system, params, left, right, grid, times)
    t_prev, floored_prev = 0.0, 0
    for snap in snaps:
        x, rho, u = snap.x.tolist(), snap.rho.tolist(), snap.u.tolist()
        tag = _time_tag(snap.time)
        emit_csv(
            ["x", "rho", "u", "q1", "q2", "t"],
            zip(x, rho, u, snap.q1.tolist(), snap.q2.tolist(), [snap.time] * len(x)),
            _output(opts, f"snapshot_t{tag}.csv"),
        )
        emit_svg_plot(
            {"rho": (x, rho)},
            _output(opts, f"snapshot_t{tag}_rho.svg"),
            title=f"density at t={snap.time:.4f}",
            log_y=opts["log_density"],
        )
        emit_svg_plot(
            {"u": (x, u)},
            _output(opts, f"snapshot_t{tag}_u.svg"),
            title=f"velocity at t={snap.time:.4f}",
        )
        # floored_cells counts from t = 0; report each interval's increase
        if snap.floored_cells > floored_prev:
            print(
                f"warning: density floor triggered in {snap.floored_cells - floored_prev}"
                f" cell-updates over t in ({t_prev:g}, {snap.time:g}]"
            )
        t_prev, floored_prev = snap.time, snap.floored_cells
    print(f"wrote {len(snaps)} snapshot(s) to {_output(opts)}")
    return 0


def _legacy_random(seed: int) -> random.Random:
    """A generator whose ``uniform`` draws equal, bit for bit, those of
    ``numpy.random.RandomState(seed)``: both are MT19937 seeded by
    init_genrand and draw 53-bit doubles alike."""
    mt = [seed]
    for i in range(1, 624):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    rng = random.Random()
    rng.setstate((3, (*mt, 624), None))
    return rng


def _cmd_weakcheck(opts: dict) -> int:
    from . import perturbed
    sol, (lo, hi) = _exact(opts, opts["system"] or PERTURBED)
    rng = _legacy_random(opts["seed"])
    centers = sorted(rng.uniform(lo + 1.0, hi - 1.0) for _ in range(opts["bumps"]))
    worst = 0.0
    rows = []
    for c in centers:
        bump = perturbed.BumpTestFunction(c, 1.0)
        r1, r2 = perturbed.weak_form_residual(sol.params, sol, bump)
        worst = max(worst, abs(r1), abs(r2))
        rows.append((c, 1.0, r1, r2))
        print(f"bump center={c:+.6f}: r1={r1:+.3e} r2={r2:+.3e}")
    emit_csv(["center", "width", "r1", "r2"], rows, _output(opts, "weakcheck.csv"))
    print(f"max |residual| = {worst:.3e} (tol {opts['tol']:.3e})")
    return 0 if worst <= opts["tol"] else 2


def _cmd_delta(opts: dict) -> int:
    from . import transport
    left, right = _require(opts, "left", "right")
    kind = opts["kind"]
    if not right.u < left.u:
        raise ConfigError("delta shocks require u+ < u-")
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
    emit_csv(
        ["kind", "sigma", "weight_rate", "r_mass", "r_momentum", "entropy"],
        rows,
        _output(opts, "delta.csv"),
    )
    return 0


# each command's function, help and own flags
_COMMANDS = {
    "solve": (_cmd_solve, "sample an exact Riemann solution", ("samples",)),
    "classify": (_cmd_classify, "report the phase-plane region of the data", ()),
    "sweep": (_cmd_sweep, "vanishing-pressure sweep with verdicts", ("schedule",)),
    "simulate": (
        _cmd_simulate, "finite-volume run on Riemann data",
        ("grid", "cfl", "T", "xmin", "xmax", "log_density"),
    ),
    "weakcheck": (
        _cmd_weakcheck, "weak-formulation residuals of an exact solution",
        ("tol", "bumps", "seed"),
    ),
    "delta": (_cmd_delta, "transport-limit delta shock report", ("kind",)),
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        if args.command in ("sweep", "simulate", "weakcheck") and opts["system"] == TRANSPORT:
            raise ConfigError(f"{args.command} requires a pressured system (original|perturbed)")
        return _COMMANDS[args.command][0](opts)
    except (ConfigError, ValueError, OSError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
