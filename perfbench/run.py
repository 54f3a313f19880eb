"""awrlab benchmark: one closed-loop client per workload, in one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-batch, limit-certify, fv-structure, cli-batch (see
``workloads.py`` and BENCHMARK.json for why each exists).

--trace 0 measures the end-to-end metrics with no wrappers installed:
  setup_s      median wall time of fresh ``python -c "import awrlab"`` runs,
               taken before the timed phase
  ops_per_s    ops that completed and passed their check, per second
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest of the percentiles 50/90/99/99.9 that
               has at least 10 samples beyond it (falls back to 50); the
               coarse list keeps each workload on one percentile from run
               to run
  ok_ratio     passed ops / attempted ops (1 - fail ratio; never 0, so it
               can carry a relative bound)
  peak_rss_mb  peak resident memory of the process doing the work: this
               process, or the largest CLI child for cli-batch
The four timings are scaled to a fixed host speed.  The shared 2-core host
this benchmark was built on drifts by up to 1.5x in speed over phases of
about a minute, longer than a run, so raw wall times of identical runs
spread by 20-50%.  A fixed reference computation (``SpeedProbe``, no awrlab
code) is timed between ops, at most every 0.1 s.  It has a callback part (a
Python function called from compiled code, as ``quad`` calls integrands)
and a NumPy array part.  op_p50_ms, set by short interpreter-bound ops, is
multiplied by REFERENCE_CALLBACK_S / (median callback-part time); setup_s,
ops_per_s and op_tail_ms, set by long ops that mix both kinds of work, by
REFERENCE_S / (median whole-probe time), set-up using its own probes.  Each
reads as wall time on a host where the probe takes the reference time; the
raw wall times and the factors are kept in the result record.  The run pins
itself, and so the CLI processes it starts, to one core of its affinity
set, because the probe only tracks the core it runs on.
--trace 1 installs the wrappers of ``tracer.py`` and reports the per-layer
metrics instead, with timings scaled the same way; counts, failures and
input shares cover the first ``window`` ops of the run, so they repeat
exactly on one seed.

A run lasts at least --seconds and ends after a whole number of windows, so
every run has the same mix of op kinds.  The last line of
stdout is the JSON result; the full record (environment stamp, percentile
and sample counts, failure classes, input shares) is written to
``perfbench/results/``, with the spans of a traced run next to it.
``correct`` is false when any op returned an output that failed its check;
ops that raise are counted in ``failed`` by exception class.  The program
is never modified: without ``src/awrlab`` next to this directory the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
PROBE_INTERVAL_S = 0.1
REFERENCE_S = 1.0e-3
REFERENCE_CALLBACK_S = 0.5e-3
FAIL_CLASSES = ("InapplicableError", "BracketError", "ZeroDivisionError", "ValueError")
PATTERNS = ("original_shock", "original_fan", "perturbed_SS", "perturbed_SR",
            "perturbed_RS", "perturbed_RR")


def _probe_integrand(t: float) -> float:
    return math.sqrt(0.3 * math.exp(t) + 0.2 * math.exp(-0.5 * t))


class SpeedProbe:
    """Times a fixed computation, at most once per PROBE_INTERVAL_S, to
    track the host's speed while the workload runs.  It mixes the two kinds
    of work awrlab does: a Python function called back from compiled code
    (as ``quad`` calls the integrands) and NumPy loops over cache-sized
    arrays (as the finite-volume kernel runs)."""

    def __init__(self):
        import numpy as np

        self._ts = [i * 1e-3 for i in range(3000)]
        self._y = np.linspace(0.1, 1.0, 4096)
        self.samples: list[float] = []
        self.parts: list[tuple[float, float]] = []  # (callback, array) times
        self._next = 0.0

    def measure(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        sum(map(_probe_integrand, self._ts))
        t1 = time.perf_counter()
        y = self._y
        for i in range(12):
            float(np.sum(np.sqrt(0.3 * np.exp(y * (1.0 + 0.01 * i)) + 0.2 * np.exp(-0.5 * y))))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.parts.append((t1 - t0, dt - (t1 - t0)))
        return dt

    def maybe(self) -> float:
        """Probe if the interval has passed; returns the time spent."""
        if time.perf_counter() < self._next:
            return 0.0
        dt = self.measure()
        self._next = time.perf_counter() + PROBE_INTERVAL_S
        return dt

    def scale(self) -> float:
        """Factor that turns raw wall times into reference-speed times."""
        return REFERENCE_S / statistics.median(self.samples)

    def callback_scale(self) -> float:
        """The same, from the callback part of the probe alone."""
        return REFERENCE_CALLBACK_S / statistics.median(p[0] for p in self.parts)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt, proc.stderr


def import_ms(importtime_log: str) -> dict[str, float]:
    """Self time per top-level package from ``-X importtime`` output, in ms."""
    totals = Counter()
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if self_us.isdigit():
            totals[name.split(".")[0]] += int(self_us) / 1e3
    return {pkg: totals[pkg] for pkg in ("awrlab", "scipy", "numpy")}


def environment() -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest listed percentile with at least
    TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            break
    ordered = sorted(latencies)
    return p, ordered[min(n - 1, int(p / 100.0 * n))]


def run_loop(cases, seconds: float, window: int, tracer, probe: SpeedProbe) -> dict:
    from workloads import CheckFailed

    latencies, outcomes, patterns, small = [], [], [], []
    messages: dict[str, str] = {}
    probing = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i % window or i < window or time.perf_counter() < deadline:
        probing += probe.maybe()
        case = next(cases)
        span = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        pat = None
        try:
            pat = case.run()
            outcome = "ok"
        except CheckFailed as exc:
            outcome = "check"
            messages.setdefault(outcome, str(exc))
        except Exception as exc:  # every failure is counted, by class
            outcome = type(exc).__name__
            messages.setdefault(outcome, str(exc))
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
        outcomes.append(outcome)
        patterns.append(pat)
        small.append(case.small_pressure)
        i += 1
    return {"wall": time.perf_counter() - start - probing, "latencies": latencies,
            "outcomes": outcomes, "patterns": patterns, "small": small,
            "messages": messages}


def window_stats(loop: dict, window: int) -> dict:
    """Failure counts and input-property shares over the first ``window`` ops."""
    outcomes = loop["outcomes"][:window]
    fails = Counter(o for o in outcomes if o != "ok")
    pats = Counter(p for p in loop["patterns"][:window] if p)
    return {
        "ops": len(outcomes),
        "fail": dict(fails),
        "share": {p: pats[p] / len(outcomes) for p in PATTERNS},
        "small_pressure": sum(loop["small"][:window]) / len(outcomes),
    }


def end_to_end(loop: dict, setup: list[float], in_process: bool, probe: SpeedProbe,
               setup_probe: SpeedProbe) -> tuple[dict, dict]:
    lat_ms = [x * 1e3 for x in loop["latencies"]]
    n = len(lat_ms)
    ok = loop["outcomes"].count("ok")
    pct, tail_ms = tail(lat_ms)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / loop["wall"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
    }
    scale = probe.scale()
    metrics = {
        "setup_s": (raw["setup_s"] * setup_probe.scale(), "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * probe.callback_scale(), "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "ok_ratio": (ok / n, "ratio"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setup), "ops_per_s": n, "op_p50_ms": n, "op_tail_ms": n,
               "ok_ratio": n, "peak_rss_mb": 1}
    return metrics, {"samples": samples, "op_tail_percentile": pct, "raw": raw,
                     "speed_scale": scale, "callback_speed_scale": probe.callback_scale(),
                     "setup_speed_scale": setup_probe.scale()}


def per_layer(tr, loop: dict, stats: dict, imports: dict, interpreter_ms: float,
              scale: float) -> dict:
    """Per-layer metrics; timings are scaled like the end-to-end ones."""
    import numpy as np

    from workloads import FV_GRIDS

    a = tr.arrays()
    c = tr.counts
    ops = len(loop["latencies"])

    def mask(name):
        return a["name_id"] == tr.names.index(name) if name in tr.names else np.zeros(
            len(a["dur"]), dtype=bool)

    def mean(name, key="dur", scale=1e3):
        m = mask(name)
        return float(a[key][m].mean() * scale) if m.any() else 0.0

    def per_op(name, key="self"):
        return float(a[key][mask(name)].sum() * 1e3 / ops)

    def ratio(num, den):
        return num / den if den else 0.0

    run_mask = mask("cli.run")
    io_mask = mask("io.csv") | mask("io.svg")
    io_child = np.zeros_like(a["dur"])
    np.add.at(io_child, a["parent"][io_mask], a["dur"][io_mask])
    cli_run = a["dur"][run_mask] - io_child[run_mask]
    op_mask = mask("op")
    sims = {}
    for idx, cells, steps in tr.sim_records:
        d, w = sims.get(cells, (0.0, 0))
        sims[cells] = (d + a["dur"][idx], w + cells * steps)
    fails = stats["fail"]

    m = {
        "rootfind.calls": (c["rootfind.calls"], "count"),
        "rootfind.evals": (c["rootfind.evals"], "count"),
        "rootfind.evals_per_call": (ratio(c["rootfind.evals"], c["rootfind.calls"]), "count"),
        "rootfind.expand_evals": (c["rootfind.expand_evals"], "count"),
        "rootfind.self_ms": (per_op("rootfind"), "ms"),
        "perturbed.solve_ms": (mean("perturbed.solve"), "ms"),
        "perturbed.solve_quad_calls": (
            ratio(c["perturbed.solve_quad_calls"], c["perturbed.solve_calls"]), "count"),
        "perturbed.sample_us.fan": (mean("perturbed.sample.fan", scale=1e6), "us"),
        "perturbed.sample_us.const": (mean("perturbed.sample.const", scale=1e6), "us"),
        "perturbed.fan_sample_quad_calls": (
            ratio(c["perturbed.fan_sample_quad_calls"], c["perturbed.sample.fan"]), "count"),
        "perturbed.quad_calls.rarefaction": (c["perturbed.quad_calls.rarefaction"], "count"),
        "perturbed.quad_calls.weak_form": (c["perturbed.quad_calls.weak_form"], "count"),
        "perturbed.quad_integrand_evals": (c["perturbed.quad_integrand_evals"], "count"),
        "perturbed.quad_self_ms": (per_op("perturbed.quad"), "ms"),
        "perturbed.quad_max_abserr": (tr.maxima.get("perturbed.quad_max_abserr", 0.0), "abs"),
        "perturbed.weak_form_ms": (mean("perturbed.weak_form"), "ms"),
        "original.solve_us": (mean("original.solve", scale=1e6), "us"),
        "original.sample_us.fan": (mean("original.sample.fan", scale=1e6), "us"),
        "original.sample_us.const": (mean("original.sample.const", scale=1e6), "us"),
        "transport.sweep_ms": (mean("transport.sweep"), "ms"),
        "transport.sweep_self_ms": (mean("transport.sweep", key="self"), "ms"),
        "transport.solves_per_sweep": (
            ratio(c["transport.sweep_solves"], c["transport.sweeps"]), "count"),
        "transport.verdict_pass_ratio": (
            ratio(c["transport.verdicts_passed"], c["transport.verdicts"]), "ratio"),
        "fv.simulate_ms": (mean("fv.simulate"), "ms"),
        "fv.steps": (c["fv.steps"], "count"),
        "fv.cell_steps": (c["fv.cell_steps"], "count"),
        **{f"fv.ns_per_cell_step.n{g}": (ratio(sims.get(g, (0.0, 0))[0] * 1e9,
                                                sims.get(g, (0.0, 0))[1]), "ns")
           for g in FV_GRIDS},
        "fv.floored_cells": (c["fv.floored_cells"], "count"),
        "fv.l1_ms": (mean("fv.l1"), "ms"),
        "fv.l1_sampler_calls": (c["fv.l1_sampler_calls"], "count"),
        "io.csv_ms": (mean("io.csv"), "ms"),
        "io.svg_ms": (mean("io.svg"), "ms"),
        "io.bytes_written": (c["io.bytes_written"], "bytes"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        **{f"cli.import_ms.{pkg}": (ms, "ms") for pkg, ms in imports.items()},
        "cli.run_ms": (float(cli_run.mean() * 1e3) if cli_run.size else 0.0, "ms"),
        "trace.ops_per_s": (loop["outcomes"].count("ok") / loop["wall"] / scale, "1/s"),
        "trace.span_coverage": (
            ratio(float(a["child"][op_mask].sum()), float(a["dur"][op_mask].sum())), "ratio"),
        "trace.window_ops": (stats["ops"], "count"),
        "fail_ratio": (ratio(sum(fails.values()), stats["ops"]), "ratio"),
        "fail.check": (fails.get("check", 0), "count"),
        **{f"fail.{cls}": (fails.get(cls, 0), "count") for cls in FAIL_CLASSES},
        "fail.other": (sum(v for k, v in fails.items()
                           if k != "check" and k not in FAIL_CLASSES), "count"),
        **{f"share.pattern.{p}": (s, "ratio") for p, s in stats["share"].items()},
        "share.small_pressure": (stats["small_pressure"], "ratio"),
        "fan_sample_points": (c["original.sample.fan"] + c["perturbed.sample.fan"], "count"),
    }
    return {k: (v * scale if u in ("ms", "us", "ns") else v, u) for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "awrlab", "__init__.py")):
        print(f"error: no awrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import awrlab
    from tracer import Instrumentation, Tracer
    from workloads import WORKLOADS, Context

    if not os.path.abspath(awrlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported awrlab from {awrlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    stamp = environment()
    # the speed probe only tracks the core it runs on, so the whole run and
    # the processes it starts share one core
    stamp["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {stamp["pinned_cpu"]})
    env = child_env()
    setup_probe = SpeedProbe()
    setup, imports, interpreter_ms = [], {}, 0.0
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            setup_probe.measure()
        flags = ["-X", "importtime"] if args.trace else []
        dt, log = timed_child([*flags, "-c", "import awrlab"], env)
        setup.append(dt)
        if args.trace:
            for pkg, ms in import_ms(log).items():
                imports.setdefault(pkg, []).append(ms)
    imports = {pkg: statistics.median(v) for pkg, v in imports.items()}
    if args.trace:
        interpreter_ms = 1e3 * statistics.median(
            timed_child(["-c", "pass"], env)[0] for _ in range(SETUP_REPEATS))

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(RESULTS, f"tmp-{tag}-{os.getpid()}")
    probe = SpeedProbe()
    os.makedirs(tmp)
    try:
        ctx = Context(sys.executable, env, tmp, HERE, args.seed)
        # a separate stream warms caches and lazy imports before timing
        with contextlib.suppress(Exception):
            next(workload.cases(np.random.default_rng([args.seed, 1]), ctx)).run()
        cases = workload.cases(np.random.default_rng(args.seed), ctx)
        if args.trace:
            ctx.tracer = Tracer(workload.window)
            with Instrumentation(ctx.tracer):
                loop = run_loop(cases, args.seconds, workload.window, ctx.tracer, probe)
        else:
            loop = run_loop(cases, args.seconds, workload.window, None, probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stats = window_stats(loop, workload.window)
    if args.trace:
        metrics = per_layer(ctx.tracer, loop, stats, imports, interpreter_ms, probe.scale())
        detail = {"speed_scale": probe.scale()}
        ctx.tracer.save(os.path.join(RESULTS, f"{tag}-spans.npz"))
    else:
        metrics, detail = end_to_end(loop, setup, workload.in_process, probe, setup_probe)
    stamp["loadavg_end"] = os.getloadavg()
    detail["probe_parts_s"] = [statistics.median(part) for part in zip(*probe.parts)]
    detail["setup_probe_parts_s"] = [statistics.median(part) for part in zip(*setup_probe.parts)]
    ops = len(loop["outcomes"])
    failed = ops - loop["outcomes"].count("ok")
    result = {
        "correct": "check" not in loop["outcomes"],
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, **detail, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": stamp,
              "window": stats, "fail_all": dict(Counter(o for o in loop["outcomes"] if o != "ok")),
              "fail_messages": loop["messages"], "setup_samples_s": setup}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    samples = detail.get("samples", {})
    print(f"environment {json.dumps(stamp)}")
    print(f"workload {args.workload}  seed {args.seed}  ops {ops}  failed {failed}  "
          f"wall {loop['wall']:.2f}s  trace {args.trace}")
    for k, (v, u) in metrics.items():
        extra = f"  n={samples[k]}" if k in samples else ""
        if k == "op_tail_ms":
            extra += f"  p{detail['op_tail_percentile']:g}"
        print(f"  {k:<36} {float(v):>14.6g} {u}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
