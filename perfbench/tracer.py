"""Span recorder and the wrappers that attach it to awrlab's layers.

Every count and span comes from wrappers installed here, around the public
names each awrlab module calls into; nothing inside ``src/`` changes.  A span
is (name, start, end, parent, op id).  Spans are kept in compact arrays in
memory and written out once, when the run ends.  Counts are kept only for
the first ``window`` ops of a run, so that they repeat exactly on one seed
however many ops the clock allows.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

ROOT = -1


class Tracer:
    def __init__(self, window: int):
        self.window = window
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.sim_records: list[tuple[int, int, int]] = []  # (span, cells, steps)
        self._steps = 0

    # -- spans ---------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.t0)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else ROOT)
        self.op_id.append(self.op)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    def innermost(self, names: tuple[str, ...]) -> str | None:
        """Name of the nearest open span whose name is in ``names``."""
        for idx in reversed(self.stack):
            name = self.names[self.name_id[idx]]
            if name in names:
                return name
        return None

    # -- counters (first ``window`` ops only) ----------------------------
    @property
    def counting(self) -> bool:
        return 0 <= self.op < self.window

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n

    def record_max(self, name: str, value: float) -> None:
        if self.counting and value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    # -- ops -----------------------------------------------------------
    def begin_op(self, op: int) -> int:
        """Open the root span of op number ``op``."""
        self.op = op
        return self.open("op")

    def merge(self, child: dict, under: int) -> None:
        """Append spans recorded by a child process below span ``under``."""
        base = len(self.t0)
        remap = [self._id(n) for n in child["names"]]
        for nid, par, t0, t1 in zip(
            child["name_id"], child["parent"], child["t0"], child["t1"]
        ):
            self.name_id.append(remap[nid])
            self.parent.append(under if par == ROOT else base + par)
            self.op_id.append(self.op)
            self.t0.append(t0)
            self.t1.append(t1)
        if self.counting:
            self.counts.update(child["counts"])
            for k, v in child["maxima"].items():
                self.record_max(k, v)
        self.sim_records += [(base + s, n, k) for s, n, k in child["sim_records"]]

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "t0": list(self.t0),
            "t1": list(self.t1),
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "sim_records": self.sim_records,
        }

    # -- analysis ------------------------------------------------------
    def arrays(self) -> dict:
        import numpy as np

        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.t1, dtype=np.float64) - np.array(self.t0, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": name_id, "parent": parent, "dur": dur, "self": dur - child,
                "child": child}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            op_id=np.array(self.op_id, dtype=np.int32),
            t0=np.array(self.t0, dtype=np.float64),
            t1=np.array(self.t1, dtype=np.float64),
        )


def _is_fan_sample(solution, xi: float) -> bool:
    return any(
        hasattr(w, "head") and w.head <= xi <= w.tail for w in solution.waves
    )


class Instrumentation:
    """Installs wrappers on awrlab's module attributes; ``remove`` restores
    every original."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def remove(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _span(self, name: str):
        tr = self.tr

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = tr.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.close(idx)

            return wrapper

        return make

    def install(self) -> None:
        from awrlab import cli, fv, original, perturbed, rootfind, transport

        tr = self.tr
        patch = self._patch

        def rootfind_wrapper(fn):
            def wrapper(f, *args, **kwargs):
                tr.count("rootfind.calls")

                def counted(x):
                    tr.count("rootfind.evals")
                    return f(x)

                idx = tr.open("rootfind")
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tr.close(idx)

            return wrapper

        def expand_wrapper(fn):
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    tr.count("rootfind.expand_evals")
                    return f(x)

                return fn(counted, *args, **kwargs)

            return wrapper

        for mod in (original, perturbed):
            patch(mod, "solve_decreasing", rootfind_wrapper)
            patch(mod, "bisect_decreasing", rootfind_wrapper)
        patch(rootfind, "expand_bracket", expand_wrapper)

        def solve_wrapper(layer: str):
            def make(fn):
                def wrapper(*args, **kwargs):
                    tr.count(f"{layer}.solve_calls")
                    if tr.innermost(("transport.sweep",)):
                        tr.count("transport.sweep_solves")
                    idx = tr.open(f"{layer}.solve")
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tr.close(idx)

                return wrapper

            return make

        def sample_wrapper(layer: str):
            fan_name, const_name = f"{layer}.sample.fan", f"{layer}.sample.const"

            def make(fn):
                def wrapper(self, xi):
                    fan = _is_fan_sample(self, xi)
                    tr.count(fan_name if fan else const_name)
                    idx = tr.open(fan_name if fan else const_name)
                    try:
                        return fn(self, xi)
                    finally:
                        tr.close(idx)

                return wrapper

            return make

        patch(original, "solve", solve_wrapper("original"))
        patch(original.RiemannSolution14, "sample", sample_wrapper("original"))
        patch(perturbed, "solve_perturbed", solve_wrapper("perturbed"))
        patch(perturbed.RiemannSolution17, "sample", sample_wrapper("perturbed"))
        patch(perturbed, "weak_form_residual", self._span("perturbed.weak_form"))

        def quad_wrapper(fn):
            contexts = ("perturbed.solve", "perturbed.sample.fan")

            def wrapper(func, a, b, *args, **kwargs):
                kind = (
                    "weak_form"
                    if func.__qualname__.startswith("weak_form_residual")
                    else "rarefaction"
                )
                tr.count(f"perturbed.quad_calls.{kind}")
                ctx = tr.innermost(contexts)
                if ctx == "perturbed.solve":
                    tr.count("perturbed.solve_quad_calls")
                elif ctx == "perturbed.sample.fan":
                    tr.count("perturbed.fan_sample_quad_calls")

                def integrand(x):
                    tr.count("perturbed.quad_integrand_evals")
                    return func(x)

                idx = tr.open("perturbed.quad")
                try:
                    result = fn(integrand, a, b, *args, **kwargs)
                finally:
                    tr.close(idx)
                tr.record_max("perturbed.quad_max_abserr", float(result[1]))
                return result

            return wrapper

        patch(perturbed, "quad", quad_wrapper)

        def sweep_wrapper(fn):
            def wrapper(*args, **kwargs):
                tr.count("transport.sweeps")
                idx = tr.open("transport.sweep")
                try:
                    report = fn(*args, **kwargs)
                finally:
                    tr.close(idx)
                tr.count("transport.verdicts", len(report.verdicts))
                tr.count("transport.verdicts_passed", sum(v.passed for v in report.verdicts))
                return report

            return wrapper

        patch(transport, "sweep_original", sweep_wrapper)
        patch(transport, "sweep_perturbed", sweep_wrapper)
        patch(
            transport,
            "limit_delta_consistency",
            self._span("transport.delta_consistency"),
        )

        def simulate_wrapper(fn):
            def wrapper(system, params, left, right, grid, *args, **kwargs):
                tr._steps = 0
                idx = tr.open("fv.simulate")
                try:
                    snaps = fn(system, params, left, right, grid, *args, **kwargs)
                finally:
                    tr.close(idx)
                tr.sim_records.append((idx, grid.n_cells, tr._steps))
                tr.count("fv.steps", tr._steps)
                tr.count("fv.cell_steps", tr._steps * grid.n_cells)
                tr.count("fv.floored_cells", snaps[-1].floored_cells)
                return snaps

            return wrapper

        def max_speed_wrapper(fn):
            # simulate calls _max_speed exactly once per time step
            def wrapper(*args, **kwargs):
                tr._steps += 1
                return fn(*args, **kwargs)

            return wrapper

        def l1_wrapper(fn):
            def wrapper(snapshot, exact_sampler):
                def counted(xi):
                    tr.count("fv.l1_sampler_calls")
                    return exact_sampler(xi)

                idx = tr.open("fv.l1")
                try:
                    return fn(snapshot, counted)
                finally:
                    tr.close(idx)

            return wrapper

        patch(fv, "simulate", simulate_wrapper)
        patch(fv, "_max_speed", max_speed_wrapper)
        patch(fv, "l1_error_vs_exact", l1_wrapper)
        patch(fv, "delta_weight_estimate", self._span("fv.delta_weight"))

        def io_wrapper(name: str, path_pos: int):
            def make(fn):
                def wrapper(*args, **kwargs):
                    idx = tr.open(name)
                    try:
                        fn(*args, **kwargs)
                    finally:
                        tr.close(idx)
                    tr.count("io.bytes_written", os.path.getsize(args[path_pos]))

                return wrapper

            return make

        patch(cli, "emit_csv", io_wrapper("io.csv", 2))
        patch(cli, "emit_svg_plot", io_wrapper("io.svg", 1))
