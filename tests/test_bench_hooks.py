"""The benchmark's tracer still attaches to every layer it measures.

``perfbench/tracer.py`` counts work by wrapping awrlab's module attributes
(solvers, ``sample`` on each solution class, root finders, ``quad``, sweeps,
the FV kernel).  A rename or a call that stops going through one of those
attributes silently zeroes a count; this test runs one small op of each
kind under the tracer and checks that every count moves and that every
wrapper is removed afterwards.
"""

import os

import pytest

from awrlab import core, fv, original, perturbed, transport

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import workloads

    return tracer, workloads


def test_tracer_counts_every_layer_and_restores_it(bench):
    tracer, workloads = bench
    orig_p = core.PressureParams(0.1, 0.1, 0.5, system="original")
    pert_p = core.PressureParams(0.1, 0.1, 0.5, system="perturbed")
    compressive = (core.State(2.0, 1.0), core.State(1.0, 2.0))
    expansive = (core.State(1.0, 1.0), core.State(2.0, 2.0))

    tr = tracer.Tracer(window=1)
    op = tr.begin_op(0)
    inst = tracer.Instrumentation(tr)
    with inst:
        patched = list(inst._saved)
        assert all(getattr(owner, name) is not orig for owner, name, orig in patched)
        fan_orig = original.solve(orig_p, *expansive)
        head, tail = fan_orig.waves[0].edges
        fan_orig.sample(0.5 * (head + tail))
        fan_pert = perturbed.solve_perturbed(pert_p, *expansive)
        head, tail = fan_pert.waves[0].edges
        fan_pert.sample(0.5 * (head + tail))
        # panels answer every request inside t in [-744, 709]; one across
        # t = -744 makes a direct quad for the part beyond
        assert perturbed.rarefaction_integral(pert_p, 5e-324, 1e-320) > 0.0
        shock_orig = original.solve(orig_p, *compressive)
        shock_pert = perturbed.solve_perturbed(pert_p, *compressive)
        r1, r2 = perturbed.weak_form_residual(
            pert_p, shock_pert, perturbed.BumpTestFunction(shock_pert.waves[0].speed, 0.5)
        )
        assert max(abs(r1), abs(r2)) <= workloads.WEAK_TOL
        # constant-state pieces take no quadrature; a fan piece takes quad
        r1, r2 = perturbed.weak_form_residual(
            pert_p, fan_pert, perturbed.BumpTestFunction(0.5 * (head + tail), 0.5 * (tail - head))
        )
        assert max(abs(r1), abs(r2)) <= workloads.WEAK_TOL
        assert transport.sweep_original(*compressive, 0.5, (1e-1, 1e-2)).records
        grid = fv.GridConfig(-1.0, 1.5, 32, t_end=0.2)
        snap = fv.simulate("original", orig_p, *expansive, grid)[-1]
        assert fv.l1_error_vs_exact(snap, fan_orig.sample) > 0.0
    tr.close(op)

    for name in (
        "rootfind.evals",
        "rootfind.expand_evals",
        "original.sample.fan",
        "perturbed.sample.fan",
        "perturbed.quad_calls.rarefaction",
        "perturbed.quad_calls.weak_form",
        "transport.sweep_solves",
        "fv.steps",
        "fv.l1_sampler_calls",
    ):
        assert tr.counts[name] > 0, name
    assert patched
    for owner, name, orig in patched:
        assert getattr(owner, name) is orig, f"{owner}.{name} not restored"

    for system, sol, expect in (
        ("original", fan_orig, "original_fan"),
        ("original", shock_orig, "original_shock"),
        ("perturbed", fan_pert, "perturbed_RR"),
        ("perturbed", shock_pert, "perturbed_SS"),
    ):
        assert workloads.pattern(system, sol) == expect
        workloads.check_jumps(system, orig_p if system == "original" else pert_p, sol)
