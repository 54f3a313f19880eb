"""Pressureless transport system: delta shocks, vacuum fans, generalized
jump-condition residuals, vanishing-pressure sweeps and limit consistency."""

import math

import numpy as np
import pytest

from awrlab import (
    DeltaShock,
    EntropyClass,
    PressureParams,
    State,
    default_schedule,
    entropy_check,
    grh_residual,
    limit_delta_consistency,
    special_delta,
    sweep_original,
    sweep_perturbed,
    transport_solve,
)
from awrlab.core import InapplicableError

RNG = np.random.RandomState(20240820)

LEFT = State(2.0, 1.0)
RIGHT = State(1.0, 2.0)
LEFT_RR = State(1.0, 1.0)
RIGHT_RR = State(2.0, 2.0)


def random_entropic(n):
    for _ in range(n):
        rl, rr = 10.0 ** RNG.uniform(-2, 2, size=2)
        ur = 10.0 ** RNG.uniform(-2, 1)
        ul = ur + 10.0 ** RNG.uniform(-3, 1)
        yield State(ul, rl), State(ur, rr)


class TestDeltaShock:
    def test_reference_closed_form(self):
        # sigma = (sqrt(rho+)u+ + sqrt(rho-)u-)/(sqrt(rho+) + sqrt(rho-))
        sol = transport_solve(LEFT, RIGHT)
        assert sol.kind == "delta"
        d = sol.delta
        assert d.sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert d.weight_rate == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_weight_linear_in_time(self):
        d = transport_solve(LEFT, RIGHT).delta
        assert d.weight(2.0 * 0.7) == 2.0 * d.weight(0.7)
        assert d.weight(0.0) == 0.0

    def test_grh_residuals_random_entropic(self):
        for l, r in random_entropic(1000):
            d = transport_solve(l, r).delta
            r1, r2 = grh_residual(d)
            scale = max(1.0, l.rho * l.u, r.rho * r.u)
            assert abs(r1) < 1e-12 * scale
            assert abs(r2) < 1e-12 * scale * max(1.0, abs(d.sigma))

    def test_overcompressive_entropy(self):
        for l, r in random_entropic(200):
            d = transport_solve(l, r).delta
            assert r.u < d.sigma < l.u
            assert entropy_check(d) is EntropyClass.OVERCOMPRESSIVE

    def test_sigma_between_characteristics(self):
        d = transport_solve(LEFT, RIGHT).delta
        assert RIGHT.u < d.sigma < LEFT.u


class TestSpecialDelta:
    def test_closed_form(self):
        d = special_delta(LEFT, RIGHT)
        assert d.sigma == RIGHT.u == 1.0
        # rate = rho-*(u- - u+)/sqrt(1 + u+^2) = 1/sqrt(2)
        assert d.weight_rate == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert entropy_check(d) is EntropyClass.SPECIAL

    def test_mass_balances_momentum_does_not(self):
        # the momentum line fails by exactly -rho-*(u- - u+)^2
        d = special_delta(LEFT, RIGHT)
        r1, r2 = grh_residual(d)
        assert abs(r1) < 1e-12
        assert r2 == pytest.approx(-LEFT.rho * (LEFT.u - RIGHT.u) ** 2, abs=1e-10)

    def test_momentum_deviation_random(self):
        for l, r in random_entropic(200):
            d = special_delta(l, r)
            r1, r2 = grh_residual(d)
            assert abs(r1) < 1e-12 * max(1.0, l.rho * l.u)
            expect = -l.rho * (l.u - r.u) ** 2
            assert r2 == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_requires_compressive_data(self):
        with pytest.raises(InapplicableError):
            special_delta(LEFT_RR, RIGHT_RR)


class TestVacuumAndContact:
    def test_vacuum_fan_structure(self):
        sol = transport_solve(LEFT_RR, RIGHT_RR)
        assert sol.kind == "vacuum"
        assert sol.delta is None
        for xi in np.linspace(LEFT_RR.u + 1e-9, RIGHT_RR.u - 1e-9, 50):
            u, rho = sol.sample(xi)
            assert rho == 0.0
            assert u == xi
            # with rho = 0 both flux components vanish pointwise
            assert rho * u == 0.0
            assert rho * u * u == 0.0
        assert sol.sample(LEFT_RR.u - 0.5) == (LEFT_RR.u, LEFT_RR.rho)
        assert sol.sample(RIGHT_RR.u + 0.5) == (RIGHT_RR.u, RIGHT_RR.rho)

    def test_contact_when_velocities_tie(self):
        sol = transport_solve(State(1.0, 1.0), State(1.0, 3.0))
        assert sol.kind == "contact"
        assert sol.sample(0.9) == (1.0, 1.0)
        assert sol.sample(1.1) == (1.0, 3.0)

    def test_constant_when_states_tie(self):
        sol = transport_solve(State(1.0, 1.0), State(1.0, 1.0))
        assert sol.kind == "constant"


class TestSchedules:
    def test_default_schedule_log_uniform(self):
        s = default_schedule(1e-1, 1e-6, 6)
        assert len(s) == 6
        assert s[0] == pytest.approx(1e-1)
        assert s[-1] == pytest.approx(1e-6)
        ratios = [b / a for a, b in zip(s, s[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError):
            sweep_original(LEFT, RIGHT, 0.5, [])
        with pytest.raises(ValueError):
            sweep_original(LEFT, RIGHT, 0.5, [1e-2, 1e-1])
        with pytest.raises(ValueError):
            sweep_original(LEFT, RIGHT, 0.5, [1e-2, -1e-3])


class TestSweepOriginal:
    def test_delta_forming_verdicts(self):
        schedule = [10.0**-k for k in range(1, 7)]
        report = sweep_original(LEFT, RIGHT, 0.5, schedule)
        assert report.system == "original"
        assert len(report.records) == 6
        assert report.passed
        by_claim = {v.claim: v for v in report.verdicts}
        v = by_claim["shock speed reaches downstream velocity"]
        assert abs(v.achieved - RIGHT.u) < 1e-5
        v = by_claim["contact speed equals downstream velocity"]
        assert abs(v.achieved - RIGHT.u) < 1e-12
        v = by_claim["intermediate velocity equals downstream velocity"]
        assert abs(v.achieved - RIGHT.u) < 1e-12
        v = by_claim["concentrated mass rate"]
        assert abs(v.achieved - LEFT.rho * (LEFT.u - RIGHT.u)) < 1e-2

    def test_delta_forming_density_monotone(self):
        schedule = [10.0**-k for k in range(1, 7)]
        report = sweep_original(LEFT, RIGHT, 0.5, schedule)
        rhos = [r.rho_star for r in report.records]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_vacuum_forming_verdicts(self):
        schedule = [10.0**-k for k in range(1, 7)]
        report = sweep_original(LEFT_RR, RIGHT_RR, 0.5, schedule)
        assert report.passed
        rhos = [r.rho_star for r in report.records]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] < 1e-10

    def test_limiting_speed_agrees_with_special_delta(self):
        schedule = [10.0**-k for k in range(1, 7)]
        report = sweep_original(LEFT, RIGHT, 0.5, schedule)
        sigma0 = special_delta(LEFT, RIGHT).sigma
        assert abs(report.records[-1].sigma1 - sigma0) < 1e-5
        assert report.records[-1].sigma2 == sigma0

    def test_threshold_flip_verdict_when_started_above(self):
        # a schedule starting above the coupled threshold crosses it
        schedule = [1.0, 1e-1, 1e-2, 1e-3]
        report = sweep_original(LEFT, RIGHT, 0.5, schedule)
        assert report.threshold is not None
        assert report.threshold == pytest.approx(0.7734590803, rel=1e-8)
        flip = [v for v in report.verdicts if "threshold" in v.claim]
        assert flip and flip[0].passed


class TestSweepPerturbed:
    def test_delta_forming_verdicts(self):
        schedule = [10.0**-k for k in range(1, 6)]
        report = sweep_perturbed(LEFT, RIGHT, 0.5, schedule)
        assert report.system == "perturbed"
        assert report.passed
        sigma = transport_solve(LEFT, RIGHT).delta.sigma
        last = report.records[-1]
        assert abs(last.u_star - sigma) < 5e-2
        assert last.A_rho_star < 1e-2
        errors = [abs(r.u_star - sigma) for r in report.records]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_delta_forming_mass_rate(self):
        schedule = [10.0**-k for k in range(1, 6)]
        report = sweep_perturbed(LEFT, RIGHT, 0.5, schedule)
        sigma = transport_solve(LEFT, RIGHT).delta.sigma
        target = sigma * (RIGHT.rho - LEFT.rho) - (
            RIGHT.rho * RIGHT.u - LEFT.rho * LEFT.u
        )
        last = report.records[-1]
        assert abs(last.product - target) < 5e-2 * abs(target)

    def test_vacuum_forming_verdicts(self):
        schedule = [10.0**-k for k in range(1, 6)]
        report = sweep_perturbed(LEFT_RR, RIGHT_RR, 0.5, schedule)
        assert report.passed
        last = report.records[-1]
        assert last.rho_star < 1e-4
        assert abs(last.sigma1 - LEFT_RR.u) < 5e-2
        assert abs(last.sigma2 - RIGHT_RR.u) < 5e-2

    def test_limiting_velocity_agrees_with_transport(self):
        schedule = [10.0**-k for k in range(1, 6)]
        report = sweep_perturbed(LEFT, RIGHT, 0.5, schedule)
        sigma = transport_solve(LEFT, RIGHT).delta.sigma
        assert abs(report.records[-1].u_star - sigma) < 5e-2


class TestLimitDeltaConsistency:
    def test_mass_and_momentum_proxies_converge(self):
        rec_fine = limit_delta_consistency(LEFT, RIGHT, 0.5, 1e-4, 1e-4)
        rec_coarse = limit_delta_consistency(LEFT, RIGHT, 0.5, 1e-2, 1e-2)
        assert rec_fine.mass_error < 0.05 * abs(rec_fine.mass_target)
        assert rec_fine.momentum_error < 0.05 * abs(rec_fine.momentum_target)
        assert rec_coarse.mass_error > rec_fine.mass_error
        assert rec_coarse.momentum_error > rec_fine.momentum_error

    def test_targets_match_delta_weights(self):
        rec = limit_delta_consistency(LEFT, RIGHT, 0.5, 1e-4, 1e-4)
        d = transport_solve(LEFT, RIGHT).delta
        assert rec.mass_target == pytest.approx(d.weight_rate, abs=1e-12)
        assert rec.momentum_target == pytest.approx(
            d.weight_rate * d.sigma, abs=1e-12
        )

    def test_rejects_non_compressive_data(self):
        with pytest.raises(InapplicableError):
            limit_delta_consistency(LEFT_RR, RIGHT_RR, 0.5, 1e-4, 1e-4)


class TestVerdictTolerances:
    # the tolerances are literals in the sweeps, not arguments; this pins them
    SCHEDULE = {
        "original": [10.0**-k for k in range(1, 7)],
        "perturbed": [10.0**-k for k in range(1, 6)],
    }
    TABLE = {
        ("original", "compressive"): [
            ("intermediate density grows monotonically", 0.0),
            ("shock speed reaches downstream velocity", 1e-5),
            ("contact speed equals downstream velocity", 1e-12),
            ("intermediate velocity equals downstream velocity", 1e-12),
            ("concentrated mass rate", 1e-2),
        ],
        ("original", "expansive"): [
            ("intermediate density decays monotonically", 0.0),
            ("intermediate density vanishes", 1e-10),
            ("fan head reaches upstream velocity", 1e-5),
        ],
        ("perturbed", "compressive"): [
            ("intermediate velocity error decays monotonically", 0.0),
            ("intermediate velocity reaches delta speed", 5e-2),
            ("pressure-density product vanishes", 1e-2),
            ("concentrated mass rate", 5e-2),
        ],
        ("perturbed", "expansive"): [
            ("intermediate density decays monotonically", 0.0),
            ("intermediate density vanishes", 1e-4),
            ("backward fan edge reaches upstream velocity", 5e-2),
            ("forward fan edge reaches downstream velocity", 5e-2),
        ],
    }

    @pytest.mark.parametrize("system, data", sorted(TABLE))
    def test_claim_tolerance_table(self, system, data):
        sweep = sweep_original if system == "original" else sweep_perturbed
        states = (LEFT, RIGHT) if data == "compressive" else (LEFT_RR, RIGHT_RR)
        report = sweep(*states, 0.5, self.SCHEDULE[system])
        expected = self.TABLE[system, data]
        assert [v.claim for v in report.verdicts] == [claim for claim, _ in expected]
        for v, (claim, tol) in zip(report.verdicts, expected):
            # the perturbed mass-rate tolerance is relative to its target
            relative = system == "perturbed" and claim == "concentrated mass rate"
            assert v.tolerance == (tol * abs(v.target) if relative else tol)
