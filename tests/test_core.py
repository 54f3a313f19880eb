"""State types, pressure law and eigenstructure."""

import math

import numpy as np
import pytest

from awrlab import (
    Conserved,
    DegenerateDensityError,
    PressureParams,
    State,
    eigenvalues_original,
    eigenvalues_perturbed,
    from_conserved,
    genuine_nonlinearity_original,
    pressure,
    solve,
    solve_perturbed,
    to_conserved,
)
from awrlab.core import Fan, pressure_derivative, perturbed_nondegeneracy_gap

RNG = np.random.RandomState(20240817)


def random_inputs(n):
    for _ in range(n):
        A = 10.0 ** RNG.uniform(-6, 0)
        B = 10.0 ** RNG.uniform(-6, 0)
        alpha = RNG.uniform(0.05, 0.95)
        u = 10.0 ** RNG.uniform(-2, 1)
        rho = 10.0 ** RNG.uniform(-3, 3)
        yield A, B, alpha, u, rho


class TestValidation:
    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 1.5)
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, -0.5)

    def test_alpha_one_accepted_for_original(self):
        p = PressureParams(0.1, 0.1, 1.0, system="original")
        assert p.alpha == 1.0

    def test_alpha_one_rejected_for_perturbed(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 1.0, system="perturbed")

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(-0.1, 0.1, 0.5)
        with pytest.raises(ValueError):
            PressureParams(0.1, -0.1, 0.5)

    def test_nonpositive_state_rejected(self):
        with pytest.raises(ValueError):
            State(0.0, 1.0)
        with pytest.raises(ValueError):
            State(1.0, 0.0)
        with pytest.raises(ValueError):
            State(-1.0, 1.0)

    def test_unknown_system_tag_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 0.5, system="isothermal")


class TestPressure:
    def test_pressure_value(self):
        # P(rho) = A*rho - B/rho**alpha at A=2, B=3, alpha=0.5, rho=4
        p = PressureParams(2.0, 3.0, 0.5)
        assert pressure(p, 4.0) == pytest.approx(8.0 - 1.5, abs=1e-15)

    def test_pressure_strictly_increasing_finite_differences(self):
        # derivative A + B*alpha/rho**(1+alpha) > 0, probed at 1e3 points
        h = 1e-7
        for A, B, alpha, _, rho in random_inputs(1000):
            p = PressureParams(A, B, alpha)
            slope = (pressure(p, rho * (1 + h)) - pressure(p, rho * (1 - h))) / (
                2 * h * rho
            )
            assert slope > 0.0
            assert slope == pytest.approx(pressure_derivative(p, rho), rel=1e-5)

    def test_pressure_derivative_positive(self):
        for A, B, alpha, _, rho in random_inputs(1000):
            assert pressure_derivative(PressureParams(A, B, alpha), rho) > 0.0


class TestEigenvalues:
    def test_original_closed_form(self):
        p = PressureParams(0.5, 0.25, 0.5)
        s = State(2.0, 4.0)
        lam = eigenvalues_original(p, s)
        assert lam.lambda1 == pytest.approx(2.0 - 0.5 * 4.0 - 0.25 * 0.5 / 2.0, abs=1e-15)
        assert lam.lambda2 == pytest.approx(2.0, abs=1e-15)

    def test_perturbed_closed_form(self):
        # u = 1, A*rho + B*alpha/rho**alpha = 0.1 + 0.05 => lambda = 1 -+ sqrt(0.15)
        p = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        s = State(1.0, 1.0)
        lam = eigenvalues_perturbed(p, s)
        gap = math.sqrt(0.15)
        assert lam.lambda1 == pytest.approx(1.0 - gap, abs=1e-15)
        assert lam.lambda2 == pytest.approx(1.0 + gap, abs=1e-15)

    def test_ordering_lambda1_below_lambda2_original(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            lam = eigenvalues_original(PressureParams(A, B, alpha), State(u, rho))
            assert lam.lambda1 < lam.lambda2

    def test_ordering_lambda1_below_lambda2_perturbed(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            p = PressureParams(A, B, alpha, system="perturbed")
            lam = eigenvalues_perturbed(p, State(u, rho))
            assert lam.lambda1 < lam.lambda2

    def test_genuine_nonlinearity_negative_everywhere(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            g = genuine_nonlinearity_original(PressureParams(A, B, alpha), State(u, rho))
            assert g < 0.0

    def test_perturbed_nondegeneracy_gap_formula(self):
        # diagnostic quantity; recompute independently and compare
        for A, B, alpha, u, rho in random_inputs(200):
            p = PressureParams(A, B, alpha, system="perturbed")
            g = A * rho + B * alpha / rho**alpha
            lead = 3.0 * A * rho + (B * alpha / rho**alpha) * (2.0 - alpha)
            expect = lead * math.sqrt(u) - g**1.5
            got = perturbed_nondegeneracy_gap(p, State(u, rho))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
            assert math.isfinite(got)


class TestConversions:
    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_round_trip(self, system):
        for A, B, alpha, u, rho in random_inputs(1000):
            if rho < 1e-8:
                continue
            p = PressureParams(A, B, alpha, system=system)
            s = State(u, rho)
            q = to_conserved(system, p, s)
            back = from_conserved(system, p, q)
            assert back.rho == pytest.approx(rho, rel=1e-12)
            assert back.u == pytest.approx(u, rel=1e-12, abs=1e-12 * max(1.0, abs(u)))

    def test_momentum_definitions(self):
        p = PressureParams(0.5, 0.25, 0.5)
        s = State(2.0, 4.0)
        q = to_conserved("original", p, s)
        assert q.q1 == pytest.approx(4.0, abs=1e-15)
        # q2 = rho*(u + A*rho - B/rho**alpha)
        assert q.q2 == pytest.approx(4.0 * (2.0 + 2.0 - 0.125), abs=1e-13)
        pp = PressureParams(0.5, 0.25, 0.5, system="perturbed")
        qq = to_conserved("perturbed", pp, s)
        # q2 = rho*(u + (A/2)*rho - B/((1-alpha)*rho**alpha))
        assert qq.q2 == pytest.approx(4.0 * (2.0 + 1.0 - 0.25), abs=1e-13)

    def test_degenerate_density_raises(self):
        p = PressureParams(0.1, 0.1, 0.5)
        with pytest.raises(DegenerateDensityError):
            from_conserved("original", p, Conserved(0.0, 1.0))


class TestSolutionModel:
    def test_fan_edges_sample_the_adjacent_constant_states(self):
        # the edges come from the eigenvalue formulas while the profile's
        # residual there is rounding noise, so the edges must not reach it
        rng = np.random.RandomState(20240820)
        fans = 0
        for k in range(200):
            system = ("original", "perturbed")[k % 2]
            A, B = 10.0 ** rng.uniform(-4, 0, size=2)
            alpha = rng.uniform(0.1, 0.9)
            u_l, u_r = np.sort(10.0 ** rng.uniform(-0.5, 1.0, size=2))
            rho_l, rho_r = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
            left, right = State(u_l, rho_l), State(u_r, rho_r)
            p = PressureParams(A, B, alpha, system=system)
            sol = (solve if system == "original" else solve_perturbed)(p, left, right)
            states = [left] + [sol.star] * (len(sol.waves) - 1) + [right]
            for i, wave in enumerate(sol.waves):
                if isinstance(wave, Fan):
                    fans += 1
                    assert sol.sample(wave.head) == (states[i].u, states[i].rho)
                    assert sol.sample(wave.tail) == (states[i + 1].u, states[i + 1].rho)
        assert fans >= 250

    def test_forward_fan_tail_is_the_right_state(self):
        p = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        left, right = State(1.0, 1.0), State(2.0, 2.0)
        sol = solve_perturbed(p, left, right)
        assert sol.sample(sol.waves[1].tail) == (right.u, right.rho)
        assert sol.sample(sol.waves[1].head) == (sol.star.u, sol.star.rho)
