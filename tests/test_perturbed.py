"""Exact Riemann solver for the perturbed system: wave curves, shock locus
algebra, classification, solution assembly and weak-form residuals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from awrlab import (
    BumpTestFunction,
    PressureParams,
    RegionLabel17,
    RiemannSolution17,
    State,
    classify_perturbed,
    solve_perturbed,
    weak_form_residual,
)
from awrlab import perturbed, quadrature
from awrlab.core import BranchError, InapplicableError, eigenvalues_perturbed
from awrlab.perturbed import (
    E1,
    RarefactionFan,
    ShockWave,
    e1_coefficients,
    rarefaction_curve_u,
    rarefaction_integral,
    rh_residual_perturbed,
    rho_axis_intercept,
    shock_curve_u,
    shock_slope_diagnostics,
    shock_speed_perturbed,
)
from awrlab.rootfind import BracketError

RNG = np.random.RandomState(20240819)

P_REF = PressureParams(0.1, 0.1, 0.5, system="perturbed")
LEFT = State(2.0, 1.0)
RIGHT = State(1.0, 2.0)  # two-shock (delta-forming) data
LEFT_RR = State(1.0, 1.0)
RIGHT_RR = State(2.0, 2.0)  # two-rarefaction (vacuum-forming) data


def perturbed_params(A, B, alpha=0.5):
    return PressureParams(A, B, alpha, system="perturbed")


class TestQuadrature:
    def test_pure_linear_pressure_closed_form(self):
        # B = 0: integral of sqrt(A s)/s over [a, b] = 2 sqrt(A)(sqrt(b)-sqrt(a))
        p = perturbed_params(1.0, 0.0)
        got = rarefaction_integral(p, 1.0, 4.0)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_pure_chaplygin_closed_form(self):
        # A = 0: integral of sqrt(B a) s^(-1-a/2) = (2/a)sqrt(B a)(a0^(-a/2)-b^(-a/2))
        p = perturbed_params(0.0, 1.0)
        expect = (2.0 / 0.5) * math.sqrt(0.5) * (1.0 - 4.0 ** (-0.25))
        assert rarefaction_integral(p, 1.0, 4.0) == pytest.approx(expect, rel=1e-12)

    def test_closed_forms_on_random_intervals(self):
        # the acceptance oracle: 100 random intervals in [1e-3, 1e3]
        for _ in range(100):
            lo, hi = sorted(10.0 ** RNG.uniform(-3, 3, size=2))
            if lo == hi:
                continue
            A = 10.0 ** RNG.uniform(-4, 0)
            B = 10.0 ** RNG.uniform(-4, 0)
            alpha = RNG.uniform(0.05, 0.95)
            lin = rarefaction_integral(perturbed_params(A, 0.0, alpha), lo, hi)
            expect_lin = 2.0 * math.sqrt(A) * (math.sqrt(hi) - math.sqrt(lo))
            assert lin == pytest.approx(expect_lin, rel=1e-10, abs=1e-13)
            cha = rarefaction_integral(perturbed_params(0.0, B, alpha), lo, hi)
            expect_cha = (
                (2.0 / alpha)
                * math.sqrt(B * alpha)
                * (lo ** (-alpha / 2.0) - hi ** (-alpha / 2.0))
            )
            assert cha == pytest.approx(expect_cha, rel=1e-10, abs=1e-13)

    def test_signed_and_additive(self):
        assert rarefaction_integral(P_REF, 2.0, 1.0) == pytest.approx(
            -rarefaction_integral(P_REF, 1.0, 2.0), rel=1e-13
        )
        ab = rarefaction_integral(P_REF, 0.5, 1.5)
        assert ab == pytest.approx(
            rarefaction_integral(P_REF, 0.5, 1.0)
            + rarefaction_integral(P_REF, 1.0, 1.5),
            rel=1e-12,
        )

    def test_scipy_quad_oracle(self, monkeypatch):
        # the in-house rule against QUADPACK's over 500 log-uniform draws
        rng = np.random.default_rng(20261018)
        errors = []

        def recording_quad(*args, **kwargs):
            value, err = quadrature.quad(*args, **kwargs)
            errors.append(err)
            return value, err

        monkeypatch.setattr(perturbed, "quad", recording_quad)
        for _ in range(500):
            A, B = 10.0 ** rng.uniform(-10.0, 1.0, size=2)
            alpha = 10.0 ** rng.uniform(-2.0, math.log10(0.99))
            lo, hi = 10.0 ** rng.uniform(-8.0, 8.0, size=2)
            got = rarefaction_integral(perturbed_params(A, B, alpha), lo, hi)

            def integrand(t):
                return math.sqrt(A * math.exp(t) + B * alpha * math.exp(-alpha * t))

            expect, _ = quad(
                integrand, math.log(lo), math.log(hi), epsabs=1e-14, epsrel=1e-12,
                limit=200,
            )
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)
        assert len(errors) == 500
        assert all(math.isfinite(e) and e >= 0.0 for e in errors)


class TestRarefactionCurves:
    def test_anchoring_at_left_state(self):
        assert rarefaction_curve_u(P_REF, LEFT, LEFT.rho, "backward") == LEFT.u
        assert rarefaction_curve_u(P_REF, LEFT, LEFT.rho, "forward") == LEFT.u
        assert shock_curve_u(P_REF, LEFT, LEFT.rho, "backward") == LEFT.u
        assert shock_curve_u(P_REF, LEFT, LEFT.rho, "forward") == LEFT.u

    def test_inadmissible_half_branches_rejected(self):
        with pytest.raises(BranchError):
            rarefaction_curve_u(P_REF, LEFT, 2.0 * LEFT.rho, "backward")
        with pytest.raises(BranchError):
            rarefaction_curve_u(P_REF, LEFT, 0.5 * LEFT.rho, "forward")
        with pytest.raises(BranchError):
            shock_curve_u(P_REF, LEFT, 0.5 * LEFT.rho, "backward")
        with pytest.raises(BranchError):
            shock_curve_u(P_REF, LEFT, 2.0 * LEFT.rho, "forward")

    def test_backward_rarefaction_satisfies_characteristic_ode(self):
        # du/drho = -sqrt(A rho + B alpha rho^-alpha)/rho * sqrt(u) ... in the
        # sqrt(u) form: d sqrt(u)/drho = -(1/2) sqrt(A + B a rho^{-1-a}) / sqrt(rho)
        h = 1e-6
        for rho in (0.2, 0.5, 0.9):
            up = rarefaction_curve_u(P_REF, LEFT, rho + h, "backward")
            um = rarefaction_curve_u(P_REF, LEFT, rho - h, "backward")
            slope = (math.sqrt(up) - math.sqrt(um)) / (2 * h)
            expect = -0.5 * math.sqrt(
                P_REF.A * rho + P_REF.B * P_REF.alpha / rho**P_REF.alpha
            ) / rho
            assert slope == pytest.approx(expect, rel=1e-5)

    def test_forward_curve_exceeds_any_bound_for_large_rho(self):
        # u -> +inf along the forward rarefaction curve as rho grows
        p = perturbed_params(1e-3, 1e-3)
        u_prev = LEFT.u
        exceeded = False
        for rho in (10.0, 1e2, 1e3, 1e4, 1e5):
            u = rarefaction_curve_u(p, LEFT, rho, "forward")
            assert u > u_prev
            u_prev = u
            if u > LEFT.u + 10.0:
                exceeded = True
        assert exceeded


class TestShockLocus:
    def test_e1_matches_rh_elimination(self):
        # E1 must reproduce (u_r - u_l)^2 for states linked by the exact jump
        # conditions; verify by residual of the full system at the located root
        for rho in (1.5, 2.5, 4.0, 8.0):
            u = shock_curve_u(P_REF, LEFT, rho, "backward")
            e1 = E1(P_REF, LEFT.u, LEFT.rho, u, rho)
            assert (u - LEFT.u) ** 2 == pytest.approx(e1, rel=1e-9, abs=1e-12)
            sigma = shock_speed_perturbed(P_REF, LEFT, State(u, rho))
            r1, r2 = rh_residual_perturbed(P_REF, LEFT, State(u, rho), sigma)
            assert abs(r1) < 1e-12
            assert abs(r2) < 1e-9

    def test_shock_root_stable_at_tiny_coefficients(self):
        # discriminant rewrite must survive A = B = 1e-12 without cancellation
        p = perturbed_params(1e-12, 1e-12)
        u = shock_curve_u(p, LEFT, 100.0, "backward")
        assert 0.0 < u < LEFT.u
        sigma = shock_speed_perturbed(p, LEFT, State(u, 100.0))
        r1, r2 = rh_residual_perturbed(p, LEFT, State(u, 100.0), sigma)
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-8

    def test_velocity_decreases_along_both_shock_branches(self):
        rhos_b = np.linspace(LEFT.rho, 10.0, 30)
        us_b = [shock_curve_u(P_REF, LEFT, r, "backward") for r in rhos_b]
        assert all(b < a + 1e-15 for a, b in zip(us_b, us_b[1:]))
        rhos_f = np.linspace(LEFT.rho, 0.05, 30)
        us_f = [shock_curve_u(P_REF, LEFT, r, "forward") for r in rhos_f]
        assert all(b < a + 1e-15 for a, b in zip(us_f, us_f[1:]))

    def test_slope_diagnostics_vanish_at_anchor(self):
        # E2 (the u_r-derivative of E1) is exactly zero at rho = rho_left
        e2, e3 = shock_slope_diagnostics(P_REF, LEFT, LEFT)
        assert e2 == pytest.approx(0.0, abs=1e-14)
        assert e3 == pytest.approx(0.0, abs=1e-14)

    def test_slope_diagnostics_signs_on_backward_branch(self):
        # past the anchor: E2 > 0 and E3 > 0, making du/drho = -E3/... < 0
        star = State(shock_curve_u(P_REF, LEFT, 3.0, "backward"), 3.0)
        e2, e3 = shock_slope_diagnostics(P_REF, LEFT, star)
        assert e2 > 0.0
        assert e3 > 0.0

    def test_e2_is_derivative_of_e1_in_u(self):
        c_l, c_r = e1_coefficients(P_REF, LEFT.rho, 3.0)
        star = State(shock_curve_u(P_REF, LEFT, 3.0, "backward"), 3.0)
        e2, _ = shock_slope_diagnostics(P_REF, LEFT, star)
        assert e2 == pytest.approx(c_r, rel=1e-12)

    def test_rho_axis_intercept(self):
        rho0 = rho_axis_intercept(P_REF, LEFT)
        assert rho0 == pytest.approx(40.554144458, rel=1e-8)
        # at the intercept the signed shock relation holds with u = 0
        e1 = E1(P_REF, LEFT.u, LEFT.rho, 0.0, rho0)
        assert math.sqrt(e1) == pytest.approx(LEFT.u, rel=1e-9)

    def test_rho_axis_intercept_beyond_float_range_raises(self):
        # the intercept ~ 2*u/A overflows; the expansion must stop, typed
        p = perturbed_params(1e-300, 1e-300)
        with pytest.raises(BracketError):
            rho_axis_intercept(p, State(1e10, 1.0))

    def test_lax_inequalities_strict(self):
        star = State(shock_curve_u(P_REF, LEFT, 3.0, "backward"), 3.0)
        sigma = shock_speed_perturbed(P_REF, LEFT, star)
        lam_l = eigenvalues_perturbed(P_REF, LEFT)
        lam_s = eigenvalues_perturbed(P_REF, star)
        assert lam_s.lambda1 < sigma < lam_l.lambda1
        assert sigma < lam_s.lambda2


class TestClassification:
    def test_two_shock_data(self):
        assert classify_perturbed(P_REF, LEFT, RIGHT) is RegionLabel17.SS

    def test_two_rarefaction_data(self):
        assert classify_perturbed(P_REF, LEFT_RR, RIGHT_RR) is RegionLabel17.RR

    def test_mixed_regions(self):
        # label letters: backward-wave type then forward-wave type
        u_b = rarefaction_curve_u(P_REF, LEFT, 0.5, "backward")
        assert (
            classify_perturbed(P_REF, LEFT, State(u_b + 0.2, 0.5)) is RegionLabel17.RR
        )
        # between the forward-shock and backward-rarefaction curves at low rho
        assert (
            classify_perturbed(P_REF, LEFT, State(u_b - 0.2, 0.5)) is RegionLabel17.RS
        )
        # between the backward-shock and forward-rarefaction curves at high rho
        u_s = shock_curve_u(P_REF, LEFT, 3.0, "backward")
        u_f = rarefaction_curve_u(P_REF, LEFT, 3.0, "forward")
        mid = 0.5 * (u_s + u_f)
        assert classify_perturbed(P_REF, LEFT, State(mid, 3.0)) is RegionLabel17.SR
        assert (
            classify_perturbed(P_REF, LEFT, State(u_s - 0.1, 3.0)) is RegionLabel17.SS
        )

    def test_boundary_and_coincident_labels(self):
        u_b = rarefaction_curve_u(P_REF, LEFT, 0.5, "backward")
        assert (
            classify_perturbed(P_REF, LEFT, State(u_b, 0.5))
            is RegionLabel17.ON_BACKWARD_R
        )
        assert classify_perturbed(P_REF, LEFT, LEFT) is RegionLabel17.COINCIDENT

    def test_solution_pattern_matches_label(self):
        for left, right in (
            (LEFT, RIGHT),
            (LEFT_RR, RIGHT_RR),
            (LEFT, State(1.7, 0.5)),
        ):
            label = classify_perturbed(P_REF, left, right)
            sol = solve_perturbed(P_REF, left, right)
            kinds = "".join(
                "S" if isinstance(w, ShockWave) else "R" for w in sol.waves
            )
            assert label.value == kinds


class TestSolver:
    def test_two_shock_star_state_small_pressure(self):
        p = perturbed_params(1e-4, 1e-4)
        sol = solve_perturbed(p, LEFT, RIGHT)
        assert sol.star.u == pytest.approx(1.4106493475133632, rel=1e-8)
        assert sol.star.rho == pytest.approx(70.370652458, rel=1e-6)
        s1, s2 = (w.speed for w in sol.waves)
        assert s1 == pytest.approx(1.40215, rel=1e-4)
        assert s2 == pytest.approx(1.42266, rel=1e-4)
        assert s1 < s2

    def test_emitted_shock_sign_structure(self):
        # backward shock: rho increases, u decreases; forward shock: rho
        # decreases left to right, u decreases
        sol = solve_perturbed(P_REF, LEFT, RIGHT)
        assert all(isinstance(w, ShockWave) for w in sol.waves)
        assert sol.star.rho > LEFT.rho and sol.star.u < LEFT.u
        assert sol.star.rho > RIGHT.rho and RIGHT.u < sol.star.u

    def test_emitted_shocks_satisfy_rh_and_lax(self):
        for left, right in ((LEFT, RIGHT), (State(3.0, 0.7), State(1.2, 1.1))):
            sol = solve_perturbed(P_REF, left, right)
            states = (left, sol.star, right)
            for k, w in enumerate(sol.waves):
                if not isinstance(w, ShockWave):
                    continue
                sl, sr = states[k], states[k + 1]
                r1, r2 = rh_residual_perturbed(P_REF, sl, sr, w.speed)
                assert abs(r1) <= 1e-9 * max(1.0, sl.rho * sl.u, sr.rho * sr.u)
                assert abs(r2) <= 1e-9 * max(1.0, sl.rho * sl.u, sr.rho * sr.u)
                lam_k = lambda s: getattr(
                    eigenvalues_perturbed(P_REF, s), f"lambda{k + 1}"
                )
                assert lam_k(sr) < w.speed < lam_k(sl)

    def test_fans_have_nondecreasing_velocity(self):
        sol = solve_perturbed(P_REF, LEFT_RR, RIGHT_RR)
        for w in sol.waves:
            assert isinstance(w, RarefactionFan)
            assert w.head < w.tail
            us = [
                sol.sample(xi)[0]
                for xi in np.linspace(w.head + 1e-12, w.tail - 1e-12, 100)
            ]
            assert all(b >= a - 1e-10 for a, b in zip(us, us[1:]))

    def test_fan_profile_matches_characteristic_speed(self):
        sol = solve_perturbed(P_REF, LEFT_RR, RIGHT_RR)
        w1, w2 = sol.waves
        for xi in np.linspace(w1.head + 1e-9, w1.tail - 1e-9, 20):
            u, rho = sol.sample(xi)
            lam = eigenvalues_perturbed(P_REF, State(u, rho)).lambda1
            assert lam == pytest.approx(xi, abs=1e-8)
        for xi in np.linspace(w2.head + 1e-9, w2.tail - 1e-9, 20):
            u, rho = sol.sample(xi)
            lam = eigenvalues_perturbed(P_REF, State(u, rho)).lambda2
            assert lam == pytest.approx(xi, abs=1e-8)

    def test_sampling_constant_outside_waves(self):
        sol = solve_perturbed(P_REF, LEFT, RIGHT)
        s1, s2 = (w.speed for w in sol.waves)
        assert sol.sample(s1 - 1.0) == (LEFT.u, LEFT.rho)
        mid = 0.5 * (s1 + s2)
        assert sol.sample(mid) == (sol.star.u, sol.star.rho)
        assert sol.sample(s2 + 1.0) == (RIGHT.u, RIGHT.rho)

    def test_degenerate_pressure_rejected(self):
        with pytest.raises(InapplicableError):
            solve_perturbed(perturbed_params(0.0, 0.1), LEFT, RIGHT)
        with pytest.raises(InapplicableError):
            solve_perturbed(perturbed_params(0.1, 0.0), LEFT, RIGHT)

    def test_coincident_data(self):
        sol = solve_perturbed(P_REF, LEFT, LEFT)
        assert sol.waves == ()
        assert sol.sample(0.0) == (LEFT.u, LEFT.rho)

    @pytest.mark.parametrize(
        "left, right", [(LEFT_RR, RIGHT_RR), (State(1.0, 2.0), State(2.0, 1.0))]
    )
    def test_no_quadrature_repeated(self, monkeypatch, left, right):
        # the curves at rho* come from the root finder's own evaluations
        bounds = []

        def recording_quad(f, a, b, **kwargs):
            bounds.append((a, b))
            return quadrature.quad(f, a, b, **kwargs)

        monkeypatch.setattr(perturbed, "quad", recording_quad)
        solve_perturbed(P_REF, left, right)
        assert bounds
        assert len(bounds) == len(set(bounds))


class TestWeakForm:
    def test_bump_function_support_and_derivative(self):
        bump = BumpTestFunction(0.5, 0.25)
        assert bump(0.5) == 1.0
        assert bump(0.76) == 0.0
        assert bump(0.24) == 0.0
        h = 1e-7
        for xi in (0.4, 0.5, 0.6, 0.7):
            fd = (bump(xi + h) - bump(xi - h)) / (2 * h)
            assert bump.derivative(xi) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_exact_solution_residuals_small(self):
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT, RIGHT)
        s1 = sol.waves[0].speed
        for center in (s1 - 0.5, s1, s1 + 0.3):
            r1, r2 = weak_form_residual(p, sol, BumpTestFunction(center, 0.8))
            assert abs(r1) < 1e-8
            assert abs(r2) < 1e-8

    def test_residual_detects_wrong_star_state(self):
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT, RIGHT)
        bad_star = State(sol.star.u, sol.star.rho * 1.01)
        bad = RiemannSolution17(p, LEFT, bad_star, RIGHT, sol.waves)
        bump = BumpTestFunction(sol.waves[0].speed, 0.8)
        r1, _ = weak_form_residual(p, bad, bump)
        assert abs(r1) > 1e-4

    def test_support_outside_window_rejected(self):
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT, RIGHT)
        with pytest.raises(ValueError):
            weak_form_residual(p, sol, BumpTestFunction(0.0, 5.0), window=(-1.0, 1.0))
