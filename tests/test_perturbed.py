"""Exact Riemann solver for the perturbed system: wave curves, shock locus
algebra, classification, solution assembly and weak-form residuals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

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
from awrlab import original, perturbed, quadrature, rootfind
from awrlab.core import (
    BranchError,
    Contact,
    DegenerateDensityError,
    DensityUnderflowError,
    Fan,
    InapplicableError,
    Shock,
    eigenvalues_perturbed,
    flux,
    offset,
    to_conserved,
)
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


def meeting_log10(A, B, alpha, left, right, guess):
    """log10 of the density where the rarefaction curves through ``left`` and
    ``right`` meet below both, from ``guess``: a 30-digit root of
    int_t^t_l f + int_t^t_r f = 2*(sqrt(u_r) - sqrt(u_l)) in t = log(rho)."""
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(30):
        a = mp.mpf(alpha)

        def f(s):
            return mp.sqrt(mp.mpf(A) * mp.exp(s) + mp.mpf(B) * a * mp.exp(-a * s))

        t_l, t_r = mp.log(left.rho), mp.log(right.rho)
        target = 2 * (mp.sqrt(right.u) - mp.sqrt(left.u))

        def meet(t):
            return mp.quad(f, mp.linspace(t, t_l, 8)) + mp.quad(f, mp.linspace(t, t_r, 8)) - target

        t0 = mp.mpf(guess) * mp.log(10)
        return float(mp.findroot(meet, (t0, t0 + mp.mpf("1e-6")), solver="secant") / mp.log(10))


def no_quad(*args, **kwargs):
    raise AssertionError("a direct quad on a request inside the panel range")


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

    def test_scipy_quad_oracle(self):
        # the in-house rule, and rarefaction_integral's panel sums, against
        # QUADPACK over 500 log-uniform draws
        rng = np.random.default_rng(20261018)
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
            value, err = quadrature.quad(
                integrand, math.log(lo), math.log(hi), epsabs=1e-14, epsrel=1e-12
            )
            assert value == pytest.approx(expect, rel=1e-12, abs=1e-14)
            assert math.isfinite(err) and err >= 0.0

    def test_stops_once_every_estimate_is_at_its_roundoff_floor(self, monkeypatch):
        # the integral of 1000*sin over a period is 0, far below the rule's
        # roundoff floor 50*eps*resabs of about 4e-11, which is its estimate;
        # the floors add up under bisection, so quad once split to LIMIT
        # intervals (399 applications) without meeting epsabs, and now
        # returns the honest estimate at once
        applied = []
        rule = quadrature._qk21

        def counting_rule(*args):
            applied.append(args[1:])
            return rule(*args)

        monkeypatch.setattr(quadrature, "_qk21", counting_rule)
        value, err = quadrature.quad(
            lambda x: 1e3 * math.sin(x), 0.0, 2.0 * math.pi, epsabs=1e-14, epsrel=1e-12
        )
        assert len(applied) <= 3
        assert abs(value) <= 1e-12
        assert 1e-11 < err < 1e-10  # above epsabs: the tolerance was not met


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

    @pytest.mark.parametrize("rho", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_degenerate_densities_refused(self, rho, direction):
        # once a ZeroDivisionError (shock, rho = 0), a TypeError from a complex
        # power (shock, rho < 0), a bare math domain error (rarefaction,
        # rho <= 0) and an OverflowError from a floor (rho = inf)
        for curve in (shock_curve_u, rarefaction_curve_u):
            with pytest.raises(DegenerateDensityError, match="finite and > 0"):
                curve(P_REF, LEFT, rho, direction)
        for bounds in ((rho, 1.0), (1.0, rho)):
            with pytest.raises(DegenerateDensityError, match="finite and > 0"):
                rarefaction_integral(P_REF, *bounds)

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

    def test_small_shock_root_from_the_roots_product(self):
        # the small root of (u - u0)^2 = E1 was once the difference of two
        # numbers near 5.7e7, off by 1e-8 against an admissibility tolerance
        # of 6.8e-8 ("no admissible root ... (unexpected)"); from Vieta's
        # formula it solves.  Each shock's jump residuals, scaled by the terms
        # they cancel as in perfbench/workloads.py's check_jumps, stay within
        # the tier-1 jump tolerance
        jump_tol = 1e-9
        p = perturbed_params(4.304e-12, 4.815e-12, 0.98868)
        left, right = State(67.364, 5.6515e-5), State(0.16572, 3.8635e7)
        sol = solve_perturbed(p, left, right)
        assert sol.star.rho == pytest.approx(8.69e5, rel=1e-3)

        def term_scale(s):
            a = p.alpha
            return max(s.rho * s.u, p.A * s.rho**2, p.B * s.rho ** (1.0 - a) / (1.0 - a))

        states = (left, sol.star, right)
        shocks = [(states[k], states[k + 1], w.speed)
                  for k, w in enumerate(sol.waves) if isinstance(w, ShockWave)]
        assert shocks
        for sl, sr, sigma in shocks:
            r1, r2 = rh_residual_perturbed(p, sl, sr, sigma)
            speed = max(1.0, abs(sigma), sl.u, sr.u)
            assert abs(r1) <= jump_tol * speed * max(1.0, sl.rho, sr.rho)
            assert abs(r2) <= jump_tol * speed * max(1.0, term_scale(sl), term_scale(sr))

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

    def test_right_state_on_the_backward_shock_curve_gives_one_shock(self):
        # the curves meet at the right state itself, so the forward wave has
        # no strength and the solve returns the backward shock alone
        right = State(shock_curve_u(P_REF, LEFT, 2.0, "backward"), 2.0)
        sol = solve_perturbed(P_REF, LEFT, right)
        assert sol.star == right
        assert sol.waves == (Shock(shock_speed_perturbed(P_REF, LEFT, right)),)

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

    def test_law_of_the_original_system_refused(self):
        # with the original tag the weak form on a bump at the first shock
        # read r2 = 0.498 where the solve went through; every entry point
        # now names the tag it refuses
        p = PressureParams(0.1, 0.1, 0.5)
        calls = [
            lambda: solve_perturbed(p, LEFT, RIGHT),
            lambda: classify_perturbed(p, LEFT, RIGHT),
            lambda: rarefaction_integral(p, 1.0, 2.0),
            lambda: rarefaction_curve_u(p, LEFT, 0.5, "backward"),
            lambda: shock_curve_u(p, LEFT, 2.0, "backward"),
        ]
        for call in calls:
            with pytest.raises(InapplicableError) as raised:
                call()
            assert str(raised.value) == "the perturbed solver refuses a law tagged 'original'"

    def test_star_state_below_zero_velocity_is_typed(self):
        # the curves meet where the backward one has left u > 0 behind: the
        # solve refuses the data rather than return a state with u* <= 0
        p = perturbed_params(
            1.2708674738382298e-05, 3.349185622514799e-12, 0.0003998288260407878
        )
        left = State(6.890727614334011e-06, 2.8275364587446644e-07)
        right = State(0.1242310825580985, 169681.30465649776)
        with pytest.raises(InapplicableError) as raised:
            solve_perturbed(p, left, right)
        assert str(raised.value) == "intersection fell outside the positive-velocity region"

    def test_coincident_data(self):
        sol = solve_perturbed(P_REF, LEFT, LEFT)
        assert sol.waves == ()
        assert sol.sample(0.0) == (LEFT.u, LEFT.rho)

    @pytest.mark.parametrize(
        "left, right", [(LEFT_RR, RIGHT_RR), (State(1.0, 2.0), State(2.0, 1.0))]
    )
    def test_no_quadrature_repeated(self, monkeypatch, left, right):
        # inside the panel range a solve makes no quad call, and forms the
        # integrand values of each panel of its cold panel store once, however
        # often its requests cover it
        perturbed._unit_table.cache_clear()
        built = []
        values = perturbed.RarefactionTable._values

        def recording_values(self, k):
            built.append(k)
            return values(self, k)

        monkeypatch.setattr(perturbed, "quad", no_quad)
        monkeypatch.setattr(perturbed.RarefactionTable, "_values", recording_values)
        solve_perturbed(P_REF, left, right)
        assert built
        assert len(built) == len(set(built))

    def test_vacuum_side_star_matches_full_curve_map(self, monkeypatch):
        # below both data densities the star state comes from Newton's method
        # in log density on the table alone; it agrees with Brent's method on
        # the full curve map, and a solve asks the table for at most 20
        # integrals.  Two cases at tiny alpha, where the A term carries nearly
        # all the integral, follow the 60 draws: their B-term bound lies far
        # below the panels' range, where one quad up to the data would step
        # over the A term and report an underflow
        rng = np.random.default_rng(20261018)
        cases = [
            (
                perturbed_params(*10.0 ** rng.uniform(-6.0, -1.0, 2), rng.uniform(0.1, 0.9)),
                State(rng.uniform(1.0, 5.0), 10.0 ** rng.uniform(-1.0, 1.0)),
                State(rng.uniform(6.0, 20.0), 10.0 ** rng.uniform(-1.0, 1.0)),
            )
            for _ in range(60)
        ] + [
            (perturbed_params(7.376101314280621, 1.7044451614189331e-4, 1.1617132976911706e-5),
             State(0.13513707374741082, 0.770865474679201),
             State(44.49604483393318, 3.304955357898287)),
            (perturbed_params(9.753177368439392e-5, 3.881724491037347e-6, 1.8916694665543047e-6),
             State(0.018139025996204733, 700266.7468216004),
             State(141.51403457810014, 3691454.8686430124)),
        ]
        between = perturbed.RarefactionTable.between
        deep = 0
        for p, left, right in cases:
            calls = []

            def counting_between(self, t_a, t_b):
                calls.append((t_a, t_b))
                return between(self, t_a, t_b)

            monkeypatch.setattr(perturbed.RarefactionTable, "between", counting_between)
            star = solve_perturbed(p, left, right).star
            monkeypatch.undo()
            if star.rho >= min(left.rho, right.rho):
                continue
            deep += 1
            assert len(calls) <= 20
            table = perturbed.RarefactionTable(p)

            def curves(rho):
                return (
                    perturbed._wave_curve_u(table, left, rho, "backward"),
                    perturbed._wave_curve_u(table, right, rho, "forward", -1.0),
                )

            rho = rootfind.solve_decreasing(
                lambda rho: curves(rho)[0] - curves(rho)[1],
                min(left.rho, right.rho), max(left.rho, right.rho), rtol=1e-15,
            )
            assert star.rho == pytest.approx(rho, rel=1e-13, abs=0.0)
            assert star.u == pytest.approx(curves(rho)[0], rel=1e-13, abs=0.0)
        assert deep >= 30

    @pytest.mark.parametrize(
        "A, B, alpha, left, right",
        [
            (9.40e-4, 3.157e-11, 0.014234, State(42.13, 0.010573), State(3821.9, 1.2718e-5)),
            (1e-2, 1e-2, 1e-6, LEFT_RR, RIGHT_RR),
        ],
    )
    def test_star_density_underflow_is_typed(self, A, B, alpha, left, right):
        # two-rarefaction curves that meet below the smallest positive double:
        # the error is an InapplicableError and a BracketError, and its log10
        # rho* matches a 30-digit root of the curves' meeting condition,
        # int_t^t_l f + int_t^t_r f = 2*(sqrt(u_r) - sqrt(u_l)) in t = log(rho)
        with pytest.raises(DensityUnderflowError) as raised:
            solve_perturbed(perturbed_params(A, B, alpha), left, right)
        assert isinstance(raised.value, InapplicableError)
        assert isinstance(raised.value, BracketError)
        got = float(str(raised.value).rsplit("=", 1)[1])
        want = meeting_log10(A, B, alpha, left, right, got)
        assert got < math.log10(5e-324)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_subnormal_star_density_is_an_underflow(self):
        # the curves meet at t = -720, where e^t is subnormal and keeps about
        # 34 bits, too few for the curves to meet to tolerance there: the
        # search reports the underflow with its log10(rho*), instead of
        # failing its residual check
        A, B, alpha, left, right = 1e-300, 1e-300, 0.99, State(1.0, 1.0), State(1e10, 1.0)
        with pytest.raises(DensityUnderflowError) as raised:
            solve_perturbed(perturbed_params(A, B, alpha), left, right)
        got = float(str(raised.value).rsplit("=", 1)[1])
        assert math.log10(5e-324) < got < math.log10(2.0**-1022)
        want = meeting_log10(A, B, alpha, left, right, got)
        assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize(
        "left, right",
        [(State(1.0, 1e-315), State(1.5, 1e-300)), (State(1.0, 1e-300), State(1.2, 1e-315))],
    )
    def test_overflowing_pressure_term_is_typed(self, left, right):
        # at alpha = 0.99, B/rho**alpha overflows at rho = 1e-315 and so do
        # the shock coefficients, which once ended in "no admissible root on
        # the shock locus (unexpected)"
        with pytest.raises(InapplicableError) as raised:
            solve_perturbed(perturbed_params(1.0, 1.0, 0.99), left, right)
        assert str(raised.value) == "the pressure term B/rho**alpha overflows at rho = 1e-315"

    @pytest.mark.parametrize(
        "left, right",
        [
            (State(1.0, 1e200), State(0.5, 1e-200)),
            (State(2.0, 1e-200), State(1.0, 1e200)),
            (State(1.0, 1e-150), State(0.5, 1e160)),
        ],
    )
    def test_overflowing_shock_coefficient_is_typed(self, left, right):
        # densities so far apart that A*rho_l**2/rho_r overflows once ended
        # in a bare OverflowError from the float power
        p = perturbed_params(1.0, 1.0)
        for run in (solve_perturbed, classify_perturbed):
            with pytest.raises(InapplicableError) as raised:
                run(p, left, right)
            assert str(raised.value).startswith(
                "the shock coefficient term A*rho_l**2/rho_r overflows at rho_l = "
            )

    def test_identical_data_at_an_overflowing_pressure_term_is_constant(self):
        # no wave, so no shock coefficient: the check does not apply
        state = State(1.0, 1e-315)
        sol = solve_perturbed(perturbed_params(1.0, 1.0, 0.99), state, state)
        assert sol.waves == () and sol.star == state

    def test_vacuum_side_star_at_tiny_alpha(self):
        # rho* ~ 3.3e-125 at alpha ~ 3e-6: the curves meet where the integrand
        # is 1.5e-7, so t = log(rho*) moves by 1/1.5e-7 times any error in the
        # gap between the curves' square roots at min(rho_l, rho_r), which
        # the search is handed as they are.  Half an ulp of sqrt(u_r) alone
        # moves t by 1.6e-10; against a 30-digit root, t is held to 1e-9 and
        # u* to 1e-14
        import mpmath

        A, B, alpha = 9.616097775515177, 7.501883614797999e-09, 2.8494567880986255e-06
        left = State(0.04591441255581346, 0.0019135929438570999)
        right = State(0.1231549297966645, 9.77673360534302e-08)
        star = solve_perturbed(perturbed_params(A, B, alpha), left, right).star
        mp = mpmath.mp
        with mpmath.workdps(30):
            a = mp.mpf(alpha)

            def f(s):
                return mp.sqrt(mp.mpf(A) * mp.exp(s) + mp.mpf(B) * a * mp.exp(-a * s))

            t_l, t_r = mp.log(left.rho), mp.log(right.rho)
            target = 2 * (mp.sqrt(right.u) - mp.sqrt(left.u))

            def meet(t):
                return (mp.quad(f, mp.linspace(t, t_l, 8)) + mp.quad(f, mp.linspace(t, t_r, 8))
                        - target)

            t0 = mp.log(star.rho)
            t_star = mp.findroot(meet, (t0, t0 + mp.mpf("1e-6")), solver="secant")
            r_star = mp.sqrt(right.u) - mp.quad(f, mp.linspace(t_star, t_r, 8)) / 2
            want_t, want_u = float(t_star), float(r_star**2)
        assert star.rho < 1e-120
        assert abs(math.log(star.rho) - want_t) <= 1e-9
        assert star.u == pytest.approx(want_u, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("A", [0.1, 1e-4])
    def test_panel_builds_make_no_quad(self, monkeypatch, A):
        # over a solve and 10 samples per fan on a cold panel store, no
        # request makes a quad call; each panel build forms exactly
        # CHEB_POINTS integrand values, each, scaled, the integrand at its
        # Chebyshev point, and every built panel is on the solution's table
        perturbed._unit_table.cache_clear()
        table_cls = perturbed.RarefactionTable
        values, panel = table_cls._values, table_cls._panel
        bounds, evals, builds = [], [0], []

        def recording_quad(f, a, b, **kwargs):
            bounds.append((min(a, b), max(a, b)))
            return quadrature.quad(f, a, b, **kwargs)

        def checked_values(self, k):
            got = values(self, k)
            evals[0] += len(got)
            for x, v in zip(perturbed._CHEB_X, got):
                expect = self.integrand(k + 0.5 + 0.5 * x)
                assert self.scale * v == pytest.approx(expect, rel=1e-14, abs=0.0)
            return got

        def recording_panel(self, k):
            built, calls, evaluated = len(self._panels), len(bounds), evals[0]
            result = panel(self, k)
            if len(self._panels) > built:
                builds.append((len(bounds) - calls, evals[0] - evaluated))
            return result

        monkeypatch.setattr(perturbed, "quad", recording_quad)
        monkeypatch.setattr(table_cls, "_values", checked_values)
        monkeypatch.setattr(table_cls, "_panel", recording_panel)
        sol = solve_perturbed(perturbed_params(A, A), LEFT_RR, RIGHT_RR)
        for w in sol.waves:
            for xi in np.linspace(w.head, w.tail, 12)[1:-1]:
                sol.sample(float(xi))
        assert bounds == []
        assert builds == [(0, perturbed.CHEB_POINTS)] * len(builds)
        assert len(builds) == sol.table.panels_built > 0

    def test_fan_sample_past_the_curve_end_gives_its_end(self):
        # the tail comes from the downstream state, the profile from the curve
        # through the upstream one; between the two end speeds the profile
        # keeps the curve's end instead of losing the bracket
        star = State(1.0, 1.0)
        u_end = rarefaction_curve_u(P_REF, star, 2.0, "forward")
        end = State(u_end * (1.0 + 1e-9), 2.0)
        fan = perturbed._wave(perturbed.RarefactionTable(P_REF), "forward", star, end)
        lam_end = eigenvalues_perturbed(P_REF, State(u_end, 2.0)).lambda2
        assert lam_end < fan.tail
        assert fan.profile(0.5 * (lam_end + fan.tail)) == (u_end, 2.0)


class TestRarefactionTable:
    def test_between_matches_scipy_quad(self):
        # the panel sums and Chebyshev partials against QUADPACK over 2,000
        # log-uniform pressure laws and intervals in [-60, 60], plus half a
        # panel or more of the panel where the two pressure terms cross,
        # which converges slowest; across each panel end the integral from
        # t_a keeps rising
        rng = np.random.default_rng(20261020)
        for _ in range(2000):
            A, B = 10.0 ** rng.uniform(-10.0, 1.0, size=2)
            alpha = 10.0 ** rng.uniform(-3.0, math.log10(0.999))
            t_a, t_b = rng.uniform(-60.0, 60.0, size=2)
            table = perturbed.RarefactionTable(perturbed_params(A, B, alpha))
            got = table.between(t_a, t_b)
            lo, hi = min(t_a, t_b), max(t_a, t_b)
            assert table.panels_built == math.ceil(hi) - math.floor(lo)

            def integrand(t):
                return math.sqrt(A * math.exp(t) + B * alpha * math.exp(-alpha * t))

            # break points keep QUADPACK's own error well below the bound
            ends = range(math.floor(lo) + 1, math.ceil(hi))  # panel ends inside
            expect, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, points=ends, limit=400)
            assert got == pytest.approx(math.copysign(expect, t_b - t_a), rel=1e-13, abs=0.0)
            for k in {*ends[:1], *ends[-1:]}:
                values = [table.between(t_a, k + d) for d in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6)]
                assert values == sorted(values)
            k = math.floor(math.log(B * alpha / A) / (1.0 + alpha))
            table._panel(k)
            t_c, t_d = k + rng.uniform(0.0, 0.25), k + rng.uniform(0.75, 1.0)
            expect, _ = quad(integrand, t_c, t_d, epsabs=0.0, epsrel=1e-13)
            assert table.between(t_c, t_d) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_panel_sums_on_long_requests(self, monkeypatch):
        # requests reaching from near the bottom of the double range to t in
        # [-5, 5] are panel sums, made without a quad call and held to 1e-11
        # relative.  Above alpha = 0.954 e^(-alpha*t) overflows inside this
        # range, and sooner where B/A > 1 scales it, so the integrand factors
        # out e^(-alpha*t/2) there
        monkeypatch.setattr(perturbed, "quad", no_quad)
        rng = np.random.default_rng(20261020)
        for _ in range(100):
            A, B = 10.0 ** rng.uniform(-10.0, 1.0, size=2)
            alpha = 10.0 ** rng.uniform(-3.0, math.log10(0.999))
            t_a, t_b = rng.uniform(-744.0, -600.0), rng.uniform(-5.0, 5.0)
            table = perturbed.RarefactionTable(perturbed_params(A, B, alpha))
            got = table.between(t_a, t_b)
            assert table.panels_built >= math.ceil(t_b) - math.floor(t_a)

            def integrand(t):
                h = math.exp(-0.5 * alpha * t)
                return h * math.sqrt(A * math.exp(t) / h / h + B * alpha)

            # QUADPACK split at every integer, so its own error stays near 1e-15
            ends = range(math.floor(t_a) + 1, math.ceil(t_b))
            expect, _ = quad(
                integrand, t_a, t_b, epsabs=0.0, epsrel=1e-13, points=ends, limit=2000
            )
            assert got == pytest.approx(expect, rel=1e-11, abs=0.0)

    def test_integral_from_is_history_free_and_matches_between(self):
        # over 500 pressure laws, requests on both sides of t0, near it and
        # far, at integers and between them: two maps from one t0 asked in
        # opposite orders give the same bits, each value within 1e-14
        # relative of between(t0, t).  A short request across the integer n
        # just below t0 is a difference of two panel-end integrals, so it is
        # held to the rounding of the two panels it touches instead
        rng = np.random.default_rng(20261021)
        worst = short = 0.0
        for _ in range(500):
            A, B = 10.0 ** rng.uniform(-10.0, 1.0, size=2)
            alpha = 10.0 ** rng.uniform(-3.0, math.log10(0.999))
            table = perturbed.RarefactionTable(perturbed_params(A, B, alpha))
            t0 = rng.uniform(-60.0, 60.0)
            k0 = math.floor(t0)
            ts = [
                t0, *rng.uniform(-60.0, 60.0, size=4), *(t0 + rng.uniform(-2.0, 2.0, size=4)),
                k0 - 3, k0 - 1, k0, k0 + 1, k0 + 4, *rng.integers(-60, 61, size=2).tolist(),
            ]
            forward, backward = table.integral_from(t0), table.integral_from(t0)
            got = [forward(t) for t in ts]
            assert got == [backward(t) for t in reversed(ts)][::-1]
            assert got[0] == 0.0
            for t, value in zip(ts[1:], got[1:]):
                expect = table.between(t0, t)
                worst = max(worst, abs(value - expect) / abs(expect))
            for d in (1e-3, 1e-9):
                error = table.integral_from(k0 + d)(k0 - d) - table.between(k0 + d, k0 - d)
                short = max(short, abs(error) / table.between(k0 - 1, k0 + 1))
        assert worst <= 1e-14, worst
        assert short <= 1e-15, short

    def test_solution_reports_its_table(self, monkeypatch):
        # a two-shock solve meets both shock curves above the data densities
        # and needs no integral: no quad and no panel on a cold panel store; a
        # two-rarefaction solve of the same family reads that store, builds
        # panels without a quad, and its fans add more.  Only a request
        # beyond the panel range makes a quad, whose error estimate the
        # table reports
        perturbed._unit_table.cache_clear()
        calls = []

        def recording_quad(*args, **kwargs):
            calls.append(quadrature.quad(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(perturbed, "quad", recording_quad)
        shocks = solve_perturbed(P_REF, LEFT, RIGHT)
        assert calls == []
        assert shocks.table.panels_built == 0
        assert shocks.table.max_abserr == 0.0
        fans = solve_perturbed(P_REF, LEFT_RR, RIGHT_RR)
        assert fans.table._panels is shocks.table._panels
        built = fans.table.panels_built
        assert built > 0
        w = fans.waves[1]
        fans.sample(0.5 * (w.head + w.tail))
        assert fans.table.panels_built >= built
        assert shocks.table.panels_built == fans.table.panels_built
        assert calls == [] and fans.table.max_abserr == 0.0
        value = fans.table.between(-746.0, -743.5)
        assert len(calls) == 1
        assert 0.0 < fans.table.max_abserr == calls[0][1] <= 1e-12 * value
        assert shocks.table.max_abserr == 0.0


class TestUnitTables:
    def test_results_do_not_depend_on_cache_history(self):
        # one solve, its samples inside each fan, a weak-form residual on its
        # forward fan and one integral, bit for bit, with their panel store
        # cold, warm from solves at other A with the same alpha and B/A, and
        # rebuilt after eviction
        p = perturbed_params(1e-2, 3e-2, 0.4)

        def run():
            integral = rarefaction_integral(p, 0.5, 2.0)
            sol = solve_perturbed(p, LEFT_RR, RIGHT_RR)
            samples = [
                sol.sample(float(xi))
                for w in sol.waves
                for xi in np.linspace(w.head, w.tail, 9)[1:-1]
            ]
            w = sol.waves[1]
            bump = BumpTestFunction(0.5 * (w.head + w.tail), 0.3 * (w.tail - w.head))
            return sol.star, samples, weak_form_residual(p, sol, bump), integral

        perturbed._unit_table.cache_clear()
        cold = run()
        perturbed._unit_table.cache_clear()
        for A in (1e-1, 3e-3, 1e-4):
            sol = solve_perturbed(perturbed_params(A, 3.0 * A, 0.4), LEFT_RR, RIGHT_RR)
            for w in sol.waves:
                for xi in np.linspace(w.head, w.tail, 13)[1:-1]:
                    sol.sample(float(xi))
        warm = perturbed.RarefactionTable(p)
        assert warm.panels_built > 0
        store = warm._panels
        assert run() == cold
        for k in range(perturbed._UNIT_TABLES):
            solve_perturbed(perturbed_params(1e-2, 1e-2, 0.1 + 0.05 * k), LEFT_RR, RIGHT_RR)
        assert perturbed.RarefactionTable(p)._panels is not store
        assert run() == cold

    def test_lru_holds_at_most_its_bound(self):
        for k in range(3 * perturbed._UNIT_TABLES):
            solve_perturbed(perturbed_params(1e-2, 1e-2, 0.2 + 0.01 * k), LEFT_RR, RIGHT_RR)
            info = perturbed._unit_table.cache_info()
            assert info.currsize <= info.maxsize == perturbed._UNIT_TABLES
        assert info.currsize == perturbed._UNIT_TABLES

    def test_one_unit_table_per_alpha_and_b_over_a(self):
        a, b = (
            perturbed.RarefactionTable(perturbed_params(A, 2.0 * A, 0.3)) for A in (1e-1, 1e-5)
        )
        assert a._panels is b._panels
        assert (a.scale, b.scale) == (math.sqrt(1e-1), math.sqrt(1e-5))
        assert (a.c_a, a.c_b) == (1.0, 2.0)

    @pytest.mark.parametrize(
        "A, B",
        [(0.0, 0.3), (0.3, 0.0), (1e-300, 1e10), (1e-300, 1.0), (1e10, 1e-310)],
        ids=["A=0", "B=0", "B/A overflows", "B/A above 1e280", "B/A underflows"],
    )
    def test_unscaled_path(self, monkeypatch, A, B):
        # without a normal B/A up to 1e280 the panel store is the law's own,
        # shared with no other law of its B/A; scaled by sqrt(A) = 1e-150,
        # the unit integrand for B/A = 1e300 would overflow near t = -744,
        # where the law's own is about 1e160
        monkeypatch.setattr(perturbed, "quad", no_quad)
        alpha = 0.99
        table = perturbed.RarefactionTable(perturbed_params(A, B, alpha))
        assert (table.c_a, table.c_b, table.scale) == (A, B, 1.0)
        twice = perturbed.RarefactionTable(perturbed_params(2.0 * A, 2.0 * B, alpha))
        assert twice._panels is not table._panels

        def integrand(t):
            h = math.exp(-0.5 * alpha * t)
            return h * math.sqrt(A * math.exp(t) / h / h + B * alpha)

        for t_a, t_b in ((-5.0, 5.0), (-0.3, 0.2), (-744.0, -740.0)):
            ends = range(math.floor(t_a) + 1, math.ceil(t_b))
            expect, _ = quad(integrand, t_a, t_b, epsabs=0.0, epsrel=1e-13, points=ends or None)
            assert table.between(t_a, t_b) == pytest.approx(expect, rel=1e-13, abs=0.0)


class TestFanTable:
    def test_samples_match_scipy_per_point_solve(self):
        # each sample against an independent root of lambda_k(u(rho), rho) = xi
        # in log density, with u from QUADPACK; fans reach 30+ decades of density
        rng = np.random.default_rng(20261019)
        points = wide = 0
        for _ in range(300):
            A, B = 10.0 ** rng.uniform(-6.0, 0.0, size=2)
            alpha = 10.0 ** rng.uniform(-1.0, math.log10(0.9))
            u_l, u_r = np.sort(10.0 ** rng.uniform(-0.5, 1.5, size=2))
            rho_l, rho_r = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
            left, right = State(u_l, rho_l), State(u_r, rho_r)
            sol = solve_perturbed(perturbed_params(A, B, alpha), left, right)
            for k, (w, sl, sr) in enumerate(
                zip(sol.waves, (left, sol.star), (sol.star, right))
            ):
                if not isinstance(w, Fan):
                    continue
                t_l, t_r = math.log(sl.rho), math.log(sr.rho)
                wide += abs(t_r - t_l) > 30.0 * math.log(10.0)

                def lam(u, rho, k=k):
                    return u + (2 * k - 1) * math.sqrt(u * (A * rho + B * alpha / rho**alpha))

                def u_of(t, sl=sl, t_l=t_l):
                    integral, _ = quad(
                        lambda s: math.sqrt(A * math.exp(s) + B * alpha * math.exp(-alpha * s)),
                        t_l, t, epsabs=1e-14, epsrel=1e-12, limit=200,
                    )
                    return (math.sqrt(sl.u) + 0.5 * abs(integral)) ** 2

                for xi in np.linspace(w.head, w.tail, 4)[1:-1]:
                    u, rho = sol.sample(float(xi))
                    t = brentq(
                        lambda t: lam(u_of(t), math.exp(t)) - xi,
                        min(t_l, t_r), max(t_l, t_r), xtol=1e-15, rtol=1e-15,
                    )
                    assert u == pytest.approx(u_of(t), rel=1e-12, abs=0.0)
                    assert abs(lam(u, rho) - xi) <= 1e-13 * max(1.0, abs(xi))
                    points += 1
        assert points >= 1000
        assert wide >= 10


    def test_deep_fan_forms_coefficients_only_where_samples_land(self, monkeypatch):
        # a two-rarefaction solve whose star density is about 1.6e-55: its
        # fans span over a hundred unit panels.  Sampling reads a whole panel
        # from its stored integral, so antiderivative coefficients are formed
        # only for the panels that samples land in (the solve starts from a
        # cold panel store, so no earlier sampling formed them)
        perturbed._unit_table.cache_clear()
        sol = solve_perturbed(perturbed_params(1e-6, 1e-6, 0.1), LEFT_RR, State(20.0, 2.0))
        assert sol.star.rho < 1e-50
        coefficients = perturbed.RarefactionTable._coefficients
        formed = []

        def recording(self, k):
            if k not in self._coefs:
                formed.append(k)
            return coefficients(self, k)

        monkeypatch.setattr(perturbed.RarefactionTable, "_coefficients", recording)
        landed, spanned = set(), 0
        for w in sol.waves:
            assert isinstance(w, Fan)
            t_head, t_tail = w.curve[:2]
            spanned += math.ceil(max(t_head, t_tail)) - math.floor(min(t_head, t_tail))
            for xi in np.linspace(w.head, w.tail, 12)[1:-1]:
                t = math.log(sol.sample(float(xi))[1])
                landed |= {math.floor(t), math.ceil(t) - 1}
        assert spanned > 200
        assert formed and set(formed) <= landed
        assert len(formed) == len(set(formed)) <= 20

    def test_fan_below_the_overflow_of_e_minus_alpha_t(self):
        # at alpha = 0.99 e^(-alpha*t) overflows below t = -717, inside the
        # range of positive (subnormal) doubles; a forward fan from rho =
        # 1e-315 (t = -725) to 1e-300 still samples.  The curve's point map
        # against the integrand with e^(-alpha*t/2) factored out, and each
        # sample against lambda_2, within the precision a subnormal density
        # keeps
        p = perturbed_params(1e-300, 1e-300, 0.99)
        star = State(1.0, 1e-315)
        end = State(rarefaction_curve_u(p, star, 1e-300, "forward"), 1e-300)
        fan = perturbed._wave(perturbed.RarefactionTable(p), "forward", star, end)
        t_head, t_tail, point = fan.curve
        for t in np.linspace(t_head, t_tail, 9):
            lam, slope, u, rho = point(float(t))
            f = math.exp(-0.495 * t) * math.sqrt(1e-300 * math.exp(1.99 * t) + 0.99e-300)
            r = math.sqrt(u)
            assert lam == pytest.approx(r * (r + f), rel=1e-14, abs=0.0)
            assert math.isfinite(slope) and slope > 0.0
        prev_u = star.u
        for xi in np.linspace(fan.head, fan.tail, 7)[1:-1]:
            u, rho = fan.profile(float(xi))
            assert star.rho <= rho <= end.rho and u >= prev_u
            assert eigenvalues_perturbed(p, State(u, rho)).lambda2 == pytest.approx(xi, rel=1e-8)
            prev_u = u


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
        # a bump on the first wave's downstream edge, for two-shock data and
        # for the original system's shock and fan, each followed by a
        # contact; across the original contact a wrong star density keeps
        # the mass balance, so the fan's tail alone shows it there
        for system, A, left, right, floor in [
            ("perturbed", 1e-2, LEFT, RIGHT, 1e-4),
            ("original", 1e-2, LEFT, RIGHT, 1e-4),
            ("original", 1e-1, LEFT_RR, RIGHT_RR, 1e-5),
        ]:
            p = PressureParams(A, A, 0.5, system=system)
            sol = (original.solve if system == "original" else solve_perturbed)(p, left, right)
            bad_star = State(sol.star.u, sol.star.rho * 1.01)
            bad = type(sol)(p, left, bad_star, right, sol.waves)
            bump = BumpTestFunction(sol.waves[0].edges[1], 0.8)
            assert max(map(abs, weak_form_residual(p, sol, bump))) <= 1e-12
            r1, _ = weak_form_residual(p, bad, bump)
            assert abs(r1) > floor, (system, left, right, r1)

    def test_fan_without_curve_rejected(self):
        # a fan piece is integrated along the fan's curve in log density,
        # which a fan assembled from a bare profile does not carry
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT_RR, RIGHT_RR)
        fan = sol.waves[0]
        bare = RiemannSolution17(
            p, LEFT_RR, sol.star, RIGHT_RR, (Fan(fan.head, fan.tail, fan.profile), sol.waves[1])
        )
        with pytest.raises(InapplicableError, match="curve"):
            weak_form_residual(p, bare, BumpTestFunction(fan.tail, 0.1))

    def test_params_of_another_system_rejected(self):
        # the pressure law is the solution's: a perturbed two-shock solve
        # checked with params of the original system once read r2 = 0.174
        # silently, and with A doubled r2 = -0.239, against 1.4e-15 with its own
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT, RIGHT)
        bump = BumpTestFunction(sol.waves[0].speed, 0.5)
        assert max(map(abs, weak_form_residual(p, sol, bump))) <= 1e-13
        assert weak_form_residual(perturbed_params(1e-2, 1e-2), sol, bump) == weak_form_residual(
            p, sol, bump
        )
        for other in (PressureParams(0.01, 0.01, 0.5), perturbed_params(2e-2, 1e-2)):
            with pytest.raises(InapplicableError, match=f"not one of the {other.system} system"):
                weak_form_residual(other, sol, bump)

    @pytest.mark.parametrize("left, right", [(LEFT, RIGHT), (LEFT_RR, RIGHT_RR)])
    def test_each_xi_sampled_once(self, monkeypatch, left, right):
        """A constant-state piece is sampled once, at its midpoint, and a fan
        piece reads the fan's curve in log density, so no xi is sampled twice
        and the mass and momentum residuals share every sample."""
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, left, right)
        seen = []
        sample = RiemannSolution17.sample

        def counting_sample(self, xi):
            seen.append(xi)
            return sample(self, xi)

        monkeypatch.setattr(RiemannSolution17, "sample", counting_sample)
        weak_form_residual(p, sol, BumpTestFunction(sol.waves[0].edges[1], 0.8))
        assert seen
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize(
        "center, width",
        [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
         (0.0, 0.0), (0.0, -0.5), (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf)],
    )
    def test_bump_rejects_bad_shapes(self, center, width):
        # a zero width once divided by zero on the first call, a negative one
        # reversed the support and flipped the sign of the derivative
        with pytest.raises(ValueError, match="center|width"):
            BumpTestFunction(center, width)

    @pytest.mark.parametrize(
        "pattern, A, alpha, left, right",
        [
            ("SS", 1e-2, 0.5, LEFT, RIGHT),
            ("SR", 1e-2, 0.5, LEFT, State(2.0, 2.0)),
            ("RS", 1e-2, 0.5, LEFT, State(2.0, 0.5)),
            ("RR", 1e-2, 0.5, LEFT_RR, RIGHT_RR),
            ("RR", 1e-8, 0.1, LEFT_RR, RIGHT_RR),  # star density about 5e-57
            # the original system: a fan or a shock, then a contact (J)
            ("RJ", 1e-1, 0.5, LEFT_RR, RIGHT_RR),
            ("SJ", 1e-2, 0.5, LEFT, RIGHT),
        ],
    )
    def test_fan_pieces_match_xi_space_reference(self, pattern, A, alpha, left, right):
        system = "original" if pattern.endswith("J") else "perturbed"
        p = PressureParams(A, A, alpha, system=system)
        sol = (original.solve if system == "original" else solve_perturbed)(p, left, right)
        kinds = {Fan: "R", Shock: "S", Contact: "J"}
        assert "".join(kinds[type(w)] for w in sol.waves) == pattern
        (h0, t0), (h1, t1) = (w.edges for w in sol.waves)
        bumps = [BumpTestFunction(s, 0.5) for s in (t0, h1) if "R" not in pattern]
        for head, tail in ((h0, t0), (h1, t1)):
            if head == tail:
                continue
            width = tail - head
            bumps += [
                BumpTestFunction(0.5 * (head + tail), 0.25 * width),  # inside the fan
                BumpTestFunction(head, 0.5 * width),  # across its head
                BumpTestFunction(tail, 0.5 * width),  # across its tail
            ]
        # a bump over a whole fan and half the star state, from 0.01 beyond
        # the fan's outer edge to the middle of the star state
        star_mid = 0.5 * (t0 + h1)
        if h0 < t0:
            bumps.append(BumpTestFunction(0.5 * (h0 - 0.01 + star_mid), 0.5 * (star_mid - h0 + 0.01)))
        if h1 < t1:
            bumps.append(BumpTestFunction(0.5 * (star_mid + t1 + 0.01), 0.5 * (t1 + 0.01 - star_mid)))
        for bump in bumps:
            got = weak_form_residual(p, sol, bump)
            want = xi_space_residual(p, sol, bump)
            assert all(abs(g - w) <= 1e-13 for g, w in zip(got, want)), (bump, got, want)
            assert max(map(abs, got)) <= 1e-12, (bump, got)

    @pytest.mark.parametrize(
        "system, A, alpha, left, right",
        [
            ("perturbed", 1e-2, 0.1, LEFT_RR, RIGHT_RR),
            ("perturbed", 1e-8, 0.1, LEFT_RR, RIGHT_RR),
            ("original", 1e-1, 0.5, LEFT_RR, RIGHT_RR),  # a fan, then a contact
        ],
    )
    def test_fan_nodes_match_the_two_pass_integrand(self, monkeypatch, system, A, alpha, left, right):
        # a fan-piece node forms rho**alpha, the bump and its tuple once; the
        # residuals equal, bit for bit, those of the integrand that called the
        # bump and its derivative apart and offset and flux on rho alone
        p = PressureParams(A, A, alpha, system=system)
        sol = (original.solve if system == "original" else solve_perturbed)(p, left, right)
        first, last = sol.waves[0].edges[0], sol.waves[-1].edges[1]
        bumps = [BumpTestFunction(0.5 * (first + last), 0.5 * (last - first) + 0.1)]  # both waves
        for w in sol.waves:
            if isinstance(w, Fan):
                width = w.tail - w.head
                bumps += [
                    BumpTestFunction(0.5 * (w.head + w.tail), 0.25 * width),
                    BumpTestFunction(w.head, 0.5 * width),
                    BumpTestFunction(w.tail, 0.5 * width),
                ]
        for bump in bumps:
            got = weak_form_residual(p, sol, bump)
            lo, hi = bump.center - bump.width, bump.center + bump.width
            pieces = [
                (w.curve[2], k)
                for w in sol.waves
                if isinstance(w, Fan) and w.head < hi and lo < w.tail
                for k in (0, 1)
            ]

            def two_pass_quad(_, a, b, epsabs, epsrel):
                point, k = pieces.pop(0)

                def integrand(t):
                    xi, dxi, u, rho = point(t)
                    q = (rho, rho * (u + offset(p.system, p, rho)))[k]
                    f = flux(p, u, rho)[k]
                    return ((f - xi * q) * bump.derivative(xi) - q * bump(xi)) * dxi

                return quadrature.quad(integrand, a, b, epsabs=epsabs, epsrel=epsrel)

            with monkeypatch.context() as m:
                m.setattr(perturbed, "quad", two_pass_quad)
                assert weak_form_residual(p, sol, bump) == got, bump
            assert pieces == []

    def test_quad_stops_at_its_roundoff_floor(self, monkeypatch):
        # at data scale 10 a bump over the middle of the forward fan gives a
        # momentum integral of about -0.045 from nodes of size about 34: every
        # interval's estimate reaches its roundoff floor above the tolerance,
        # and quad once bisected both fan integrals on to LIMIT intervals, 798
        # rule applications; it now stops after 66, with residuals to 1e-12
        applied = []
        rule = quadrature._qk21

        def counting_rule(*args):
            applied.append(args[1:])
            return rule(*args)

        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, State(10.0, 10.0), State(20.0, 20.0))
        fan = sol.waves[1]
        bump = BumpTestFunction(0.5 * (fan.head + fan.tail), 0.51 * (fan.tail - fan.head))
        monkeypatch.setattr(quadrature, "_qk21", counting_rule)
        residuals = weak_form_residual(p, sol, bump)
        assert len(applied) <= 70
        assert max(map(abs, residuals)) <= 1e-12

    def test_two_shock_residual_is_the_weighted_jump_residuals(self):
        # constant pieces only: each contributes (f - b*q)*phi(b) - (f - a*q)*phi(a),
        # so the residual is minus the sum over the shocks of phi(sigma) times
        # the shock's jump residual -sigma*[q] + [f]
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT, RIGHT)
        s1, s2 = (w.speed for w in sol.waves)
        for center, width in [(s1, 0.5), (s2, 0.3), (0.5 * (s1 + s2), s2 - s1 + 0.1)]:
            bump = BumpTestFunction(center, width)
            want = [0.0, 0.0]
            for w, (sl, sr) in zip(sol.waves, ((LEFT, sol.star), (sol.star, RIGHT))):
                for k, r in enumerate(rh_residual_perturbed(p, sl, sr, w.speed)):
                    want[k] -= bump(w.speed) * r
            got = weak_form_residual(p, sol, bump)
            assert all(abs(g - w) <= 1e-14 for g, w in zip(got, want)), (bump, got, want)

    def test_wrong_star_state_with_reused_fans_detected(self):
        # the fans keep their own curves, so the wrong star state jumps by 1%
        # of its density at the backward fan's tail and the forward fan's
        # head; a bump over the star state sees both jumps in the mass residual
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT_RR, RIGHT_RR)
        bad_star = State(sol.star.u, sol.star.rho * 1.01)
        bad = RiemannSolution17(p, LEFT_RR, bad_star, RIGHT_RR, sol.waves)
        center = 0.5 * (sol.waves[0].tail + sol.waves[1].head)
        r1, _ = weak_form_residual(p, bad, BumpTestFunction(center, 0.8))
        assert abs(r1) > 1e-4

    @pytest.mark.parametrize("tighten", [1.0, 1e-3])
    def test_fan_inversions_bounded_by_cuts_inside_fans(self, monkeypatch, tighten):
        # one profile inversion per end of the support inside a fan, however
        # many quadrature nodes the fan pieces take; the star state alone is
        # one constant piece in closed form, with no quadrature
        p = perturbed_params(1e-2, 1e-2)
        sol = solve_perturbed(p, LEFT_RR, RIGHT_RR)
        (h0, t0), (h1, t1) = (w.edges for w in sol.waves)
        newton, quads, nodes = [], [], []
        solve, integrate = rootfind.safeguarded_newton, perturbed.quad

        def counting_newton(*args):
            newton.append(args)
            return solve(*args)

        def counting_quad(f, a, b, epsabs, epsrel):
            quads.append((a, b))

            def counted(x):
                nodes.append(x)
                return f(x)

            return integrate(counted, a, b, epsabs=epsabs * tighten, epsrel=epsrel * tighten)

        # the one fan inversion of both solvers, rootfind.invert_fan, calls it there
        monkeypatch.setattr(rootfind, "safeguarded_newton", counting_newton)
        monkeypatch.setattr(perturbed, "quad", counting_quad)
        for center, width, fan_piece in [
            (0.5 * (h0 + t0), 0.25 * (t0 - h0), True),  # both ends inside one fan
            (t0, 0.5 * (t0 - h0), True),  # one end inside
            (0.5 * (t0 + h1), 0.5 * (h1 - t0), False),  # the star state alone
            (0.5 * (h0 + t1), 0.5 * (t1 - h0) + 0.1, True),  # both fans, ends outside
            (0.5 * (t0 + h1), 0.5 * (h1 - t0) + 0.5 * (t0 - h0), True),  # one end in each fan
        ]:
            bump = BumpTestFunction(center, width)
            ends = (center - width, center + width)
            inside = sum(h < e < t for e in ends for h, t in ((h0, t0), (h1, t1)))
            del newton[:], quads[:], nodes[:]
            weak_form_residual(p, sol, bump)
            assert len(newton) <= min(inside, 2), (center, width, len(newton))
            if fan_piece:
                assert len(nodes) >= 42
            else:
                assert quads == []


def xi_space_residual(p, sol, bump):
    """Both weak-form residuals integrated in xi by quadrature.quad, sampling
    ``sol`` at every node, at tolerances 100 times tighter than the code's."""
    lo, hi = bump.center - bump.width, bump.center + bump.width
    cuts = sorted({lo, hi, *(e for w in sol.waves for e in w.edges if lo < e < hi)})

    def integrand(xi, k):
        u, rho = sol.sample(xi)
        q = (rho, to_conserved(p.system, p, State(u, rho)).q2)[k]
        f = flux(p, u, rho)[k]
        return (f - xi * q) * bump.derivative(xi) - q * bump(xi)

    return tuple(
        math.fsum(
            quadrature.quad(lambda xi: integrand(xi, k), a, b, epsabs=1e-15, epsrel=1e-13)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
        )
        for k in (0, 1)
    )
