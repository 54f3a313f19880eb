"""Exact Riemann solver for the original system: curves, classification,
intermediate state, wave speeds and sampling."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from awrlab import PressureParams, State, classify, original, solve, threshold_A0
from awrlab.core import DensityUnderflowError, NoThresholdError, eigenvalues_original
from awrlab.original import (
    Contact,
    Rarefaction,
    RegionLabel14,
    Shock,
    curve_constant,
    intermediate_state,
    phi,
    rh_residual,
    shock_speed,
)
from awrlab.rootfind import BracketError

RNG = np.random.RandomState(20240818)

P_REF = PressureParams(0.1, 0.1, 0.5)
LEFT = State(2.0, 1.0)
RIGHT = State(1.0, 2.0)


def random_cases(n):
    for _ in range(n):
        A = 10.0 ** RNG.uniform(-4, 0)
        B = 10.0 ** RNG.uniform(-4, 0)
        alpha = RNG.uniform(0.05, 1.0)
        ul, rl = 10.0 ** RNG.uniform(-1, 1), 10.0 ** RNG.uniform(-1, 1)
        ur, rr = 10.0 ** RNG.uniform(-1, 1), 10.0 ** RNG.uniform(-1, 1)
        yield PressureParams(A, B, alpha), State(ul, rl), State(ur, rr)


class TestCurveGeometry:
    def test_temple_property_phi_constant_on_curve(self):
        # shock and rarefaction loci coincide on phi = C_left: sample 1e3
        # curve points and evaluate phi on each
        c = curve_constant(P_REF, LEFT)
        rhos = 10.0 ** RNG.uniform(-2, 2, size=1000)
        for rho in rhos:
            u = -P_REF.A * rho + P_REF.B / rho**P_REF.alpha + c
            s_phi = u + P_REF.A * rho - P_REF.B / rho**P_REF.alpha
            assert abs(s_phi - c) < 1e-10

    def test_phi_matches_curve_constant_at_anchor(self):
        assert phi(P_REF, LEFT) == pytest.approx(curve_constant(P_REF, LEFT), abs=1e-15)

    def test_curve_decreasing_and_convex_in_u_rho(self):
        # along the 1-curve rho(u): drho/du < 0 and d2rho/du2 > 0
        c = curve_constant(P_REF, LEFT)

        def rho_of_u(u):
            return brentq(
                lambda r: -P_REF.A * r + P_REF.B / r**P_REF.alpha + c - u,
                1e-12,
                1e12,
                xtol=1e-300,
                rtol=1e-15,
            )

        us = np.linspace(c - 3.0, c + 3.0, 41)
        h = 1e-5
        for u in us:
            d1 = (rho_of_u(u + h) - rho_of_u(u - h)) / (2 * h)
            d2 = (rho_of_u(u + h) - 2 * rho_of_u(u) + rho_of_u(u - h)) / h**2
            assert d1 < 0.0
            assert d2 > 0.0


class TestClassification:
    def test_reference_case_region_depends_on_threshold(self):
        # u+ < u- always; phi+ - C changes sign at the coupled threshold
        assert classify(P_REF, LEFT, RIGHT) is RegionLabel14.IV  # A=0.1 < A0
        strong = PressureParams(1.0, 1.0, 0.5)
        assert classify(strong, LEFT, RIGHT) is RegionLabel14.III  # A=1 > A0

    def test_brute_force_oracle_equivalence(self):
        # classify must agree with the sign pattern (u+ - u-, phi+ - C)
        interior = {
            (True, True): RegionLabel14.I,
            (True, False): RegionLabel14.II,
            (False, False): RegionLabel14.IV,
            (False, True): RegionLabel14.III,
        }
        n_checked = 0
        for p, l, r in random_cases(1000):
            du = r.u - l.u
            dphi = phi(p, r) - curve_constant(p, l)
            if abs(du) <= 1e-12 or abs(dphi) <= 1e-12:
                continue  # boundary labels are exercised separately
            assert classify(p, l, r) is interior[(du > 0, dphi > 0)]
            n_checked += 1
        assert n_checked > 900

    def test_boundary_labels(self):
        c = curve_constant(P_REF, LEFT)
        on_curve_rho = 3.0
        on_curve_u = -P_REF.A * on_curve_rho + P_REF.B / on_curve_rho**P_REF.alpha + c
        lbl = classify(P_REF, LEFT, State(on_curve_u, on_curve_rho))
        assert lbl in (RegionLabel14.ON_R_CURVE, RegionLabel14.ON_S_CURVE)
        assert lbl is RegionLabel14.ON_S_CURVE  # rho > rho_left on the curve
        assert classify(P_REF, LEFT, State(LEFT.u, 5.0)) is RegionLabel14.ON_J_LINE
        assert classify(P_REF, LEFT, LEFT) is RegionLabel14.COINCIDENT


class TestThreshold:
    def test_threshold_alpha_one_closed_form(self):
        # A0 = (u- - u+)/((rho+ - 1/rho+) - (rho- - 1/rho-)) = 1/(3/2) = 2/3
        assert threshold_A0(LEFT, RIGHT, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_threshold_alpha_half_vs_root_oracle(self):
        # independent root solve of phi+(A) - C(A) = 0 with A = B
        def gap(a):
            p = PressureParams(a, a, 0.5)
            return phi(p, RIGHT) - curve_constant(p, LEFT)

        a0_oracle = brentq(gap, 1e-8, 1e3, rtol=1e-15)
        a0 = threshold_A0(LEFT, RIGHT, 0.5)
        assert a0 == pytest.approx(a0_oracle, rel=1e-12)
        assert a0 == pytest.approx(0.7734590803390136, rel=1e-10)

    def test_classification_flips_across_threshold(self):
        a0 = threshold_A0(LEFT, RIGHT, 1.0)
        below = PressureParams(a0 * (1 - 1e-3), a0 * (1 - 1e-3), 1.0)
        above = PressureParams(a0 * (1 + 1e-3), a0 * (1 + 1e-3), 1.0)
        assert classify(below, LEFT, RIGHT) is RegionLabel14.IV
        assert classify(above, LEFT, RIGHT) is RegionLabel14.III

    def test_no_threshold_when_densities_tie(self):
        with pytest.raises(NoThresholdError):
            threshold_A0(State(2.0, 1.0), State(1.0, 1.0), 1.0)


class TestIntermediateState:
    def test_star_state_vs_brentq_oracle(self):
        # rho* solves -A*rho + B/rho**alpha + C = u+ on the curve through left
        c = curve_constant(P_REF, LEFT)
        rho_oracle = brentq(
            lambda r: -P_REF.A * r + P_REF.B / r**P_REF.alpha + c - RIGHT.u,
            1e-8,
            1e8,
            rtol=1e-15,
        )
        star = intermediate_state(P_REF, LEFT, RIGHT.u)
        assert star.rho == pytest.approx(rho_oracle, rel=1e-12)
        assert star.rho == pytest.approx(10.311415946174673, rel=1e-10)
        assert star.u == RIGHT.u

    def test_star_state_lies_on_left_curve(self):
        for p, l, r in random_cases(200):
            star = intermediate_state(p, l, r.u)
            assert phi(p, star) == pytest.approx(
                curve_constant(p, l), rel=1e-10, abs=1e-10
            )

    def test_deep_vacuum_star_state(self):
        # rho* ~ 3e-128: the bracket must not span 120+ decades when handed
        # to the solver, or it stops on a wrong midpoint
        p = PressureParams(2.338e-4, 2.020e-6, 0.05107)
        left, right = State(2.0902, 1.0170), State(8.6304, 0.56526)
        sol = solve(p, left, right)
        assert sol.star.rho < 1e-120
        assert abs(phi(p, sol.star) - curve_constant(p, left)) <= 1e-12
        fan = sol.waves[0]
        assert isinstance(fan, Rarefaction)
        for k in range(1, 6):
            u, rho = sol.sample(fan.head + (fan.tail - fan.head) * k / 6.0)
            assert math.isfinite(u) and math.isfinite(rho) and rho > 0.0


    def test_wide_box_star_log_density_against_mpmath(self):
        # ROADMAP item 2's wide box (seed 2026): every star state is found or
        # raises DensityUnderflowError, never a bare BracketError.  Over the
        # underflow cases and every 25th other one, the log density agrees
        # with a 50-digit root of A*e^t - B*e^(-alpha*t) = d to 1e-13 relative
        # to max(1, |t|), and a normal rho* with e^t as well.  d = C(left) - u+
        # is taken as formed in doubles: where the two cancel, its rounding
        # moves the root for any method
        import mpmath

        rng = np.random.default_rng(2026)
        checked = underflows = 0
        for i in range(1500):
            A, B = 10.0 ** rng.uniform(-12.0, 2.0, size=2)
            alpha = 10.0 ** rng.uniform(-6.0, 0.0)
            u_l, rho_l = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-8.0, 8.0)
            u_r, rho_r = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-8.0, 8.0)
            p, left = PressureParams(A, B, alpha), State(u_l, rho_l)
            try:
                rho = intermediate_state(p, left, u_r).rho
            except DensityUnderflowError as err:
                rho, got_log10 = None, float(str(err).rsplit("=", 1)[1])
                underflows += 1
            if rho is not None and i % 25:
                continue
            d = curve_constant(p, left) - u_r
            t = original._star_log_density(p, d)
            with mpmath.workdps(50):
                A_, B_, a_ = mpmath.mpf(A), mpmath.mpf(B), mpmath.mpf(alpha)

                def f(s):
                    return A_ * mpmath.exp(s) - B_ * mpmath.exp(-a_ * s) - d

                lo, hi = mpmath.mpf(t) - 1, mpmath.mpf(t) + 1
                while f(lo) > 0:
                    lo -= 2 * (hi - lo)
                while f(hi) < 0:
                    hi += 2 * (hi - lo)
                want = float(mpmath.findroot(f, (lo, hi), solver="anderson"))
            scale = max(1.0, abs(want))
            assert abs(t - want) <= 1e-13 * scale
            if rho is None:
                assert want < math.log(5e-324)
                assert got_log10 == pytest.approx(want / math.log(10.0), rel=1e-11)
            elif rho >= 2.2250738585072014e-308:
                assert rho == pytest.approx(math.exp(want), rel=1e-13 * scale)
            checked += 1
        assert underflows > 300 and checked > underflows + 40

    def test_underflow_repro_is_typed(self):
        # rho* ~ (B/(u+ - C))^(1/alpha) lies far below the double range; the
        # geometric bracket expansion of Brent's method once raised a bare
        # BracketError here
        p = PressureParams(2.927e-7, 0.14828, 1.918e-4)
        with pytest.raises(DensityUnderflowError, match=r"log10\(rho\*\) = -"):
            intermediate_state(p, State(362.32, 63.137), 195889.7)


class TestWaveSpeedsAndResiduals:
    def test_shock_speed_frozen_value(self):
        star = intermediate_state(P_REF, LEFT, RIGHT.u)
        assert shock_speed(P_REF, LEFT, star) == pytest.approx(
            0.8926049479713318, rel=1e-10
        )

    def test_rh_residual_vanishes_on_shocks_and_contacts(self):
        for p, l, r in random_cases(300):
            if r.u >= l.u:
                continue
            star = intermediate_state(p, l, r.u)
            s1 = shock_speed(p, l, star)
            m_scale = max(1.0, abs(l.rho * l.u), abs(star.rho * star.u))
            r1, r2 = rh_residual(p, l, star, s1)
            assert abs(r1) <= 1e-9 * m_scale
            assert abs(r2) <= 1e-9 * m_scale * max(1.0, abs(s1))
            # contact between star and right at speed u+
            c1, c2 = rh_residual(p, star, r, r.u)
            assert abs(c1) <= 1e-9 * max(1.0, star.rho, r.rho)
            assert abs(c2) <= 1e-9 * max(1.0, star.rho, r.rho)

    def test_shock_is_lax_admissible(self):
        star = intermediate_state(P_REF, LEFT, RIGHT.u)
        s1 = shock_speed(P_REF, LEFT, star)
        lam_l = eigenvalues_original(P_REF, LEFT)
        lam_s = eigenvalues_original(P_REF, star)
        assert lam_s.lambda1 < s1 < lam_l.lambda1
        assert s1 < lam_s.lambda2


class TestSolutionSampling:
    def test_shock_contact_structure(self):
        sol = solve(P_REF, LEFT, RIGHT)
        assert isinstance(sol.waves[0], Shock)
        assert isinstance(sol.waves[1], Contact)
        assert sol.waves[1].speed == RIGHT.u
        assert sol.star.u == RIGHT.u

    def test_sampling_constant_on_regions_and_continuous_at_contact(self):
        sol = solve(P_REF, LEFT, RIGHT)
        s1, s2 = sol.waves[0].speed, sol.waves[1].speed
        for xi in np.linspace(s1 - 2.0, s1 - 0.01, 25):
            assert sol.sample(xi) == (LEFT.u, LEFT.rho)
        for xi in np.linspace(s1 + 0.01, s2 - 0.01, 25):
            assert sol.sample(xi) == (sol.star.u, sol.star.rho)
        for xi in np.linspace(s2 + 0.01, s2 + 2.0, 25):
            assert sol.sample(xi) == (RIGHT.u, RIGHT.rho)
        # velocity is continuous across the contact and equals its speed
        u_m, _ = sol.sample(s2 - 1e-9)
        u_p, _ = sol.sample(s2 + 1e-9)
        assert u_m == pytest.approx(s2, abs=1e-12)
        assert u_p == pytest.approx(s2, abs=1e-12)

    def test_rarefaction_case_fan_is_consistent(self):
        left, right = State(1.0, 2.0), State(2.0, 1.0)
        sol = solve(P_REF, left, right)
        fan = sol.waves[0]
        assert isinstance(fan, Rarefaction)
        assert fan.head < fan.tail
        assert fan.head == pytest.approx(
            eigenvalues_original(P_REF, left).lambda1, abs=1e-12
        )
        c = curve_constant(P_REF, left)
        prev_u = -math.inf
        for xi in np.linspace(fan.head, fan.tail, 50):
            u, rho = sol.sample(xi)
            # on the curve, at the right characteristic speed, u increasing
            assert -P_REF.A * rho + P_REF.B / rho**P_REF.alpha + c == pytest.approx(
                u, rel=1e-10
            )
            lam1 = eigenvalues_original(P_REF, State(u, rho)).lambda1
            assert lam1 == pytest.approx(xi, abs=1e-9)
            assert u >= prev_u - 1e-12
            prev_u = u

    def test_self_similarity_star_region(self):
        sol = solve(P_REF, LEFT, RIGHT)
        mid = 0.5 * (sol.waves[0].speed + sol.waves[1].speed)
        u, rho = sol.sample(mid)
        assert (u, rho) == (sol.star.u, sol.star.rho)

    def test_equal_velocity_data_yields_contact_only(self):
        sol = solve(P_REF, State(1.5, 1.0), State(1.5, 3.0))
        assert len(sol.waves) == 1
        assert isinstance(sol.waves[0], Contact)
        assert sol.waves[0].speed == 1.5

    def test_coincident_data_yields_constant(self):
        sol = solve(P_REF, LEFT, LEFT)
        assert sol.waves == ()
        assert sol.sample(0.0) == (LEFT.u, LEFT.rho)


def wide_box_fans(n, seed=20261018):
    """The deep-vacuum fan, a fan to the subnormal density 1e-309 at alpha =
    0.999 (where e^(-alpha*t) overflows), then ``n`` seeded fans with A, B in
    [1e-12, 1e2], alpha in [1e-3, 0.999] (one draw in five at alpha = 1), and
    u, rho log-uniform; draws whose star state leaves the double range are
    skipped."""
    rng = random.Random(seed)
    yield (
        PressureParams(2.338e-4, 2.020e-6, 0.05107),
        State(2.0902, 1.0170),
        State(8.6304, 0.56526),
    )
    p = PressureParams(1e-12, 1e-20, 0.999)
    yield p, State(1.0, 1.0), State(1.0 + p.B / 1e-309**p.alpha, 1.0)
    drawn = 0
    while drawn < n:
        A, B = 10.0 ** rng.uniform(-12, 2), 10.0 ** rng.uniform(-12, 2)
        alpha = 1.0 if rng.random() < 0.2 else rng.uniform(1e-3, 0.999)
        u_l, u_r = sorted(10.0 ** rng.uniform(-6, 6) for _ in range(2))
        rho_l, rho_r = 10.0 ** rng.uniform(-8, 8), 10.0 ** rng.uniform(-8, 8)
        p, left, right = PressureParams(A, B, alpha), State(u_l, rho_l), State(u_r, rho_r)
        try:
            intermediate_state(p, left, right.u)
        except BracketError:  # rho* below the double range
            continue
        drawn += 1
        yield p, left, right


class TestFanInversion:
    def test_fan_flat_to_rounding_samples_inside(self):
        # at alpha = 1 lambda1 = c - 2*A*rho; with A ~ 4e-10 the fan is about
        # 1e-15 wide, below an ulp of lambda1 ~ -1455, so lambda1 - xi has one
        # sign over the whole density bracket.  Head and tail differ by the
        # rounding of lambda1's terms alone: at u+ = 1000, B/rho* lies in the
        # binade above lambda1 and leaves two ulps between them
        p = PressureParams(3.7354534566287205e-10, 0.00479662718161354, 1.0)
        left = State(0.20577626876284488, 3.2955806904965204e-06)
        sol = solve(p, left, State(1000.0, 6.562076742353124e-05))
        fan = sol.waves[0]
        xi = 0.5 * (fan.head + fan.tail)
        assert isinstance(fan, Rarefaction) and fan.head < xi < fan.tail
        u, rho = sol.sample(xi)
        assert sol.star.rho * (1.0 - 1e-12) <= rho <= left.rho * (1.0 + 1e-12)
        assert left.u <= u <= sol.star.u * (1.0 + 1e-12)

    def test_fan_samples_in_a_wide_box(self):
        # lambda1(u, rho) = u - A*rho - alpha*B/rho**alpha cancels where u is
        # far above |xi|, and half an ulp of u is then the floor of its error
        for p, left, right in wide_box_fans(1000):
            sol = solve(p, left, right)
            fan, star = sol.waves[0], sol.star
            assert isinstance(fan, Rarefaction)
            c = curve_constant(p, left)
            prev_u = left.u
            for k in range(1, 33):
                xi = fan.head + (fan.tail - fan.head) * k / 33.0
                if not fan.head < xi < fan.tail:
                    continue
                u, rho = sol.sample(xi)
                lam1 = eigenvalues_original(p, State(u, rho)).lambda1
                assert abs(lam1 - xi) <= 1e-12 * max(1.0, abs(xi), u)
                assert -p.A * rho + p.B / rho**p.alpha + c == pytest.approx(u, rel=1e-10)
                assert star.rho * (1.0 - 1e-12) <= rho <= left.rho * (1.0 + 1e-12)
                assert u >= prev_u * (1.0 - 1e-15)
                prev_u = u
