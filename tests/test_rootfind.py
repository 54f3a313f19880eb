"""Bracket expansion and the Brent solver for decreasing scalar maps, the
safeguarded Newton iteration, and the fan builder and inversion of both solvers."""

import math
import random

import pytest
from scipy.optimize import brentq

from awrlab import original, perturbed, rootfind
from awrlab.core import ORIGINAL, PERTURBED, Fan, PressureParams, State
from awrlab.rootfind import (
    BracketError,
    bisect_decreasing,
    expand_bracket,
    safeguarded_newton,
    solve_decreasing,
)


class TestBisectDecreasing:
    def test_too_few_iterations_raise(self):
        with pytest.raises(BracketError):
            bisect_decreasing(lambda x: 1.0 - x**3, 0.0, 10.0, max_iter=3)

    def test_invalid_bracket_raises(self):
        with pytest.raises(BracketError):
            bisect_decreasing(lambda x: 1.0 - x, 2.0, 3.0)

    @pytest.mark.parametrize("root", [3e-128, 1e-9, 0.7, 5.0, 1e40])
    def test_brackets_over_many_decades(self, root):
        # a power law over the whole bracket [1e-300, 1e300]
        def f(x):
            return (root / x) ** 0.05 - 1.0

        got = bisect_decreasing(f, 1e-300, 1e300, rtol=1e-15)
        expect = math.exp(brentq(lambda t: f(math.exp(t)), -690.0, 690.0, xtol=1e-15))
        assert got == pytest.approx(expect, rel=1e-12)


class TestExpandBracket:
    @pytest.mark.parametrize("root", [3e-128, 0.3, 4e7])
    def test_bracket_spans_one_factor(self, root):
        lo, hi = expand_bracket(lambda x: root - x, 1.0, 2.0)
        assert lo < root < hi
        assert hi / lo <= 4.0 * (1.0 + 1e-15)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            expand_bracket(lambda x: 1.0, 1.0, 2.0)
        with pytest.raises(BracketError):
            expand_bracket(lambda x: -1.0, 1.0, 2.0)


class TestSolveDecreasing:
    @pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.7, 0.7), (1e-5, 2e-5), (3.0, 3e3)])
    def test_no_point_evaluated_twice(self, lo, hi):
        # on the wave curves every evaluation is a quadrature
        points = []

        def f(x):
            points.append(x)
            return math.log(0.7 / x)

        assert solve_decreasing(f, lo, hi) == pytest.approx(0.7, rel=1e-14)
        assert len(points) == len(set(points))


def recorded(f):
    """``f`` and the list of the points it is evaluated at."""
    points = []

    def g(t):
        points.append(t)
        return f(t)

    return g, points


class TestSafeguardedNewton:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bracket_in_either_order(self, sign):
        # sign * (e^t - 2) is <= 0 at lo and > 0 at hi; for sign = -1, lo > hi
        lo, hi = sorted((-3.0, 4.0), key=lambda t: sign * t)
        f, points = recorded(lambda t: (sign * (math.exp(t) - 2.0), sign * math.exp(t)))
        t = safeguarded_newton(f, lo, hi, 0.5 * (lo + hi))
        assert t == pytest.approx(math.log(2.0), rel=1e-15)
        assert len(points) <= 10

    def test_step_leaving_the_bracket_bisects(self):
        # at t = 3 the slope of atan is 0.12, so Newton would step to -7;
        # the bracket is then [-1, 3] and the next point its midpoint
        f, points = recorded(lambda t: (math.atan(t - 0.3), 1.0 / (1.0 + (t - 0.3) ** 2)))
        t = safeguarded_newton(f, -1.0, 4.0, 3.0)
        assert points[:2] == [3.0, 1.0]
        assert t == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("slope", [0.0, math.inf, math.nan])
    def test_zero_or_non_finite_slope_bisects(self, slope):
        f, points = recorded(lambda t: (t - 0.3, slope))
        t = safeguarded_newton(f, -1.0, 4.0, 2.0)
        assert points[:3] == [2.0, 0.5, -0.25]
        assert t == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("value", [-1e-13, 1e-13])
    def test_flat_map_returns_a_point_of_the_bracket(self, value):
        # lambda1 flat to rounding: one sign and a vanishing slope throughout
        f, points = recorded(lambda t: (value, -1e-25))
        t = safeguarded_newton(f, -12.6, -12.5, -12.55)
        assert -12.6 <= t <= -12.5
        assert len(points) == 100

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: (math.exp(t) - 2.0, math.exp(t)),  # converges
            lambda t: (t - 0.3, 0.0),  # runs out of iterations
            lambda t: (t - 0.5, 1.0),  # lands on the root
        ],
    )
    def test_returns_the_last_point_evaluated(self, f):
        g, points = recorded(f)
        assert safeguarded_newton(g, -1.0, 4.0, 2.0) == points[-1]

    def test_target_level_and_whole_point(self):
        # e^t reaches 2 at log 2; with ``whole`` the search hands back all
        # that f returned at its last point, here the point's t as well
        f, points = recorded(lambda t: (math.exp(t), math.exp(t), t))
        found = safeguarded_newton(f, -3.0, 4.0, 0.5, 2.0, True)
        assert found == (math.exp(points[-1]), math.exp(points[-1]), points[-1])
        assert found[2] == pytest.approx(math.log(2.0), rel=1e-15)
        assert safeguarded_newton(f, -3.0, 4.0, 0.5, 2.0) == found[2]


def exact_box_fans(system, n, seed):
    """``n`` solutions of ``system`` with a fan, on seeded draws from the box
    of the exact-batch benchmark: A, B log-uniform in [1e-6, 1], alpha in
    [0.1, 0.95], u in [2, 20] and rho in [0.3, 3], with u- < u+."""
    rng = random.Random(seed)

    def draw(lo, hi):
        return lo * (hi / lo) ** rng.random()

    solve = original.solve if system == ORIGINAL else perturbed.solve_perturbed
    for _ in range(n):
        A, B, alpha = draw(1e-6, 1.0), draw(1e-6, 1.0), draw(0.1, 0.95)
        u_l, u_r = sorted((draw(2.0, 20.0), draw(2.0, 20.0)))
        left, right = State(u_l, draw(0.3, 3.0)), State(u_r, draw(0.3, 3.0))
        yield solve(PressureParams(A, B, alpha, system=system), left, right)


def interior_xis(sol, k, rng):
    """``k`` seeded speeds strictly inside each fan of ``sol``."""
    fans = [w for w in sol.waves if isinstance(w, Fan)]
    assert fans
    xis = (w.head + (w.tail - w.head) * rng.random() for w in fans for _ in range(k))
    return [xi for xi in xis if any(w.head < xi < w.tail for w in fans)]


def bisected_t(point, t_head, t_tail, xi):
    """The log density where the speed of a fan's ``point`` map reaches ``xi``,
    by bisection from the fan's ends down to adjacent doubles."""
    lo, hi = t_head, t_tail  # the speed rises from the head to the tail
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return min((lo, hi), key=lambda t: abs(point(t)[0] - xi))
        if point(mid)[0] <= xi:
            lo = mid
        else:
            hi = mid


class TestInvertFan:
    """Fan samples by ``invert_fan`` on the exact-batch box: history-free,
    at the bisection root of the fan's own point map, and cheap."""

    @pytest.mark.parametrize("system", [ORIGINAL, PERTURBED])
    def test_samples_are_history_free_and_accurate(self, system):
        # each of three fresh solves samples the same speeds in its own order;
        # a sample lies within 32 ulp(xi) of the root, measured as |dt|*|dxi/dt|
        rng = random.Random(20261020)
        worst = 0.0
        for sols in zip(*(exact_box_fans(system, 40, 7) for _ in range(3))):
            xis = interior_xis(sols[0], 12, rng)
            orders = (sorted(xis), sorted(xis, reverse=True), rng.sample(xis, len(xis)))
            got = [{xi: sol.sample(xi) for xi in order} for sol, order in zip(sols, orders)]
            assert got[0] == got[1] == got[2]
            for xi, (u, rho) in got[0].items():
                fan = next(w for w in sols[0].waves if isinstance(w, Fan) and w.head < xi < w.tail)
                t_head, t_tail, point = fan.curve
                t = bisected_t(point, t_head, t_tail, xi)
                worst = max(worst, abs(math.log(rho) - t) * abs(point(t)[1]) / math.ulp(xi))
        assert worst <= 32.0

    @pytest.mark.parametrize("system", [ORIGINAL, PERTURBED])
    def test_about_three_evaluations_per_sample(self, monkeypatch, system):
        # the Hermite start between unit log-density nodes leaves Newton's
        # method about three evaluations; the star-state searches call
        # safeguarded_newton through their own modules and are not counted
        evals = []
        newton = rootfind.safeguarded_newton

        def counting_newton(f, *args):
            def counted(t):
                evals.append(t)
                return f(t)

            return newton(counted, *args)

        monkeypatch.setattr(rootfind, "safeguarded_newton", counting_newton)
        rng = random.Random(20261020)
        samples = 0
        for sol in exact_box_fans(system, 40, 7):
            xis = interior_xis(sol, 12, rng)
            for xi in xis:
                sol.sample(xi)
            samples += len(xis)
        assert samples > 400
        assert len(evals) <= 3.5 * samples, len(evals) / samples


def rising_point(t):
    return math.sinh(t) + 0.5 * t, math.cosh(t) + 0.5, 1.0 + math.exp(t), math.exp(t)


def falling_point(t):
    return -t - t**3 / 3.0, -(1.0 + t * t), math.exp(-t), math.exp(t)


class TestCurveFan:
    """The fan builder of both solvers, on closed-form curves whose speed
    rises as t = log(rho) rises, and as it falls."""

    @pytest.mark.parametrize(
        "point, t_head, t_tail, inside",
        [
            (rising_point, -2.0, 3.7, [-1, 0, 1, 2, 3]),
            (falling_point, 2.5, -3.0, [2, 1, 0, -1, -2]),
        ],
        ids=["rising", "falling"],
    )
    def test_nodes_ends_and_samples(self, point, t_head, t_tail, inside):
        # nodes at the ends and at each integer strictly between them, formed
        # on the first sample; the ends carry the given states and speeds,
        # which need not be the curve's; samples lie at the bisection root
        upstream, downstream = State(7.0, 2.0), State(3.0, 0.5)
        head, tail = point(t_head)[0] - 1e-3, point(t_tail)[0] + 1e-3
        fan = rootfind.curve_fan(point, t_head, t_tail, upstream, downstream, head, tail)
        assert fan.edges == (head, tail) and fan.curve == (t_head, t_tail, point)
        _, nodes, xis, _ = fan.profile.args
        assert nodes == xis == []
        lo, hi = point(t_head)[0], point(t_tail)[0]
        for xi in (lo + (hi - lo) * j / 10.0 for j in range(1, 10)):
            u, rho = fan.profile(xi)
            t = bisected_t(point, t_head, t_tail, xi)
            assert abs(math.log(rho) - t) * abs(point(t)[1]) <= 32.0 * math.ulp(xi)
            assert u == pytest.approx(point(math.log(rho))[2], rel=1e-14, abs=0.0)
        assert [node[0] for node in nodes] == [t_head, *inside, t_tail]
        assert nodes[0] == (t_head, point(t_head)[1], upstream.u, upstream.rho)
        assert nodes[-1] == (t_tail, point(t_tail)[1], downstream.u, downstream.rho)
        assert (xis[0], xis[-1]) == (head, tail)
        for t, node, xi in zip(inside, nodes[1:-1], xis[1:-1]):
            assert (xi, *node[1:]) == point(t)
