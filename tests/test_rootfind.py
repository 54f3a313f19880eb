"""Bracket expansion and the Brent solver for decreasing scalar maps, and
the safeguarded Newton iteration of the fans."""

import math

import pytest
from scipy.optimize import brentq

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
