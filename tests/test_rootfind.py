"""Bracket expansion and the Brent solver for decreasing scalar maps."""

import math

import pytest
from scipy.optimize import brentq

from awrlab.rootfind import BracketError, bisect_decreasing, expand_bracket, solve_decreasing


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
