"""Bracketing and Brent root finding for strictly monotone scalar maps."""

from __future__ import annotations

import math
from typing import Callable

EXPAND_FACTOR = 4.0
MAX_EXPANSIONS = 600


class BracketError(RuntimeError):
    """Raised when geometric expansion fails to bracket a sign change."""


def expand_bracket(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Grow [lo, hi] by EXPAND_FACTOR until f changes sign across it.

    ``f`` is assumed strictly decreasing (positive at small arguments,
    negative at large ones), which is the shape of every curve map in this
    package.  Bounds stay positive and finite: reaching 0 or overflowing
    raises ``BracketError``, as does a sign change not found within
    MAX_EXPANSIONS steps.  The last point stepped past becomes the opposite
    end, so after an expansion the bracket spans one factor however far it
    travelled.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    n = 0
    while flo < 0.0:
        hi, fhi = lo, flo
        lo /= EXPAND_FACTOR
        n += 1
        if n > MAX_EXPANSIONS or lo == 0.0:
            raise BracketError("no sign change found while shrinking lower bound")
        flo = f(lo)
    n = 0
    while fhi > 0.0:
        lo, flo = hi, fhi
        hi *= EXPAND_FACTOR
        n += 1
        if n > MAX_EXPANSIONS or math.isinf(hi):
            raise BracketError("no sign change found while growing upper bound")
        fhi = f(hi)
    return lo, hi


def bisect_decreasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = 1e-14,
    max_iter: int = 400,
) -> float:
    """Root of a strictly decreasing f with f(lo) >= 0 >= f(hi), by Brent's
    method (Brent, 1973): inverse-quadratic or secant steps, guarded by
    bisection.

    While the bracket spans more than a factor of 4 each step is a geometric
    bisection, so even a bracket over the whole double range narrows to a
    factor of 4 in about ten steps.  Raises ``BracketError`` if the bracket
    is invalid or ``max_iter`` evaluations do not shrink it below ``rtol``
    relative.
    """
    if lo == hi:
        return lo
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo > 0.0 > fhi):
        raise BracketError(f"root not bracketed: f({lo})={flo}, f({hi})={fhi}")
    # b: best iterate; c: the far end of the bracket [b, c]; a: previous b
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):  # b crossed the root: a is the far end
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        delta = max(0.5 * rtol * abs(b), 2.0 * math.ulp(b))
        half = 0.5 * (c - b)
        if abs(half) <= delta:
            return b
        if max(b, c) > 4.0 * min(b, c) > 0.0:
            # interpolation creeps by a factor ~2 per step on a bracket over
            # many decades, so halve its log-width instead.  The midpoint is
            # assigned, not added as a step: b + (mid - b) can round to 0.
            new_b = math.sqrt(b) * math.sqrt(c)
            prev_step = step = new_b - b
        else:
            if abs(prev_step) > delta and abs(fb) < abs(fa):
                if a == c:  # secant
                    trial = -fb * (b - a) / (fb - fa)
                else:  # inverse quadratic interpolation
                    da = (fa - fb) / (a - b)
                    dc = (fc - fb) / (c - b)
                    trial = -fb * (fc * dc - fa * da) / (da * dc * (fc - fa))
                if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - delta):
                    prev_step, step = step, trial
                else:
                    prev_step = step = half
            else:
                prev_step = step = half
            new_b = b + (step if abs(step) > delta else math.copysign(delta, half))
        a, fa = b, fb
        b = new_b
        fb = f(b)
        if fb == 0.0:
            return b
    raise BracketError(f"no convergence in {max_iter} iterations on [{b}, {c}]")


def solve_decreasing(
    f: Callable[[float], float],
    lo_guess: float,
    hi_guess: float,
    rtol: float = 1e-14,
) -> float:
    """Bracket (by geometric expansion), then find the root of a decreasing
    map by Brent's method, evaluating ``f`` at most once per point (Brent
    starts from the two ends the expansion has already evaluated)."""
    seen: dict[float, float] = {}

    def once(x: float) -> float:
        if x not in seen:
            seen[x] = f(x)
        return seen[x]

    lo, hi = expand_bracket(once, lo_guess, hi_guess)
    if lo == hi:
        return lo
    return bisect_decreasing(once, lo, hi, rtol=rtol)
