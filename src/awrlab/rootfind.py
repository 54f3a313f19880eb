"""Monotone root finding: Brent's method on the perturbed curve maps, Newton in
t = log(rho) on fans (:func:`curve_fan`), original and vacuum-side star states."""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import Callable

# BracketError is defined in core, so that the CLI catches it without loading this module
from .core import BracketError, Fan

EXPAND_FACTOR = 4.0
MAX_EXPANSIONS = 600
MAX_ITERATIONS = 400


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
) -> float:
    """Root of a strictly decreasing f with f(lo) >= 0 >= f(hi), by Brent's
    method (Brent, 1973): inverse-quadratic or secant steps, guarded by
    bisection.

    While the bracket spans more than a factor of 4 each step is a geometric
    bisection, so even a bracket over the whole double range narrows to a
    factor of 4 in about ten steps.  Raises ``BracketError`` if the bracket
    is invalid or MAX_ITERATIONS evaluations do not shrink it below ``rtol``
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
    for _ in range(MAX_ITERATIONS):
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
    raise BracketError(f"no convergence in {MAX_ITERATIONS} iterations on [{b}, {c}]")


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
    return bisect_decreasing(once, lo, hi, rtol=rtol)


def safeguarded_newton(f: Callable[[float], tuple], lo, hi, t, target=0.0, whole=False):
    """Where a monotone map reaches ``target``, by Newton's method from ``t``.
    ``f`` returns value and slope first; the value is <= ``target`` at ``lo``
    and > it at ``hi``, in either order.  Each point narrows [lo, hi]; a step
    leaving it, or a zero or non-finite slope, bisects.  The search stops one
    point after a step of max(1e-9, 4 ulp(t)) or less, or at 100 points,
    returning the last point evaluated (with ``whole``, all ``f`` gave there)."""
    rising = lo < hi
    lo, hi = (lo, hi) if rising else (hi, lo)
    t_next, converged = t, False
    for _ in range(100):
        t = t_next
        found = f(t)
        value, slope = found[0] - target, found[1]
        if converged or value == 0.0:
            break
        lo, hi = (t, hi) if (value < 0.0) == rising else (lo, t)
        t_next = t - value / slope if 0.0 < abs(slope) < math.inf else math.nan  # nan bisects
        # no step reaches 1e-9 once ulp(t) exceeds it; 4 ulp(t) > 1e-9 from |t| = 2**21 on
        converged = abs(t_next - t) <= (1e-9 if -2.0**21 < t < 2.0**21 else 4.0 * math.ulp(t))
        if converged:
            t_next = lo if t_next < lo else hi if t_next > hi else t_next
        elif not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
    return found if whole else t


def invert_fan(point, nodes, xis, tabulate, xi) -> tuple[float, float]:
    """(u, rho) where a fan's speed is ``xi``: Newton's method on ``point``, t = log(rho)
    -> (speed, its slope, u, rho), between the two ``nodes`` (t, slope, u, rho) whose
    rising speeds ``xis`` bracket ``xi``, from the cubic Hermite interpolant of t(xi)
    there, or their chord where that leaves them; ``tabulate`` fills empty nodes."""
    if not nodes:
        tabulate()
    i = bisect_right(xis, xi) - 1
    if i == len(nodes) - 1:  # past the last node only by the tail's rounding
        return nodes[i][2:]
    (t_i, s_i, _, _), (t_j, s_j, _, _) = nodes[i], nodes[i + 1]  # speed <= xi at t_i, > xi at t_j
    h, d = xis[i + 1] - xis[i], t_j - t_i
    x = (xi - xis[i]) / h
    t = t_i + d * x
    if s_i and s_j:  # t(xi) has slopes 1/s at the nodes
        hermite = t + x * (1.0 - x) * ((1.0 - x) * (h / s_i - d) - x * (h / s_j - d))
        if t_i < hermite < t_j or t_j < hermite < t_i:
            t = hermite
    return safeguarded_newton(point, t_i, t_j, t, xi, True)[2:]


def curve_fan(point, t_head, t_tail, upstream, downstream, head, tail) -> Fan:
    """The fan from ``upstream`` (speed ``head``, log density ``t_head``) to
    ``downstream`` (``tail``, ``t_tail``) along ``point``, t = log(rho) ->
    (speed, its slope, u, rho), which it carries as its ``curve``.  Its
    profile inverts ``point`` by :func:`invert_fan` between nodes tabulated on
    the first sample: the head, each integer t strictly inside, the tail, the
    ends with their exact states and speeds."""
    nodes, xis = [], []  # (t, dxi/dt, u, rho) and xi at the fan's nodes

    def tabulate():
        inside = range(math.floor(min(t_head, t_tail)) + 1, math.ceil(max(t_head, t_tail)))
        for t in (t_head, *(inside if t_tail > t_head else reversed(inside)), t_tail):
            xi, slope, u, rho = point(t)
            nodes.append((t, slope, u, rho))
            xis.append(xi)
        for n, s, xi in ((0, upstream, head), (-1, downstream, tail)):
            nodes[n], xis[n] = (nodes[n][0], nodes[n][1], s.u, s.rho), xi

    profile = partial(invert_fan, point, nodes, xis, tabulate)
    return Fan(head, tail, profile, (t_head, t_tail, point))
