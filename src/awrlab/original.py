"""Exact Riemann solver for the Aw-Rascle system with pressure A*rho - B/rho**alpha.

The first family is genuinely nonlinear (shock or rarefaction), the second
linearly degenerate (contact).  Shock and rarefaction loci coincide on the
curve u + A*rho - B/rho**alpha = const, so the system is of Temple type and
the solution is always a 1-wave followed by a contact moving at the
downstream velocity.  A fan solves lambda1 = xi for t = log(rho) by the
safeguarded Newton iteration of both solvers' fans, then u from the 1-curve.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import (
    ORIGINAL,
    Contact,
    Fan,
    InapplicableError,
    NoThresholdError,
    PressureParams,
    RiemannSolution,
    Shock,
    State,
    eigenvalues_original,
    jump_residual,
)
from .rootfind import safeguarded_newton, solve_decreasing
from .rootfind import bisect_decreasing  # noqa: F401  perfbench/tracer.py wraps it here

BOUNDARY_TOL = 1e-12
Rarefaction = Fan


class RegionLabel14(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ON_R_CURVE = "ON_R_CURVE"
    ON_S_CURVE = "ON_S_CURVE"
    ON_J_LINE = "ON_J_LINE"
    COINCIDENT = "COINCIDENT"


def curve_constant(params: PressureParams, s: State) -> float:
    """Curve coordinate C = u + A*rho - B/rho**alpha of ``s``; the 1-curve
    through a state is the level set of its C."""
    return s.u + params.A * s.rho - params.B / s.rho**params.alpha


phi = curve_constant


def classify(params: PressureParams, left: State, right: State) -> RegionLabel14:
    """Locate ``right`` relative to the wave curves through ``left``.

    Regions: I (u+ > u-, above the 1-curve), II (u+ > u-, below it),
    III (u+ < u-, above), IV (u+ < u-, below).  Ties within BOUNDARY_TOL
    get boundary tags.
    """
    du = right.u - left.u
    dphi = curve_constant(params, right) - curve_constant(params, left)
    on_j = abs(du) <= BOUNDARY_TOL
    on_curve = abs(dphi) <= BOUNDARY_TOL
    if on_j and on_curve:
        return RegionLabel14.COINCIDENT
    if on_j:
        return RegionLabel14.ON_J_LINE
    if on_curve:
        return RegionLabel14.ON_R_CURVE if du > 0.0 else RegionLabel14.ON_S_CURVE
    if du > 0.0:
        return RegionLabel14.I if dphi > 0.0 else RegionLabel14.II
    return RegionLabel14.III if dphi > 0.0 else RegionLabel14.IV


def threshold_A0(left: State, right: State, alpha: float) -> float:
    """Coupled parameter value A = B at which the 1-curve through ``left``
    passes through ``right``; separates regions III/IV (and II/I)."""
    if abs(right.u - left.u) <= BOUNDARY_TOL:
        raise NoThresholdError("equal velocities admit no region threshold")
    denom = (right.rho - right.rho**-alpha) - (left.rho - left.rho**-alpha)
    if denom == 0.0:
        raise NoThresholdError(
            "curve passes through both states for every coupled A = B"
        )
    return (left.u - right.u) / denom


def intermediate_state(params: PressureParams, left: State, u_plus: float) -> State:
    """State on the 1-curve through ``left`` at velocity ``u_plus``.

    The curve map rho -> -A*rho + B/rho**alpha + C is strictly decreasing and
    onto the real line, so a unique root exists; it is found by bracketing
    plus Brent's method.  rho* > rho- iff u_plus < u- (shock branch), rho* < rho-
    otherwise (rarefaction branch).
    """
    if not u_plus > 0.0:
        raise ValueError(f"u_plus must be positive, got {u_plus}")
    if u_plus == left.u:
        return left
    if params.A <= 0.0 or params.B <= 0.0:
        raise InapplicableError("the pressured solver requires A > 0 and B > 0")
    c = curve_constant(params, left)

    def f(rho: float) -> float:
        return -params.A * rho + params.B / rho**params.alpha + c - u_plus

    rho_star = solve_decreasing(f, 0.5 * left.rho, 2.0 * left.rho, rtol=1e-15)
    return State(u_plus, rho_star)


def shock_speed(params: PressureParams, left: State, star: State) -> float:
    """Speed of the 1-shock joining ``left`` (upstream) to ``star``."""
    if not star.rho > left.rho:
        raise InapplicableError(
            f"entropic 1-shock requires rho* > rho-, got {star.rho} <= {left.rho}"
        )
    a = params.alpha
    chord = (left.rho ** (1.0 - a) - star.rho ** (1.0 - a)) / (star.rho - left.rho)
    return star.u - params.B / star.rho**a - params.A * left.rho - params.B * chord


def rh_residual(
    params: PressureParams, sl: State, sr: State, sigma: float
) -> tuple[float, float]:
    """Both Rankine-Hugoniot components across a discontinuity at speed sigma."""
    return jump_residual(ORIGINAL, params, sl, sr, sigma)


class RiemannSolution14(RiemannSolution):
    """Solution of the original system: (R or S) then J."""


def solve(params: PressureParams, left: State, right: State) -> RiemannSolution14:
    """Assemble the exact solution: a 1-wave (R or S) followed by a contact.

    The contact moves at the downstream velocity u+ and joins the
    intermediate state (u+, rho*) to ``right``.
    """
    star = intermediate_state(params, left, right.u)
    contact = Contact(right.u)
    if right.u < left.u:
        waves = (Shock(shock_speed(params, left, star)), contact)
    elif right.u > left.u:
        head = eigenvalues_original(params, left).lambda1
        tail = eigenvalues_original(params, star).lambda1
        A, B, a, c = params.A, params.B, params.alpha, curve_constant(params, left)
        t_head, t_tail = math.log(left.rho), math.log(star.rho)

        def profile(xi: float) -> tuple[float, float]:
            def excess(t: float) -> tuple[float, float]:  # lambda1 - xi, falling, and its slope
                rho = math.exp(t)  # B/rho**a, as B*e^(-a*t) overflows where rho is subnormal
                e_a, e_b = 2.0 * A * rho, (1.0 - a) * B / rho**a
                return c - e_a + e_b - xi, -e_a - a * e_b

            t_start = t_head + (t_tail - t_head) * (xi - head) / (tail - head)
            rho = math.exp(safeguarded_newton(excess, t_head, t_tail, t_start))
            return -A * rho + B / rho**a + c, rho

        waves = (Fan(head, tail, profile), contact)
    else:
        waves = (contact,) if right.rho != left.rho else ()
    return RiemannSolution14(params, left, star, right, waves)
