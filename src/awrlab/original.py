"""Exact Riemann solver for the Aw-Rascle system with pressure A*rho - B/rho**alpha.

The first family is genuinely nonlinear (shock or rarefaction), the second
linearly degenerate (contact).  Shock and rarefaction loci coincide on the
curve u + A*rho - B/rho**alpha = const, so the system is of Temple type and
the solution is always a 1-wave followed by a contact moving at the
downstream velocity.  A fan is built by :func:`rootfind.curve_fan` from the
1-curve's point map in t = log(rho), which its profile inverts for
lambda1 = xi.
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
    star_density,
)
from .rootfind import curve_fan, safeguarded_newton
# perfbench/tracer.py wraps these here
from .rootfind import bisect_decreasing, solve_decreasing  # noqa: F401

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
    onto the real line, so a unique root exists; its log density is found by
    :func:`_star_log_density`.  rho* > rho- iff u_plus < u- (shock branch),
    rho* < rho- otherwise (rarefaction branch).  A star density below the
    least positive double raises ``DensityUnderflowError``, one above the
    largest an ``InapplicableError``, as does a pressure law tagged for the
    perturbed system.
    """
    if params.system != ORIGINAL:
        raise InapplicableError(f"the original solver refuses a law tagged {params.system!r}")
    if not u_plus > 0.0:
        raise ValueError(f"u_plus must be positive, got {u_plus}")
    if u_plus == left.u:
        return left
    if params.A <= 0.0 or params.B <= 0.0:
        raise InapplicableError("the pressured solver requires A > 0 and B > 0")
    d = curve_constant(params, left) - u_plus
    rho = star_density(_star_log_density(params, d))
    # e^t carries the rounding of t times |t|: one more Newton step on h,
    # formed from rho itself as log((A*rho + max(-d, 0))/(B/rho**alpha +
    # max(d, 0))), brings rho* to its own rounding
    A, a, b = params.A, params.alpha, params.B / rho**params.alpha
    num, den = A * rho + max(-d, 0.0), b + max(d, 0.0)
    if 0.0 < num < math.inf and 0.0 < den < math.inf:
        rho -= rho * math.log(num / den) / (A * rho / num + a * b / den)
    return State(u_plus, rho)


def _star_log_density(params: PressureParams, d: float) -> float:
    """The root t = log(rho) of A*e^t - B*e^(-alpha*t) = d, by Newton's method
    on a rising h(t) whose slope is bounded.  For d > 0, h(t) = log(A*e^t) -
    log(d + B*e^(-alpha*t)) is concave with slope in [1, 1 + alpha], and
    h <= 0 at t0 = log(d/A); for d < 0, h(t) = log(-d + A*e^t) -
    log(B*e^(-alpha*t)) is convex with slope in [alpha, 1 + alpha], and
    h >= 0 at t0 = log(B/(-d))/alpha.  Either way Newton's method moves
    monotonically from t0 to the root, and the slope bound turns h(t0) into
    the bracket the safeguard needs.  Each log of a sum is formed with
    log1p, so nothing overflows."""
    a, log_a, log_b = params.alpha, math.log(params.A), math.log(params.B)
    if d == 0.0:
        return (log_b - log_a) / (1.0 + a)
    log_d = math.log(abs(d))

    def h(t: float) -> tuple[float, float]:
        x, y = log_a + t, log_b - a * t  # log(A*e^t), log(B*e^(-alpha*t))
        p = y if d > 0.0 else x  # the term added to |d|
        z = math.exp(-abs(p - log_d))
        log_sum = max(p, log_d) + math.log1p(z)
        share = (1.0 if p >= log_d else z) / (1.0 + z)  # e^p/(|d| + e^p)
        return (x - log_sum, 1.0 + a * share) if d > 0.0 else (log_sum - y, a + share)

    if d > 0.0:
        t0 = log_d - log_a
        return safeguarded_newton(h, t0, t0 - h(t0)[0], t0)
    t0 = (log_b - log_d) / a
    return safeguarded_newton(h, t0 - h(t0)[0] / a, t0, t0)


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
        A, B, a, c = params.A, params.B, params.alpha, curve_constant(params, left)

        def point(t: float) -> tuple[float, float, float, float]:
            # (lambda1, its slope in t, u, rho) on the 1-curve at t
            rho = math.exp(t)  # B/rho**a, as B*e^(-a*t) overflows where rho is subnormal
            ra = rho**a
            e_a, e_b = 2.0 * A * rho, (1.0 - a) * B / ra
            return c - e_a + e_b, -e_a - a * e_b, -A * rho + B / ra + c, rho

        t_head, t_tail = math.log(left.rho), math.log(star.rho)
        head, tail = (eigenvalues_original(params, s).lambda1 for s in (left, star))
        waves = (curve_fan(point, t_head, t_tail, left, star, head, tail), contact)
    else:
        waves = (contact,) if right.rho != left.rho else ()
    return RiemannSolution14(params, left, star, right, waves)
