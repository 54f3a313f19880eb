"""Exact Riemann solver for the perturbed Aw-Rascle system (0 < alpha < 1).

Both characteristic families are genuinely nonlinear, so the solution is a
backward wave (shock or rarefaction) followed by a forward wave.  Rarefaction
curves are defined through the integral of sqrt(A*s + B*alpha/s**alpha)/s;
shock curves come from eliminating the shock speed from the jump conditions,
which leaves (u_r - u_l)**2 = E1 with E1 affine in both velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    PERTURBED,
    BranchError,
    Fan,
    InapplicableError,
    PressureParams,
    RiemannSolution,
    Shock,
    State,
    flux,
    jump_residual,
    offset,
    speeds,
)
from .quadrature import quad
from .rootfind import bisect_decreasing, solve_decreasing

BOUNDARY_TOL = 1e-12
BACKWARD = "backward"
FORWARD = "forward"
RarefactionFan = Fan
ShockWave = Shock


class RegionLabel17(Enum):
    """Backward-wave type then forward-wave type, plus boundary tags."""

    SS = "SS"
    SR = "SR"
    RS = "RS"
    RR = "RR"
    ON_BACKWARD_S = "ON_BACKWARD_S"
    ON_BACKWARD_R = "ON_BACKWARD_R"
    ON_FORWARD_S = "ON_FORWARD_S"
    ON_FORWARD_R = "ON_FORWARD_R"
    COINCIDENT = "COINCIDENT"


def _require_perturbed(params: PressureParams):
    if not (0.0 < params.alpha < 1.0):
        raise ValueError("the perturbed system requires 0 < alpha < 1")


def rarefaction_integral(params: PressureParams, rho_a: float, rho_b: float) -> float:
    """Signed integral of sqrt(A*s + B*alpha/s**alpha)/s over [rho_a, rho_b]."""
    _require_perturbed(params)
    if not (rho_a > 0.0 and rho_b > 0.0):
        raise ValueError("integration bounds must be positive")
    if rho_a == rho_b:
        return 0.0
    A, B, a = params.A, params.B, params.alpha

    # substitute s = e^t: the integrand sqrt(A*s + B*a/s**a)/s becomes the
    # smooth sqrt(A*e^t + B*a*e^(-a*t)), taming the s -> 0 blow-up
    def integrand(t: float) -> float:
        return math.sqrt(A * math.exp(t) + B * a * math.exp(-a * t))

    val, _ = quad(
        integrand,
        math.log(rho_a),
        math.log(rho_b),
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def _fan_side(direction: str, left: State, rho: float) -> bool:
    """Whether ``rho`` lies on the rarefaction half of the ``direction`` curve
    through ``left``: rho <= rho_left backward, rho >= rho_left forward."""
    if direction not in (BACKWARD, FORWARD):
        raise ValueError(f"unknown direction {direction!r}")
    return rho <= left.rho if direction == BACKWARD else rho >= left.rho


def rarefaction_curve_u(
    params: PressureParams, left: State, rho: float, direction: str
) -> float:
    """Velocity on the rarefaction curve through ``left`` at density ``rho``.

    Only the admissible half-branch u >= u_left is exposed: rho <= rho_left
    for the backward curve, rho >= rho_left for the forward one.
    """
    _require_perturbed(params)
    if not _fan_side(direction, left, rho):
        raise BranchError(f"rho = {rho} is off the {direction} rarefaction branch")
    return _wave_curve_u(params, left, rho, direction)


def e1_left_coefficient(params: PressureParams, rho_l: float, rho_r: float) -> float:
    """Coefficient c_l of u_l in E1; finite wherever rho_r is."""
    A, B, a = params.A, params.B, params.alpha
    k = a * B / (1.0 - a)
    return (
        0.5 * A * rho_l**2 / rho_r
        + k * rho_l ** (1.0 - a) / rho_r
        + 0.5 * A * rho_r
        + B / rho_l**a
        - A * rho_l
        - B / ((1.0 - a) * rho_r**a)
    )


def e1_coefficients(
    params: PressureParams, rho_l: float, rho_r: float
) -> tuple[float, float]:
    """Coefficients (c_l, c_r) with E1 = c_l*u_l + c_r*u_r; c_r is c_l with
    the densities swapped."""
    return (
        e1_left_coefficient(params, rho_l, rho_r),
        e1_left_coefficient(params, rho_r, rho_l),
    )


def E1(
    params: PressureParams, u_l: float, rho_l: float, u_r: float, rho_r: float
) -> float:
    """Squared velocity jump across a shock joining the two states."""
    _require_perturbed(params)
    c_l, c_r = e1_coefficients(params, rho_l, rho_r)
    return c_l * u_l + c_r * u_r


def _shock_u(params: PressureParams, known: State, rho: float, s: float) -> float:
    """Velocity u at density ``rho`` joined to ``known`` by a shock: the root
    of (u - u0)**2 = E1 with s*(u - u0) = -sqrt(E1), where s = 1 when
    ``known`` is the left state and s = -1 when it is the right one."""
    if rho == known.rho:
        return known.u
    if s > 0.0:
        c_known, c_free = e1_coefficients(params, known.rho, rho)
    else:
        c_free, c_known = e1_coefficients(params, rho, known.rho)
    u0 = known.u
    # (u - u0)^2 = c_known*u0 + c_free*u  =>  u^2 - (2u0 + c_free)u + u0^2 - c_known*u0 = 0;
    # the discriminant is expanded as 4*u0*(c_known + c_free) + c_free^2 to avoid
    # the catastrophic cancellation of b^2 - 4c when A, B are tiny.
    disc = 4.0 * u0 * (c_known + c_free) + c_free * c_free
    if disc < 0.0:
        raise InapplicableError("no real root on the shock locus (unexpected)")
    sq = math.sqrt(disc)
    for u in (u0 + 0.5 * (c_free - s * sq), u0 + 0.5 * (c_free + s * sq)):
        if s * (u - u0) <= 0.0:
            e1 = c_known * u0 + c_free * u
            if e1 >= -1e-12 and abs(s * (u - u0) + math.sqrt(max(e1, 0.0))) <= 1e-9 * (
                1.0 + abs(u0)
            ):
                return u
    raise InapplicableError("no admissible root on the shock locus (unexpected)")


def shock_curve_u(
    params: PressureParams, left: State, rho: float, direction: str
) -> float:
    """Velocity on the shock curve through ``left`` at density ``rho``.

    Backward shocks compress (rho > rho_left), forward shocks expand
    (rho < rho_left); both halves carry u < u_left.
    """
    _require_perturbed(params)
    if _fan_side(direction, left, rho) and rho != left.rho:
        raise BranchError(f"rho = {rho} is off the {direction} shock branch")
    return _shock_u(params, left, rho, 1.0)


def shock_slope_diagnostics(
    params: PressureParams, left: State, star: State
) -> tuple[float, float]:
    """(E2, E3): numerator/denominator pieces of du/drho along the backward
    shock curve; used to verify its monotonicity."""
    _require_perturbed(params)
    A, B, a = params.A, params.B, params.alpha
    rl, r = left.rho, star.rho
    e2 = e1_coefficients(params, rl, r)[1]
    e3 = (
        A * star.u * (r / rl - 1.0)
        + (a * B * star.u / r**a) * (1.0 / rl - 1.0 / r)
        + (a * B * left.u / ((1.0 - a) * r**2)) * (r ** (1.0 - a) - rl ** (1.0 - a))
        + 0.5 * A * (1.0 - (rl / r) ** 2) * left.u
    )
    return e2, e3


def rho_axis_intercept(params: PressureParams, left: State) -> float:
    """Density at which the backward shock curve through ``left`` reaches u = 0."""
    _require_perturbed(params)
    if params.A <= 0.0 or params.B <= 0.0:
        raise InapplicableError("the intercept requires A > 0 and B > 0")
    # u = 0 where E1 = c_l*u_left equals u_left**2: f = c_l - u_left is -u_left
    # at rho_left and grows, so expand upward and solve -f, which decreases.
    def minus_f(rho: float) -> float:
        return left.u - e1_left_coefficient(params, left.rho, rho)

    return solve_decreasing(minus_f, left.rho, left.rho, rtol=1e-13)


def shock_speed_perturbed(params: PressureParams, left: State, right: State) -> float:
    """Jump-condition speed (rho_r u_r - rho_l u_l)/(rho_r - rho_l)."""
    if right.rho == left.rho:
        raise InapplicableError("degenerate jump: equal densities")
    return (right.rho * right.u - left.rho * left.u) / (right.rho - left.rho)


def rh_residual_perturbed(
    params: PressureParams, sl: State, sr: State, sigma: float
) -> tuple[float, float]:
    """Both jump-condition components across a discontinuity at speed sigma."""
    return jump_residual(PERTURBED, params, sl, sr, sigma)


def _wave_curve_u(
    params: PressureParams, known: State, rho: float, direction: str, s: float = 1.0
) -> float:
    """Velocity at ``rho`` on the composite ``direction`` curve through
    ``known``, which is the wave's left state when s = 1 and its right state
    when s = -1 (as in :func:`_shock_u`).  From a left state the curve is R on
    its rarefaction side (rho <= rho_left backward, rho >= rho_left forward)
    and S on the other; from a right state the sides swap, and R is clamped
    at vacuum."""
    if rho == known.rho:
        return known.u
    if _fan_side(direction, known, rho) != (s < 0.0):
        sign = -1.0 if direction == BACKWARD else 1.0
        half = 0.5 * rarefaction_integral(params, known.rho, rho)
        root = math.sqrt(known.u) + sign * half
        return root * root if root > 0.0 else 0.0
    return _shock_u(params, known, rho, s)


def classify_perturbed(params: PressureParams, left: State, right: State) -> RegionLabel17:
    """Select the wave pattern by comparing ``right`` against the backward and
    forward curves through ``left`` at density rho_right (ties within
    BOUNDARY_TOL get boundary tags)."""
    _require_perturbed(params)
    if abs(right.u - left.u) <= BOUNDARY_TOL and abs(right.rho - left.rho) <= BOUNDARY_TOL:
        return RegionLabel17.COINCIDENT
    u_bwd = _wave_curve_u(params, left, right.rho, BACKWARD)
    u_fwd = _wave_curve_u(params, left, right.rho, FORWARD)
    d_bwd = right.u - u_bwd  # above backward curve => forward wave is R
    d_fwd = right.u - u_fwd  # above forward curve  => backward wave is R
    if abs(d_bwd) <= BOUNDARY_TOL:
        return (
            RegionLabel17.ON_BACKWARD_R
            if right.rho < left.rho
            else RegionLabel17.ON_BACKWARD_S
        )
    if abs(d_fwd) <= BOUNDARY_TOL:
        return (
            RegionLabel17.ON_FORWARD_S
            if right.rho < left.rho
            else RegionLabel17.ON_FORWARD_R
        )
    first = "R" if d_fwd > 0.0 else "S"
    second = "R" if d_bwd > 0.0 else "S"
    return RegionLabel17[first + second]


class RiemannSolution17(RiemannSolution):
    """Self-similar two-wave solution of the perturbed system."""


def _wave(params: PressureParams, direction: str, sl: State, sr: State):
    """The ``direction`` wave joining ``sl`` to ``sr``: a shock when it
    compresses, a fan along the rarefaction curve through ``sl`` when it
    expands, None when the densities agree."""
    if sr.rho == sl.rho:
        return None
    if (sr.rho > sl.rho) == (direction == BACKWARD):
        return Shock(shock_speed_perturbed(params, sl, sr))
    # along the curve xi = lambda_k falls as rho rises for the backward
    # family and rises with rho for the forward one
    k, sign = (0, -1.0) if direction == BACKWARD else (1, 1.0)

    def profile(xi: float) -> tuple[float, float]:
        def g(rho: float) -> float:
            u = rarefaction_curve_u(params, sl, rho, direction)
            return sign * (xi - speeds(PERTURBED, params, u, rho)[k])

        rho = bisect_decreasing(g, min(sl.rho, sr.rho), max(sl.rho, sr.rho), rtol=1e-14)
        return rarefaction_curve_u(params, sl, rho, direction), rho

    head = speeds(PERTURBED, params, sl.u, sl.rho)[k]
    return Fan(head, speeds(PERTURBED, params, sr.u, sr.rho)[k], profile)


def solve_perturbed(
    params: PressureParams, left: State, right: State
) -> RiemannSolution17:
    """Intersect the backward curve from ``left`` with the (reversed) forward
    curve through ``right``; assemble the two waves around the result.

    Monotonicity of the curves in rho is only guaranteed for small pressure
    coefficients; the residual of the match is always checked.
    """
    _require_perturbed(params)
    if params.A <= 0.0 or params.B <= 0.0:
        raise InapplicableError("the pressured solver requires A > 0 and B > 0")
    if right.u == left.u and right.rho == left.rho:
        return RiemannSolution17(params, left, left, right, ())

    # (backward u, forward u) at each rho g has seen, so the root is not re-evaluated
    curves: dict[float, tuple[float, float]] = {}

    def g(rho: float) -> float:
        u_bwd, u_fwd = curves[rho] = (
            _wave_curve_u(params, left, rho, BACKWARD),
            _wave_curve_u(params, right, rho, FORWARD, -1.0),
        )
        return u_bwd - u_fwd

    lo = min(left.rho, right.rho)
    hi = max(left.rho, right.rho)
    rho_star = solve_decreasing(g, lo, hi, rtol=1e-15)
    u_star, u_fwd = curves[rho_star]
    residual = u_star - u_fwd
    if abs(residual) > 1e-11 * (1.0 + abs(u_star)):
        raise InapplicableError(
            f"curve intersection residual {residual:.3e} exceeds tolerance"
        )
    if not u_star > 0.0:
        raise InapplicableError("intersection fell outside the positive-velocity region")
    star = State(u_star, rho_star)
    waves = (_wave(params, BACKWARD, left, star), _wave(params, FORWARD, star, right))
    return RiemannSolution17(
        params, left, star, right, tuple(w for w in waves if w is not None)
    )


@dataclass(frozen=True)
class BumpTestFunction:
    """C^2 bump (1 - ((xi - center)/width)**2)**3 on |xi - center| < width."""

    center: float
    width: float

    def __call__(self, xi: float) -> float:
        z = (xi - self.center) / self.width
        if abs(z) >= 1.0:
            return 0.0
        return (1.0 - z * z) ** 3

    def derivative(self, xi: float) -> float:
        z = (xi - self.center) / self.width
        if abs(z) >= 1.0:
            return 0.0
        return -6.0 * z * (1.0 - z * z) ** 2 / self.width


def weak_form_residual(
    params: PressureParams,
    solution: RiemannSolution17,
    test_fn: BumpTestFunction,
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Residuals of the two self-similar weak formulations for ``solution``.

    Integrates in xi over the support of ``test_fn`` with adaptive quadrature
    split at the wave locations; an explicit ``window`` must contain that
    support.  For an exact solution both residuals vanish to quadrature
    accuracy.
    """
    _require_perturbed(params)
    lo, hi = test_fn.center - test_fn.width, test_fn.center + test_fn.width
    if window is not None and (lo < window[0] or hi > window[1]):
        raise ValueError("test-function support exceeds the sampling window")
    breakpoints = (edge for wave in solution.waves for edge in wave.edges)
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})

    def residual(k: int) -> float:
        # component k (0: mass, 1: momentum) of the integral of
        # (f(q) - xi*q)*phi' - q*phi; vacuum samples add nothing
        def integrand(xi: float) -> float:
            u, rho = solution.sample(xi)
            if not rho > 0.0:
                return 0.0
            q = (rho, rho * (u + offset(PERTURBED, params, rho)))[k]
            f = flux(params, u, rho)[k]
            return (f - xi * q) * test_fn.derivative(xi) - q * test_fn(xi)

        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11)[0]
        return total

    return residual(0), residual(1)
