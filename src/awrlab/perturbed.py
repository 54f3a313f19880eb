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
from typing import Callable

from .core import (
    BranchError,
    InapplicableError,
    PressureParams,
    State,
    eigenvalues_perturbed,
)
from .quadrature import quad
from .rootfind import bisect_decreasing, solve_decreasing

BOUNDARY_TOL = 1e-12
BACKWARD = "backward"
FORWARD = "forward"


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
        limit=200,
    )
    return val


def rarefaction_curve_u(
    params: PressureParams, left: State, rho: float, direction: str
) -> float:
    """Velocity on the rarefaction curve through ``left`` at density ``rho``.

    Only the admissible half-branch u >= u_left is exposed: rho <= rho_left
    for the backward curve, rho >= rho_left for the forward one.
    """
    _require_perturbed(params)
    if direction == BACKWARD:
        if rho > left.rho:
            raise BranchError("backward rarefaction branch requires rho <= rho_left")
        sign = -1.0
    elif direction == FORWARD:
        if rho < left.rho:
            raise BranchError("forward rarefaction branch requires rho >= rho_left")
        sign = 1.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if rho == left.rho:
        return left.u
    root = math.sqrt(left.u) + sign * 0.5 * rarefaction_integral(params, left.rho, rho)
    return root * root


def e1_coefficients(
    params: PressureParams, rho_l: float, rho_r: float
) -> tuple[float, float]:
    """Coefficients (c_l, c_r) with E1 = c_l*u_l + c_r*u_r."""
    A, B, a = params.A, params.B, params.alpha
    k = a * B / (1.0 - a)
    c_r = (
        0.5 * A * rho_r**2 / rho_l
        + k * rho_r ** (1.0 - a) / rho_l
        - A * rho_r
        - B / ((1.0 - a) * rho_l**a)
        + 0.5 * A * rho_l
        + B / rho_r**a
    )
    c_l = (
        0.5 * A * rho_l**2 / rho_r
        + k * rho_l ** (1.0 - a) / rho_r
        + 0.5 * A * rho_r
        + B / rho_l**a
        - A * rho_l
        - B / ((1.0 - a) * rho_r**a)
    )
    return c_l, c_r


def E1(
    params: PressureParams, u_l: float, rho_l: float, u_r: float, rho_r: float
) -> float:
    """Squared velocity jump across a shock joining the two states."""
    _require_perturbed(params)
    c_l, c_r = e1_coefficients(params, rho_l, rho_r)
    return c_l * u_l + c_r * u_r


def _shock_u_given_left(
    params: PressureParams, left: State, rho: float
) -> float:
    """Solve u - u_left = -sqrt(E1(left; u, rho)) for u (shock with known left)."""
    if rho == left.rho:
        return left.u
    c_l, c_r = e1_coefficients(params, left.rho, rho)
    # (u - u_l)^2 = c_l*u_l + c_r*u  =>  u^2 - (2u_l + c_r)u + u_l^2 - c_l*u_l = 0;
    # the discriminant is expanded as 4*u_l*(c_l + c_r) + c_r^2 to avoid the
    # catastrophic cancellation of b^2 - 4c when A, B are tiny.
    disc = 4.0 * left.u * (c_l + c_r) + c_r * c_r
    if disc < 0.0:
        raise InapplicableError("no real root on the shock locus (unexpected)")
    sq = math.sqrt(disc)
    for u in (left.u + 0.5 * (c_r - sq), left.u + 0.5 * (c_r + sq)):
        if u <= left.u:
            e1 = c_l * left.u + c_r * u
            if e1 >= -1e-12 and abs((u - left.u) + math.sqrt(max(e1, 0.0))) <= 1e-9 * (
                1.0 + abs(left.u)
            ):
                return u
    raise InapplicableError("no admissible root on the shock locus (unexpected)")


def _shock_u_given_right(
    params: PressureParams, right: State, rho: float
) -> float:
    """Solve u_right - u = -sqrt(E1(u, rho; right)) for u (shock with known right)."""
    if rho == right.rho:
        return right.u
    c_l, c_r = e1_coefficients(params, rho, right.rho)
    # (u_r - u)^2 = c_l*u + c_r*u_r  =>  u^2 - (2u_r + c_l)u + u_r^2 - c_r*u_r = 0;
    # discriminant expanded as 4*u_r*(c_l + c_r) + c_l^2 (see _shock_u_given_left).
    disc = 4.0 * right.u * (c_l + c_r) + c_l * c_l
    if disc < 0.0:
        raise InapplicableError("no real root on the shock locus (unexpected)")
    sq = math.sqrt(disc)
    for u in (right.u + 0.5 * (c_l + sq), right.u + 0.5 * (c_l - sq)):
        if u >= right.u:
            e1 = c_l * u + c_r * right.u
            if e1 >= -1e-12 and abs((right.u - u) + math.sqrt(max(e1, 0.0))) <= 1e-9 * (
                1.0 + abs(right.u)
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
    if direction == BACKWARD:
        if rho < left.rho:
            raise BranchError("backward shock branch requires rho >= rho_left")
    elif direction == FORWARD:
        if rho > left.rho:
            raise BranchError("forward shock branch requires rho <= rho_left")
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return _shock_u_given_left(params, left, rho)


def shock_slope_diagnostics(
    params: PressureParams, left: State, star: State
) -> tuple[float, float]:
    """(E2, E3): numerator/denominator pieces of du/drho along the backward
    shock curve; used to verify its monotonicity."""
    _require_perturbed(params)
    A, B, a = params.A, params.B, params.alpha
    rl, r = left.rho, star.rho
    e2 = (
        0.5 * A * r**2 / rl
        + a * B * r ** (1.0 - a) / ((1.0 - a) * rl)
        - A * r
        - B / ((1.0 - a) * rl**a)
        + 0.5 * A * rl
        + B / r**a
    )
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
    A, B, a = params.A, params.B, params.alpha
    rl, ul = left.rho, left.u

    def f(rho: float) -> float:
        return (
            -A * rl
            + B / rl**a
            + 0.5 * A * rho
            - B / ((1.0 - a) * rho**a)
            + 0.5 * A * rl**2 / rho
            + a * B * rl ** (1.0 - a) / ((1.0 - a) * rho)
            - ul
        )

    # f(rl) = -ul < 0 and f grows for large rho: expand upward from rl and
    # solve -f, which is decreasing there.
    return solve_decreasing(lambda r: -f(r), rl, rl, rtol=1e-13)


def shock_speed_perturbed(params: PressureParams, left: State, right: State) -> float:
    """Jump-condition speed (rho_r u_r - rho_l u_l)/(rho_r - rho_l)."""
    if right.rho == left.rho:
        raise InapplicableError("degenerate jump: equal densities")
    return (right.rho * right.u - left.rho * left.u) / (right.rho - left.rho)


def rh_residual_perturbed(
    params: PressureParams, sl: State, sr: State, sigma: float
) -> tuple[float, float]:
    """Both jump-condition components across a discontinuity at speed sigma."""
    A, B, a = params.A, params.B, params.alpha

    def m(s: State) -> float:
        return s.rho * s.u + 0.5 * A * s.rho**2 - B * s.rho ** (1.0 - a) / (1.0 - a)

    def fl(s: State) -> float:
        return s.rho * s.u**2 + A * s.rho**2 * s.u - B * s.rho ** (1.0 - a) * s.u

    r1 = -sigma * (sr.rho - sl.rho) + (sr.rho * sr.u - sl.rho * sl.u)
    r2 = -sigma * (m(sr) - m(sl)) + (fl(sr) - fl(sl))
    return r1, r2


def _wave1_curve_u(params: PressureParams, left: State, rho: float) -> float:
    """Backward (1-family) composite curve through ``left``: R below rho_left,
    S above it."""
    if rho <= left.rho:
        return rarefaction_curve_u(params, left, rho, BACKWARD)
    return _shock_u_given_left(params, left, rho)


def _wave2_curve_u(params: PressureParams, left: State, rho: float) -> float:
    """Forward (2-family) composite curve through ``left``: S below rho_left,
    R above it."""
    if rho >= left.rho:
        return rarefaction_curve_u(params, left, rho, FORWARD)
    return _shock_u_given_left(params, left, rho)


def _wave2_curve_u_reversed(params: PressureParams, right: State, rho: float) -> float:
    """Velocity u such that (u, rho) connects to ``right`` by a forward wave.

    Rarefaction branch for rho <= rho_right (clamped at vacuum), shock branch
    for rho > rho_right.
    """
    if rho == right.rho:
        return right.u
    if rho < right.rho:
        root = math.sqrt(right.u) - 0.5 * rarefaction_integral(params, rho, right.rho)
        return root * root if root > 0.0 else 0.0
    return _shock_u_given_right(params, right, rho)


def classify_perturbed(
    params: PressureParams, left: State, right: State, tol: float = BOUNDARY_TOL
) -> RegionLabel17:
    """Select the wave pattern by comparing ``right`` against the backward and
    forward curves through ``left`` at density rho_right."""
    _require_perturbed(params)
    if abs(right.u - left.u) <= tol and abs(right.rho - left.rho) <= tol:
        return RegionLabel17.COINCIDENT
    u_bwd = _wave1_curve_u(params, left, right.rho)
    u_fwd = _wave2_curve_u(params, left, right.rho)
    d_bwd = right.u - u_bwd  # above backward curve => forward wave is R
    d_fwd = right.u - u_fwd  # above forward curve  => backward wave is R
    if abs(d_bwd) <= tol:
        return (
            RegionLabel17.ON_BACKWARD_R
            if right.rho < left.rho
            else RegionLabel17.ON_BACKWARD_S
        )
    if abs(d_fwd) <= tol:
        return (
            RegionLabel17.ON_FORWARD_S
            if right.rho < left.rho
            else RegionLabel17.ON_FORWARD_R
        )
    first = "R" if d_fwd > 0.0 else "S"
    second = "R" if d_bwd > 0.0 else "S"
    return RegionLabel17[first + second]


@dataclass(frozen=True)
class RarefactionFan:
    head: float
    tail: float
    profile: Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class ShockWave:
    speed: float


@dataclass(frozen=True)
class RiemannSolution17:
    """Self-similar two-wave solution of the perturbed system."""

    params: PressureParams
    left: State
    star: State
    right: State
    waves: tuple

    def sample(self, xi: float) -> tuple[float, float]:
        states = (
            (self.left.u, self.left.rho),
            (self.star.u, self.star.rho),
            (self.right.u, self.right.rho),
        )
        pos = states[0]
        for k, wave in enumerate(self.waves):
            if isinstance(wave, RarefactionFan):
                if xi < wave.head:
                    return pos
                if xi <= wave.tail:
                    return wave.profile(xi)
            else:
                if xi < wave.speed:
                    return pos
            pos = states[k + 1] if len(self.waves) == 2 else states[2]
        return pos


def _backward_fan(
    params: PressureParams, left: State, star: State
) -> RarefactionFan:
    head = eigenvalues_perturbed(params, left).lambda1
    tail = eigenvalues_perturbed(params, star).lambda1
    A, B, a = params.A, params.B, params.alpha

    def xi_of_rho(rho: float) -> float:
        u = rarefaction_curve_u(params, left, rho, BACKWARD)
        return u - math.sqrt(u * (A * rho + B * a / rho**a)), u

    def profile(xi: float) -> tuple[float, float]:
        # xi increases as rho decreases from rho_left to rho_star
        rho = bisect_decreasing(
            lambda r: xi_of_rho(r)[0] - xi, star.rho, left.rho, rtol=1e-14
        )
        u = rarefaction_curve_u(params, left, rho, BACKWARD)
        return u, rho

    return RarefactionFan(head, tail, profile)


def _forward_fan(params: PressureParams, star: State, right: State) -> RarefactionFan:
    head = eigenvalues_perturbed(params, star).lambda2
    tail = eigenvalues_perturbed(params, right).lambda2
    A, B, a = params.A, params.B, params.alpha

    def profile(xi: float) -> tuple[float, float]:
        # along the forward curve from star, xi = lambda2 increases with rho
        def g(rho: float) -> float:
            u = rarefaction_curve_u(params, star, rho, FORWARD)
            return -(u + math.sqrt(u * (A * rho + B * a / rho**a)) - xi)

        rho = bisect_decreasing(g, star.rho, right.rho, rtol=1e-14)
        u = rarefaction_curve_u(params, star, rho, FORWARD)
        return u, rho

    return RarefactionFan(head, tail, profile)


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

    def g(rho: float) -> float:
        return _wave1_curve_u(params, left, rho) - _wave2_curve_u_reversed(
            params, right, rho
        )

    lo = min(left.rho, right.rho)
    hi = max(left.rho, right.rho)
    rho_star = solve_decreasing(g, lo, hi, rtol=1e-15)
    u_star = _wave1_curve_u(params, left, rho_star)
    if abs(g(rho_star)) > 1e-11 * (1.0 + abs(u_star)):
        raise InapplicableError(
            f"curve intersection residual {g(rho_star):.3e} exceeds tolerance"
        )
    if not u_star > 0.0:
        raise InapplicableError("intersection fell outside the positive-velocity region")
    star = State(u_star, rho_star)

    if rho_star > left.rho:
        wave1 = ShockWave(shock_speed_perturbed(params, left, star))
    elif rho_star < left.rho:
        wave1 = _backward_fan(params, left, star)
    else:
        wave1 = None
    if rho_star > right.rho:
        wave2 = ShockWave(shock_speed_perturbed(params, star, right))
    elif rho_star < right.rho:
        wave2 = _forward_fan(params, star, right)
    else:
        wave2 = None
    waves = tuple(w for w in (wave1, wave2) if w is not None)
    return RiemannSolution17(params, left, star, right, waves)


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

    Integrates in xi with adaptive quadrature split at the wave locations.
    For an exact solution both residuals vanish to quadrature accuracy.
    """
    _require_perturbed(params)
    A, B, a = params.A, params.B, params.alpha
    breakpoints: list[float] = []
    for wave in solution.waves:
        if isinstance(wave, ShockWave):
            breakpoints.append(wave.speed)
        else:
            breakpoints.extend((wave.head, wave.tail))
    if window is None:
        pad = 10.0 * max(1.0, test_fn.width)
        lo_all = min(breakpoints, default=test_fn.center) - pad
        hi_all = max(breakpoints, default=test_fn.center) + pad
        window = (
            min(lo_all, test_fn.center - test_fn.width - 1.0),
            max(hi_all, test_fn.center + test_fn.width + 1.0),
        )
    support = (test_fn.center - test_fn.width, test_fn.center + test_fn.width)
    if support[0] < window[0] or support[1] > window[1]:
        raise ValueError("test-function support exceeds the sampling window")

    lo = max(window[0], support[0])
    hi = min(window[1], support[1])
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})

    def momentum_offset(u: float, rho: float) -> float:
        if rho <= 0.0:
            return 0.0
        return u + 0.5 * A * rho - B / ((1.0 - a) * rho**a)

    def integrand1(xi: float) -> float:
        u, rho = solution.sample(xi)
        return rho * (u - xi) * test_fn.derivative(xi) - rho * test_fn(xi)

    def integrand2(xi: float) -> float:
        u, rho = solution.sample(xi)
        mom = rho * momentum_offset(u, rho)
        flux = rho * (u * u + A * rho * u - B * u / rho**a) if rho > 0.0 else 0.0
        return (
            -mom * xi * test_fn.derivative(xi)
            + flux * test_fn.derivative(xi)
            - mom * test_fn(xi)
        )

    r1 = 0.0
    r2 = 0.0
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        v1, _ = quad(integrand1, seg_lo, seg_hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        v2, _ = quad(integrand2, seg_lo, seg_hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        r1 += v1
        r2 += v2
    return r1, r2
