"""Exact Riemann solver for the perturbed Aw-Rascle system (0 < alpha < 1).

Both characteristic families are genuinely nonlinear, so the solution is a
backward wave (shock or rarefaction) followed by a forward wave.  Rarefaction
curves are defined through the integral of sqrt(A*s + B*alpha/s**alpha)/s;
shock curves come from eliminating the shock speed from the jump conditions,
which leaves (u_r - u_l)**2 = E1 with E1 affine in both velocities.

Every :class:`RarefactionTable` is a view, scaled by one factor, over a
unit table shared by every table of its pressure family.  The integrand in
t = log(rho) is sqrt(A*e^t + B*alpha*e^(-alpha*t)); with A > 0 and B/A a
normal double up to 1e280 it is sqrt(A) times
sqrt(e^t + (B/A)*alpha*e^(-alpha*t)), so all laws of one alpha and one B/A
(an A = B sweep, say) read one unit table, kept in a small module-level
LRU.  The unit table holds the integral
on unit panels [k, k+1], built lazily from CHEB_POINTS integrand values: a
Chebyshev interpolant through them gives a panel's antiderivative, whose
value at the panel's upper end, the values' dot product with Fejer's
weights, is the panel's integral; its coefficients are formed when a value
inside the panel is first asked for (the integrand is analytic within pi/2
of the real t axis, so the interpolant converges geometrically whatever A,
B and alpha are; panel sums agree with QUADPACK to 1e-13 relative).  Every
request inside PANEL_T_RANGE is answered from panels, so a value depends
only on the pressure law and the request, never on which requests came
first.  A two-shock solve asks for no integral.  Panels stop at t = -744
and t = 709, the ends of the double range; the part of a request beyond
them is one direct ``quad``.  A fan's point map reads the table's integrand
and :meth:`RarefactionTable.integral_from`, which reads panels alone.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from operator import mul
from typing import Callable

from .core import (
    PERTURBED,
    BranchError,
    DegenerateDensityError,
    Fan,
    InapplicableError,
    PressureParams,
    Record,
    RiemannSolution,
    Shock,
    State,
    flux,
    jump_residual,
    offset,
    speeds,
    star_density,
)
from .quadrature import quad
from .rootfind import curve_fan, safeguarded_newton, solve_decreasing
from .rootfind import bisect_decreasing  # noqa: F401  perfbench/tracer.py wraps it here

BOUNDARY_TOL = 1e-12
CHEB_POINTS = 14  # Chebyshev points per unit panel of a RarefactionTable
PANEL_T_RANGE = (-744, 709)  # panels [k, k+1] lie within it; beyond, one direct quad
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


def _require_perturbed(params: PressureParams, *rhos: float):
    """0 < alpha < 1, and each of ``rhos`` finite and > 0."""
    if not (0.0 < params.alpha < 1.0):
        raise ValueError("the perturbed system requires 0 < alpha < 1")
    for rho in rhos:
        if not (rho > 0.0 and math.isfinite(rho)):
            raise DegenerateDensityError(f"rho must be finite and > 0, got {rho}")


def _antiderivative_matrix(n: int) -> tuple[list[float], list[list[float]]]:
    """The n Chebyshev points x_j = cos(pi*(j + 1/2)/n) and the (n+1) x n
    matrix taking an integrand's values at t = k + (1 + x_j)/2 to the
    Chebyshev coefficients, in x, of its interpolant's antiderivative over
    [k, t], which is 0 at x = -1."""
    xs = [math.cos(math.pi * (j + 0.5) / n) for j in range(n)]
    # interpolant coefficient m per unit value at x_j, by the discrete cosine
    # transform; two zero rows stand for the coefficients past the last
    a = [
        [(1.0 if m else 0.5) * (2.0 / n) * math.cos(math.pi * m * (j + 0.5) / n) for j in range(n)]
        for m in range(n)
    ] + [[0.0] * n] * 2
    # T_0 integrates to T_1 and T_m to T_(m+1)/(2(m+1)) - T_(m-1)/(2(m-1));
    # dt = dx/2 on a unit panel
    rows = [
        [((2.0 if m == 1 else 1.0) * a[m - 1][j] - a[m + 1][j]) / (4.0 * m) for j in range(n)]
        for m in range(1, n + 1)
    ]
    first = [-sum((-1) ** m * rows[m - 1][j] for m in range(1, n + 1)) for j in range(n)]
    return xs, [first] + rows


_CHEB_X, _CHEB_MATRIX = _antiderivative_matrix(CHEB_POINTS)
# a panel's integral is its antiderivative at x = 1, where every T_m is 1:
# the column sums of the matrix are Fejer's first-rule weights
_FEJER = [sum(column) for column in zip(*_CHEB_MATRIX)]
_CHEB_E = [math.exp(0.5 + 0.5 * x) for x in _CHEB_X]  # e^(t - k) at the points


def _clenshaw(c: list[float], x: float) -> float:
    """Sum of c[m]*T_m(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    x2 = x + x
    for cm in c[:0:-1]:
        b1, b2 = cm + x2 * b1 - b2, b1
    return c[0] + x * b1 - b2


class _UnitTable:
    """The panels and coefficients of sqrt(c_a*e^t + c_b*alpha*e^(-alpha*t)),
    the integrand of a pressure family in t = log(rho) up to a constant
    factor, for t within PANEL_T_RANGE (see the module docstring).  Its
    values depend only on (alpha, c_a, c_b) and the request."""

    def __init__(self, alpha: float, c_a: float, c_b: float):
        self.alpha, self.c_a, self.c_b = alpha, c_a, c_b
        # below this alpha*t, c_b*alpha*e^(-alpha*t) may overflow, so the
        # integrand factors out e^(-alpha*t/2)
        ba = c_b * alpha
        self._cut = -709.0 + (math.log(ba) if ba > 1.0 else 0.0)
        # per built panel its integral and integrand values, and its
        # antiderivative's coefficients once a value inside it is asked for
        self._panels: dict[int, tuple[float, list[float]]] = {}
        self._coefficients: dict[int, list[float]] = {}
        self._cheb_f: list[float] = []  # e^(-alpha*(t - k)) at the points, on the first build

    def integrand(self, t: float) -> float:
        a, c_a, ba = self.alpha, self.c_a, self.c_b * self.alpha
        if a * t < self._cut:
            return math.exp(-0.5 * a * t) * math.sqrt(c_a * math.exp((1.0 + a) * t) + ba)
        return math.sqrt(c_a * math.exp(t) + ba * math.exp(-a * t))

    def values(self, k: int) -> list[float]:
        """The integrand at panel [k, k+1]'s Chebyshev points, from two
        exponentials: sqrt(c_a*e^k*e^(t-k) + c_b*alpha*e^(-alpha*k)*e^(-alpha*(t-k)))."""
        a, c_a, ba = self.alpha, self.c_a, self.c_b * self.alpha
        if not self._cheb_f:
            self._cheb_f = [math.exp(-a * (0.5 + 0.5 * x)) for x in _CHEB_X]
        if a * k < self._cut:
            h, e_a = math.exp(-0.5 * a * k), c_a * math.exp((1.0 + a) * k)
            return [h * math.sqrt(e_a * e + ba * f) for e, f in zip(_CHEB_E, self._cheb_f)]
        e_a, e_b = c_a * math.exp(k), ba * math.exp(-a * k)
        return [math.sqrt(e_a * e + e_b * f) for e, f in zip(_CHEB_E, self._cheb_f)]

    def panel(self, k: int) -> float:
        """Integral over panel [k, k+1], built on first use: the Fejer
        weights' dot product with the integrand values."""
        if k not in self._panels:
            values = self.values(k)
            self._panels[k] = (sum(map(mul, _FEJER, values)), values)
        return self._panels[k][0]

    def coefficients(self, k: int) -> list[float]:
        """Chebyshev coefficients of panel k's antiderivative from k."""
        if k not in self._coefficients:
            self.panel(k)
            values = self._panels[k][1]
            self._coefficients[k] = [sum(map(mul, row, values)) for row in _CHEB_MATRIX]
        return self._coefficients[k]

    def partial(self, k: int, t: float) -> float:
        """Integral over [k, t] for t in panel [k, k+1]: 0 and the panel's
        integral at its ends, so only a t inside the panel forms its
        antiderivative's coefficients."""
        if t == k:
            return 0.0
        if t == k + 1:
            return self.panel(k)
        return _clenshaw(self.coefficients(k), 2.0 * (t - k) - 1.0)

    def between(self, t_a: float, t_b: float) -> float:
        """Integral over [t_a, t_b], t_a < t_b, within PANEL_T_RANGE: the
        whole panels' integrals and the partial ends."""
        k_a, k_b = math.floor(t_a), math.ceil(t_b) - 1  # the panels covering [t_a, t_b]
        if k_a == k_b:
            return self.partial(k_a, t_b) - self.partial(k_a, t_a)
        total = self.panel(k_a) - self.partial(k_a, t_a)
        for k in range(k_a + 1, k_b):
            total += self.panel(k)
        return total + self.partial(k_b, t_b)


# A sweep at one alpha and one B/A reads one unit table, and so does a
# weak-form check that solves again at one of its points; a few more keep
# several such families apart.  The bound keeps memory flat where each
# solve brings a new family, as in a batch of random pressure laws: a unit
# table spanning the whole panel range holds 1,453 panels, about 1 MB (2 MB
# with every panel's coefficients), and a typical solve's a few dozen.
_UNIT_TABLES = 8


@lru_cache(maxsize=_UNIT_TABLES)
def _unit_table(alpha: float, c_a: float, c_b: float) -> _UnitTable:
    return _UnitTable(alpha, c_a, c_b)


class RarefactionTable:
    """The rarefaction integral of one pressure law in t = log(rho), whose
    integrand sqrt(A*s + B*alpha/s**alpha)/s after s = e^t is the smooth
    sqrt(A*e^t + B*alpha*e^(-alpha*t)): a view, scaled by ``scale``, over
    the shared unit table ``unit`` of sqrt(c_a*e^t + c_b*alpha*e^(-alpha*t))
    (see the module docstring).  (c_a, c_b, scale) is (1, B/A, sqrt(A))
    when A > 0 and B/A is a normal double up to 1e280, else (A, B, 1).

    ``panels_built`` counts the panels of the shared unit table, whichever
    view's request built them, so views of one family report one count.
    ``max_abserr`` is the largest error estimate of this view's own direct
    ``quad`` calls, which only requests beyond PANEL_T_RANGE make (a panel
    build makes none); it is 0 for a view that never left the range."""

    def __init__(self, params: PressureParams):
        A, B = params.A, params.B
        ratio = B / A if A > 0.0 else 0.0
        # scaled, the unit integrand reaches sqrt(B/A)*e^372 at t = -744, which
        # B/A up to 1e280 keeps finite
        if 2.0**-1022 <= ratio <= 1e280:
            c_a, c_b, self.scale = 1.0, ratio, math.sqrt(A)
        else:
            c_a, c_b, self.scale = A, B, 1.0
        self.params = params
        self.unit = _unit_table(params.alpha, c_a, c_b)
        self.max_abserr = 0.0

    @property
    def panels_built(self) -> int:
        return len(self.unit._panels)

    def integrand(self, t: float) -> float:
        return self.scale * self.unit.integrand(t)

    def integral_from(self, t0: float) -> Callable[[float], float]:
        """t -> the integral over [t0, t]: from t0 to the lower end k of t's
        panel, formed on demand outward from t0 in order (so a value does not
        depend on the order of requests), plus the partial integral over
        [k, t]; its error is the rounding of those two, relative to the panels."""
        unit, scale, k0 = self.unit, self.scale, math.floor(t0)
        ends: dict[int, float] = {}
        lo = hi = k0  # the lowest and highest panel ends formed

        def integral(t: float) -> float:
            nonlocal lo, hi
            k = math.floor(t)
            if not ends:
                ends[k0] = -unit.partial(k0, t0)
            while hi < k:
                ends[hi + 1] = ends[hi] + unit.panel(hi)
                hi += 1
            while lo > k:
                lo -= 1
                ends[lo] = ends[lo + 1] - unit.panel(lo)
            return scale * (ends[k] + unit.partial(k, t))

        return integral

    def between(self, t_a: float, t_b: float) -> float:
        """Signed integral over [t_a, t_b]: panel sums inside
        PANEL_T_RANGE, one direct ``quad`` for each part beyond it."""
        if t_a > t_b:
            return -self.between(t_b, t_a)
        if t_a == t_b:
            return 0.0
        if PANEL_T_RANGE[0] <= t_a and t_b <= PANEL_T_RANGE[1]:
            return self.scale * self.unit.between(t_a, t_b)
        # split at an end of the panels: one quad over a range much longer than
        # the panels' side can step over the integrand's rise near its far end
        for end in PANEL_T_RANGE:
            if t_a < end < t_b:
                return self.between(t_a, end) + self.between(end, t_b)
        value, err = quad(self.integrand, t_a, t_b, epsabs=1e-14, epsrel=1e-12)
        self.max_abserr = max(self.max_abserr, err)
        return value


def rarefaction_integral(params: PressureParams, rho_a: float, rho_b: float) -> float:
    """Signed integral of sqrt(A*s + B*alpha/s**alpha)/s over [rho_a, rho_b],
    from the panels its pressure family shares (one direct ``quad`` for a
    part beyond PANEL_T_RANGE)."""
    _require_perturbed(params, rho_a, rho_b)
    return RarefactionTable(params).between(math.log(rho_a), math.log(rho_b))


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
    _require_perturbed(params, rho)
    if not _fan_side(direction, left, rho):
        raise BranchError(f"rho = {rho} is off the {direction} rarefaction branch")
    return _wave_curve_u(RarefactionTable(params), left, rho, direction)


def e1_left_coefficient(params: PressureParams, rho_l: float, rho_r: float) -> float:
    """Coefficient c_l of u_l in E1.  Where its term A*rho_l**2/rho_r
    overflows, with densities far apart, it raises InapplicableError."""
    A, B, a = params.A, params.B, params.alpha
    k = a * B / (1.0 - a)
    try:
        quadratic = 0.5 * A * rho_l**2 / rho_r
    except OverflowError:  # float ** raises where * and / give inf
        quadratic = math.inf
    if quadratic == math.inf:
        raise InapplicableError(
            f"the shock coefficient term A*rho_l**2/rho_r overflows at "
            f"rho_l = {rho_l!r}, rho_r = {rho_r!r}"
        )
    return (
        quadratic
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
    # the catastrophic cancellation of b^2 - 4c when A, B are tiny.  The root of
    # larger magnitude comes from the formula, the other from the roots' product
    # u0*(u0 - c_known) (Vieta), as the formula would cancel in it
    disc = 4.0 * u0 * (c_known + c_free) + c_free * c_free
    if disc < 0.0:
        raise InapplicableError("no real root on the shock locus (unexpected)")
    sq = math.sqrt(disc)
    low, high = u0 + 0.5 * (c_free - sq), u0 + 0.5 * (c_free + sq)
    if 2.0 * u0 + c_free > 0.0:  # the roots' sum: high has the larger magnitude
        low = u0 * (u0 - c_known) / high
    elif low:
        high = u0 * (u0 - c_known) / low
    for u in (low, high) if s > 0.0 else (high, low):
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
    _require_perturbed(params, rho)
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
    table: RarefactionTable, known: State, rho: float, direction: str, s: float = 1.0
) -> float:
    """Velocity at ``rho`` on the composite ``direction`` curve through
    ``known``, which is the wave's left state when s = 1 and its right state
    when s = -1 (as in :func:`_shock_u`), for the pressure law of ``table``.
    From a left state the curve is R on its rarefaction side (rho <= rho_left
    backward, rho >= rho_left forward) and S on the other; from a right state
    the sides swap, and R is clamped at vacuum."""
    if rho == known.rho:
        return known.u
    if _fan_side(direction, known, rho) != (s < 0.0):
        integral = table.between(math.log(known.rho), math.log(rho))
        root = _rarefaction_root(known.u, direction, integral)
        return root * root
    return _shock_u(table.params, known, rho, s)


def _rarefaction_root(u_known: float, direction: str, integral: float) -> float:
    """Square root of the velocity on the ``direction`` rarefaction curve at
    the density where the rarefaction integral from the known state reaches
    ``integral``: sqrt(u) = sqrt(u_known) -/+ integral/2, clamped at vacuum."""
    sign = -1.0 if direction == BACKWARD else 1.0
    root = math.sqrt(u_known) + sign * (0.5 * integral)
    return root if root > 0.0 else 0.0


def classify_perturbed(params: PressureParams, left: State, right: State) -> RegionLabel17:
    """Select the wave pattern by comparing ``right`` against the backward and
    forward curves through ``left`` at density rho_right (ties within
    BOUNDARY_TOL get boundary tags)."""
    _require_perturbed(params)
    if abs(right.u - left.u) <= BOUNDARY_TOL and abs(right.rho - left.rho) <= BOUNDARY_TOL:
        return RegionLabel17.COINCIDENT
    table = RarefactionTable(params)
    u_bwd = _wave_curve_u(table, left, right.rho, BACKWARD)
    u_fwd = _wave_curve_u(table, left, right.rho, FORWARD)
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
    """Self-similar two-wave solution of the perturbed system; ``table`` is
    the rarefaction-integral view its solve and its fans share (None for a
    solution assembled by hand), left out of equality, hash and repr."""

    table: RarefactionTable | None = None
    _hidden = ("table",)


def _wave(table: RarefactionTable, direction: str, sl: State, sr: State):
    """The ``direction`` wave joining ``sl`` to ``sr`` under the pressure law
    of ``table``: a shock when it compresses, a fan along the rarefaction
    curve through ``sl`` (reading ``table``) when it expands, None when the
    densities agree.  The fan is :func:`rootfind.curve_fan` of the
    curve's point map in t = log(rho), which its nodes, its samples and the
    weak form share."""
    params = table.params
    if sr.rho == sl.rho:
        return None
    if (sr.rho > sl.rho) == (direction == BACKWARD):
        return Shock(shock_speed_perturbed(params, sl, sr))
    k = 0 if direction == BACKWARD else 1
    A, a = params.A, params.alpha
    kappa, half_kappa, r_l = 2.0 * k - 1.0, k - 0.5, math.sqrt(sl.u)
    t_head, t_tail = math.log(sl.rho), math.log(sr.rho)
    integral, integrand = table.integral_from(t_head), table.integrand

    def point(t: float) -> tuple[float, float, float, float]:
        # (lambda_k, its slope in t, u, rho) on the fan's curve at t: r = sqrt(u)
        # moves by half the integral of f, so dr/dt = -/+ f/2, lambda_k = r*(r -/+ f),
        # and f' = ((1 + alpha)*A*rho/f - alpha*f)/2 as f^2 = A*rho + B*alpha*rho**-alpha
        r = r_l + half_kappa * integral(t)  # _rarefaction_root's r
        rho, f = math.exp(t), integrand(t)
        df = 0.5 * ((1.0 + a) * A * rho / f - a * f)
        return r * (r + kappa * f), kappa * (f * (r + half_kappa * f) + r * df), r * r, rho

    head, tail = (speeds(PERTURBED, params, s.u, s.rho)[k] for s in (sl, sr))
    return curve_fan(point, t_head, t_tail, sl, sr, head, tail)


def _vacuum_side_star(
    table: RarefactionTable, r_bwd: float, r_fwd: float, lo: float
) -> float:
    """Star density where the curves of :func:`solve_perturbed` meet below
    ``lo`` = min(rho_left, rho_right), given the square roots of the backward
    velocity ``r_bwd`` below the forward one ``r_fwd`` at ``lo``.  Both curves
    are rarefaction curves there: as t = log(rho) falls, sqrt(u) rises on one
    and falls on the other by half the integral from t to t_lo = log(lo), so
    they meet where J(t) = gap - between(t, t_lo) vanishes, gap = r_fwd -
    r_bwd, and J' is the integrand.  That is at least each of its terms'
    square roots, whose integrals reach gap at closed-form points, so at the
    higher of them, t_low, J <= 0 up to rounding; Newton's method runs on
    [t_low, t_lo].  A star density below the least normal double raises
    ``DensityUnderflowError``."""
    A, ba, a = table.params.A, table.params.B * table.params.alpha, table.params.alpha
    gap, t_lo = r_fwd - r_bwd, math.log(lo)
    seen: dict[float, tuple[float, float]] = {}  # J and J' at each t, so t_low is not redone

    def excess(t: float) -> tuple[float, float]:
        if t not in seen:
            seen[t] = (gap - table.between(t, t_lo), table.integrand(t))
        return seen[t]

    # where the integrals of sqrt(B*alpha)*e^(-alpha*t/2) and sqrt(A)*e^(t/2)
    # from t to t_lo reach gap (the second may never reach it)
    t_low = -2.0 / a * math.log(gap * a / (2.0 * math.sqrt(ba)) + math.exp(-0.5 * a * t_lo))
    room = math.exp(0.5 * t_lo) - gap / (2.0 * math.sqrt(A))
    if room > 0.0:
        t_low = max(t_low, 2.0 * math.log(room))
    t_low = min(t_low, t_lo)
    while excess(t_low)[0] > 0.0:  # rounding put the bound above the root
        t_low -= 1.0 + (t_lo - t_low)
    t_star = safeguarded_newton(excess, t_low, t_lo, t_low)
    # a subnormal rho* (below 2**-1022) keeps too few bits to meet to tolerance
    return lo if t_star == t_lo else star_density(t_star, 2.0**-1022)


def solve_perturbed(
    params: PressureParams, left: State, right: State
) -> RiemannSolution17:
    """Intersect the backward curve from ``left`` with the (reversed) forward
    curve through ``right``; assemble the two waves around the result.  The
    curves, the vacuum-side search and both fans read one
    :class:`RarefactionTable`, kept on the solution as ``table``, a view
    over the unit table that its pressure family shares.

    Monotonicity of the curves in rho is only guaranteed for small pressure
    coefficients; the residual of the match is always checked.
    """
    _require_perturbed(params)
    if params.A <= 0.0 or params.B <= 0.0:
        raise InapplicableError("the pressured solver requires A > 0 and B > 0")
    table = RarefactionTable(params)
    if right.u == left.u and right.rho == left.rho:
        return RiemannSolution17(params, left, left, right, (), table)
    for rho in (left.rho, right.rho):  # past it the shock coefficients overflow too
        if math.isinf(params.B / rho**params.alpha):
            raise InapplicableError(f"the pressure term B/rho**alpha overflows at rho = {rho!r}")

    # (backward u, forward u) at each rho g has seen, so no point is evaluated twice
    curves: dict[float, tuple[float, float]] = {}

    def g(rho: float) -> float:
        if rho not in curves:
            curves[rho] = (
                _wave_curve_u(table, left, rho, BACKWARD),
                _wave_curve_u(table, right, rho, FORWARD, -1.0),
            )
        u_bwd, u_fwd = curves[rho]
        return u_bwd - u_fwd

    lo, hi = min(left.rho, right.rho), max(left.rho, right.rho)
    if right.u < left.u and g(hi) > 0.0:
        # compressive data whose curves meet above both densities, where both
        # are shock curves: the bracket the expansion from (lo, hi) would
        # reach, without the rarefaction integral that g(lo) forms
        rho_star = solve_decreasing(g, hi, hi, rtol=1e-15)
    else:
        # at lo each curve is at its data or on its rarefaction side, so it is
        # known by the square root of its velocity, which the vacuum side reads
        t_lo = math.log(lo)
        r_bwd = _rarefaction_root(left.u, BACKWARD, table.between(math.log(left.rho), t_lo))
        r_fwd = _rarefaction_root(right.u, FORWARD, table.between(math.log(right.rho), t_lo))
        curves[lo] = (left.u if left.rho == lo else r_bwd * r_bwd,
                      right.u if right.rho == lo else r_fwd * r_fwd)
        if g(lo) < 0.0:
            rho_star = _vacuum_side_star(table, r_bwd, r_fwd, lo)
        else:
            rho_star = solve_decreasing(g, lo, hi, rtol=1e-15)
    residual = g(rho_star)
    u_star = curves[rho_star][0]
    if abs(residual) > 1e-11 * (1.0 + abs(u_star)):
        raise InapplicableError(
            f"curve intersection residual {residual:.3e} exceeds tolerance"
        )
    if not u_star > 0.0:
        raise InapplicableError("intersection fell outside the positive-velocity region")
    star = State(u_star, rho_star)
    waves = (
        _wave(table, BACKWARD, left, star),
        _wave(table, FORWARD, star, right),
    )
    return RiemannSolution17(
        params, left, star, right, tuple(w for w in waves if w is not None), table
    )


class BumpTestFunction(Record):
    """C^2 bump (1 - ((xi - center)/width)**2)**3 on |xi - center| < width;
    ``center`` must be finite and ``width`` finite and > 0."""

    center: float
    width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"bump center must be finite, got {self.center}")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError(f"bump width must be finite and > 0, got {self.width}")

    def __call__(self, xi: float) -> float:
        return self.value_and_derivative(xi)[0]

    def derivative(self, xi: float) -> float:
        return self.value_and_derivative(xi)[1]

    def value_and_derivative(self, xi: float) -> tuple[float, float]:
        z = (xi - self.center) / self.width
        if abs(z) >= 1.0:
            return 0.0, 0.0
        s = 1.0 - z * z
        return s**3, -6.0 * z * s**2 / self.width


def weak_form_residual(
    params: PressureParams,
    solution: RiemannSolution,
    test_fn: BumpTestFunction,
) -> tuple[float, float]:
    """Residuals of the two self-similar weak formulations for ``solution``
    of either pressured system, the one ``params.system`` names: the
    integrals of (f(q) - xi*q)*phi' - q*phi, phi = ``test_fn``, over its
    support, piece by piece between the wave edges.  On a constant state the
    integrand is d/dxi[(f - xi*q)*phi], so a constant-state piece [a, b],
    sampled once at its midpoint, contributes
    (f - b*q)*phi(b) - (f - a*q)*phi(a) exactly; a fan piece is integrated by
    adaptive quadrature in t = log(rho) along the fan's ``curve``, so only an
    end of the support inside a fan inverts the fan.  For an exact solution
    both residuals vanish to quadrature accuracy; ``params`` must be the
    solution's own pressure law."""
    if params is not solution.params and params != solution.params:
        raise InapplicableError(f"the solution is not one of the {params.system} system: {params}")
    lo, hi = test_fn.center - test_fn.width, test_fn.center + test_fn.width
    breakpoints = (edge for wave in solution.waves for edge in wave.edges)
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    # the current fan piece's curve, both components at each of its nodes, and
    # the one (0: mass, 1: momentum) integrated
    point, pairs, k = None, {}, 0
    system, alpha = params.system, params.alpha

    def conserved_and_flux(u: float, rho: float):
        return zip((rho, rho * (u + offset(system, params, rho))), flux(params, u, rho))

    def integrand(t: float) -> float:
        if t not in pairs:
            xi, dxi, u, rho = point(t)
            v, d = test_fn.value_and_derivative(xi)
            ra = rho**alpha
            q2 = rho * (u + offset(system, params, rho, ra))
            f1, f2 = flux(params, u, rho, ra)
            pairs[t] = (((f1 - xi * rho) * d - rho * v) * dxi, ((f2 - xi * q2) * d - q2 * v) * dxi)
        return pairs[t][k]

    totals = [0.0, 0.0]
    for a, b in zip(cuts[:-1], cuts[1:]):
        fan = next((w for w in solution.waves if w.edges[0] <= a and b <= w.edges[1]), None)
        if fan is None:
            v_a, v_b = test_fn(a), test_fn(b)
            for k, (q, f) in enumerate(conserved_and_flux(*solution.sample(0.5 * (a + b)))):
                totals[k] += (f - b * q) * v_b - (f - a * q) * v_a
            continue
        if fan.curve is None:
            raise InapplicableError("a fan without its curve in log density (see core.Fan)")
        t_head, t_tail, point = fan.curve
        a = t_head if a == fan.head else math.log(fan.profile(a)[1])
        b = t_tail if b == fan.tail else math.log(fan.profile(b)[1])
        pairs = {}
        for k in (0, 1):
            totals[k] += quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11)[0]
    return totals[0], totals[1]
