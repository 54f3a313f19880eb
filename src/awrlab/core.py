"""Shared domain types, formulas and the Riemann-solution model.

Both pressured systems ("original", "perturbed") share the pressure law
P(rho) = A*rho - B/rho**alpha and the flux (rho*u, rho*u*(u + P)); they differ
only in the velocity offset of the momentum q2 = rho*(u + offset): P itself,
or (A/2)*rho - B/((1-alpha)*rho**alpha) for the perturbed system.  These
formulas -- :func:`offset`, :func:`flux`, :func:`speeds` and
:func:`jump_residual` -- are written once, in arithmetic that runs on floats
and on arrays; the finite-volume step spells offset, flux and speeds as ufunc
calls into its buffers, and its tests pin that spelling to these, bit for
bit.  Both exact solvers and the transport system return a
:class:`RiemannSolution` of :class:`Shock`, :class:`Contact` and :class:`Fan`
waves.
"""

from __future__ import annotations

import math
from typing import Callable

ORIGINAL = "original"
PERTURBED = "perturbed"
TRANSPORT = "transport"

# Densities below this are treated as degenerate in conversions.
RHO_FLOOR = 1e-300


class DegenerateDensityError(ValueError):
    """Raised when a conversion is asked for a non-positive density."""


class BranchError(ValueError):
    """Raised when a wave-curve query lands on the inadmissible half-branch."""


class NoThresholdError(ValueError):
    """Raised when no coupled-parameter threshold separates two regions."""


class InapplicableError(ValueError):
    """Raised when an operation's configuration precondition fails."""


class BracketError(RuntimeError):
    """Raised when geometric expansion fails to bracket a sign change
    (``rootfind`` raises it; defined here so that catching it loads no solver)."""


class DensityUnderflowError(InapplicableError, BracketError):
    """Raised when a star density lies below the smallest positive (perturbed
    vacuum side: normal) double; the message gives its log10.  In the
    vanishing-pressure limit this is vacuum formation, not a failure to solve."""


def star_density(t: float, least: float = math.ulp(0.0)) -> float:
    """The density e^t of a star state found in log density t.  Below ``least``
    (the least positive double) it raises ``DensityUnderflowError``, above the
    largest an ``InapplicableError``; either message gives log10(rho*)."""
    try:
        rho = math.exp(t)
    except OverflowError:
        rho = math.inf
    if not least <= rho < math.inf:
        error, flows = (DensityUnderflowError, "under") if t < 0.0 else (InapplicableError, "over")
        raise error(f"the star density {flows}flows: log10(rho*) = {t / math.log(10.0):.12g}")
    return rho


class Record:
    """Immutable value type.  A subclass declares its fields by annotation,
    after those of its bases; a class-level value is the field's default.
    Each subclass gets a generated positional/keyword ``__init__`` (as
    ``collections.namedtuple`` does) that sets the fields and then calls
    ``__post_init__`` when the class has one.  Equality (within one class),
    hash and repr cover the fields not named in ``_hidden``; assignment and
    deletion raise AttributeError."""

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = (*cls._fields, *(f for f in cls.__annotations__ if f not in cls._fields))
        args = ", ".join(f"{f}=_cls.{f}" if hasattr(cls, f) else f for f in cls._fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {args}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _items(self):
        return [(f, getattr(self, f)) for f in self._fields if f not in self._hidden]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __hash__(self):
        return hash(tuple(self._items()))

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in self._items())
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PressureParams(Record):
    """Coefficients (A, B, alpha) of the pressure law A*rho - B/rho**alpha.

    ``system`` records which model the parameters will feed.  The perturbed
    system is only defined for 0 < alpha < 1; the original one accepts
    alpha = 1 as well.  A = 0 or B = 0 is permitted so the closed-form
    degenerate cases can be used as analytic checks, but the two pressured
    Riemann solvers require A > 0 and B > 0.
    """

    A: float
    B: float
    alpha: float
    system: str = ORIGINAL

    def __post_init__(self):
        if not (self.A >= 0.0 and math.isfinite(self.A)):
            raise ValueError(f"A must be finite and >= 0, got {self.A}")
        if not (self.B >= 0.0 and math.isfinite(self.B)):
            raise ValueError(f"B must be finite and >= 0, got {self.B}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.system not in (ORIGINAL, PERTURBED):
            raise ValueError(f"unknown system tag {self.system!r}")
        if self.system == PERTURBED and self.alpha == 1.0:
            raise ValueError("the perturbed system is not defined for alpha = 1")


class State(Record):
    """A point (u, rho) in the phase plane; both components must be positive.

    Vacuum appears only inside solution fans (as plain (u, 0) samples),
    never as a solver input.
    """

    u: float
    rho: float

    def __post_init__(self):
        if not (self.u > 0.0 and math.isfinite(self.u)):
            raise ValueError(f"u must be finite and > 0, got {self.u}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")


class Conserved(Record):
    """Cell-average unknowns: q1 = rho, q2 = generalized momentum."""

    q1: float
    q2: float


class WaveSpeedPair(Record):
    lambda1: float
    lambda2: float


def offset(system: str, params: PressureParams, rho, ra=None, ar=None, bra=None):
    """Velocity offset of ``system``, so that q2 = rho*(u + offset).

    The original offset is the pressure A*rho - B/rho**alpha itself.  No
    domain check: ``rho`` is a positive float or an array of them.  Here and
    in :func:`flux` and :func:`speeds`, a caller that already holds
    ``ra`` = rho**alpha, ``ar`` = A*rho or ``bra`` = B/rho**alpha passes it;
    the result is the same bits either way.
    """
    if ra is None:
        ra = rho**params.alpha
    if system == ORIGINAL:
        return (params.A * rho if ar is None else ar) - (params.B / ra if bra is None else bra)
    if system == PERTURBED:
        return 0.5 * params.A * rho - params.B / ((1.0 - params.alpha) * ra)
    raise ValueError(f"unknown system tag {system!r}")


def flux(params: PressureParams, u, rho, ra=None, P=None):
    """Flux (rho*u, rho*u*(u + P(rho))), the same for both systems; ``P`` is
    the pressure when the caller holds it."""
    m = rho * u
    return m, m * (u + (offset(ORIGINAL, params, rho, ra) if P is None else P))


def speeds(system: str, params: PressureParams, u, rho, sqrt=math.sqrt, ra=None, ar=None):
    """Characteristic speeds (lambda1, lambda2) of ``system`` at (u, rho);
    arrays need an array ``sqrt``."""
    if ra is None:
        ra = rho**params.alpha
    if ar is None:
        ar = params.A * rho
    if system == ORIGINAL:
        return u - ar - params.B * params.alpha / ra, u
    gap = sqrt(u * (ar + params.B * params.alpha / ra))
    return u - gap, u + gap


def pressure(params: PressureParams, rho: float) -> float:
    """Pressure A*rho - B/rho**alpha; rho must be positive."""
    if not rho > 0.0:
        raise DegenerateDensityError(f"pressure requires rho > 0, got {rho}")
    return offset(ORIGINAL, params, rho)


def pressure_derivative(params: PressureParams, rho: float) -> float:
    """dP/drho = A + B*alpha/rho**(1+alpha), strictly positive for A,B > 0."""
    if not rho > 0.0:
        raise DegenerateDensityError(f"rho must be positive, got {rho}")
    return params.A + params.B * params.alpha / rho ** (1.0 + params.alpha)


def eigenvalues_original(params: PressureParams, s: State) -> WaveSpeedPair:
    """Characteristic speeds (u - A*rho - B*alpha/rho**alpha, u)."""
    return WaveSpeedPair(*speeds(ORIGINAL, params, s.u, s.rho))


def eigenvalues_perturbed(params: PressureParams, s: State) -> WaveSpeedPair:
    """Characteristic speeds u -/+ sqrt(u*(A*rho + B*alpha/rho**alpha))."""
    if params.alpha >= 1.0:
        raise ValueError("perturbed eigenvalues require 0 < alpha < 1")
    return WaveSpeedPair(*speeds(PERTURBED, params, s.u, s.rho))


def genuine_nonlinearity_original(params: PressureParams, s: State) -> float:
    """grad(lambda1) . r1 = -2A - (1-alpha)*B*alpha/rho**(1+alpha) (< 0)."""
    return -2.0 * params.A - (1.0 - params.alpha) * params.B * params.alpha / s.rho ** (
        1.0 + params.alpha
    )


def perturbed_nondegeneracy_gap(params: PressureParams, s: State) -> float:
    """Distance from the degenerate set where genuine nonlinearity can fail.

    Returns (3*A*rho + (B*alpha/rho**alpha)*(2-alpha))*sqrt(u)
    - (A*rho + B*alpha/rho**alpha)**1.5.  Inputs within 1e-12 of zero are
    merely reported by callers; there is no special-case handling.
    """
    g = params.A * s.rho + params.B * params.alpha / s.rho**params.alpha
    lead = 3.0 * params.A * s.rho + (params.B * params.alpha / s.rho**params.alpha) * (
        2.0 - params.alpha
    )
    return lead * math.sqrt(s.u) - g**1.5


def to_conserved(system: str, params: PressureParams, s: State) -> Conserved:
    """Map a phase-plane state to the conservative variables of ``system``."""
    return Conserved(s.rho, s.rho * (s.u + offset(system, params, s.rho)))


def from_conserved(system: str, params: PressureParams, q: Conserved) -> State:
    """Invert :func:`to_conserved`; raises on degenerate density."""
    if not q.q1 > RHO_FLOOR:
        raise DegenerateDensityError(f"degenerate density q1 = {q.q1}")
    u = q.q2 / q.q1 - offset(system, params, q.q1)
    return State(u, q.q1)


def jump_residual(
    system: str, params: PressureParams, sl: State, sr: State, sigma: float
) -> tuple[float, float]:
    """Both jump-condition components -sigma*[q] + [f] across a discontinuity
    at speed sigma joining ``sl`` to ``sr``."""
    (f1l, f2l), (f1r, f2r) = flux(params, sl.u, sl.rho), flux(params, sr.u, sr.rho)
    q2l = sl.rho * (sl.u + offset(system, params, sl.rho))
    q2r = sr.rho * (sr.u + offset(system, params, sr.rho))
    return -sigma * (sr.rho - sl.rho) + (f1r - f1l), -sigma * (q2r - q2l) + (f2r - f2l)


class _Jump(Record):
    speed: float

    def __post_init__(self):
        # ``edges`` is not a field: equality, hash and repr leave it out
        object.__setattr__(self, "edges", (self.speed, self.speed))


class Shock(_Jump):
    """Shock moving at ``speed``; both its ``edges`` are that speed."""


class Contact(_Jump):
    """Contact discontinuity moving at ``speed``; ``edges`` as for Shock."""


class Fan(Record):
    """Centered rarefaction fan with ``edges`` = (head, tail), head < tail;
    ``profile`` maps xi inside the fan to (u, rho).  A fan of either pressured
    system carries ``curve`` = (t_head, t_tail, point): its ends in t = log(rho)
    and the map t -> (xi, dxi/dt, u, rho) along it, left out of equality,
    hash and repr (the transport vacuum fan has none)."""

    head: float
    tail: float
    profile: Callable[[float], tuple[float, float]]
    curve: tuple | None = None
    _hidden = ("curve",)

    def __post_init__(self):
        object.__setattr__(self, "edges", (self.head, self.tail))


class RiemannSolution(Record):
    """Self-similar solution: ``left``, then ``waves`` in order of speed with
    ``star`` between two of them, then ``right``; ``params`` is None for the
    pressureless transport system."""

    params: PressureParams | None
    left: State
    star: State
    right: State
    waves: tuple

    def sample(self, xi: float) -> tuple[float, float]:
        """Primitive values (u, rho) at the self-similar coordinate xi; a fan
        gives its upstream state at its head and its downstream one at its tail."""
        upstream = self.left
        for wave in self.waves:
            head, tail = wave.edges
            if xi < tail:
                return (upstream.u, upstream.rho) if xi <= head else wave.profile(xi)
            upstream = self.star
        return self.right.u, self.right.rho


def default_schedule(lo: float = 1e-1, hi: float = 1e-6, n: int = 6) -> tuple[float, ...]:
    """Log-uniform, strictly decreasing schedule of n >= 2 coupled A = B values."""
    if n < 2:
        raise ValueError(f"a sweep schedule needs at least two values, got n = {n}")
    r = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * r**k for k in range(n))
