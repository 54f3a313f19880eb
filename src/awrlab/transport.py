"""Pressureless transport solutions, delta-shock relations and limit sweeps.

The transport system (the formal A, B -> 0 limit of both pressured models)
admits contact discontinuities, vacuum fans and measure-valued delta shocks.
The sweep engine drives the pressured exact solvers along a decreasing
schedule of A = B values and certifies the predicted limit behaviour
(density blow-up or vacuum formation, speed coalescence, mass concentration).
"""

from __future__ import annotations

import math
from enum import Enum

from . import core
from .core import InapplicableError, PressureParams, Record, State
from .core import default_schedule  # noqa: F401  served here as well as from core

TRANSPORT_KIND = "TRANSPORT"
SPECIAL_KIND = "SPECIAL"
ENTROPY_TOL = 1e-12


class EntropyClass(Enum):
    OVERCOMPRESSIVE = "OVERCOMPRESSIVE"
    SPECIAL = "SPECIAL"
    VIOLATING = "VIOLATING"


class DeltaShock(Record):
    """Delta shock on the line x = sigma*t with weight w(t) = weight_rate*t.

    The stored rate already includes the 1/sqrt(1 + sigma^2) arclength
    factor, so the mass carried on the x-line at time t is
    weight_rate*sqrt(1 + sigma^2)*t.
    """

    sigma: float
    weight_rate: float
    left: State
    right: State
    kind: str = TRANSPORT_KIND

    def weight(self, t: float) -> float:
        return self.weight_rate * t


class TransportSolution(core.RiemannSolution):
    """Riemann solution of the transport system: a vacuum fan on which
    (u, rho) = (xi, 0), a delta shock, a single contact or no wave.  It has no
    pressure law and no intermediate state (``star`` is ``left``); the delta
    measure itself is carried in ``delta``."""

    kind: str  # "vacuum" | "delta" | "contact" | "constant"
    delta: DeltaShock | None = None


def transport_solve(left: State, right: State) -> TransportSolution:
    """Case split on sign(u+ - u-): vacuum fan, delta shock or contact."""
    if right.u > left.u:
        fan = core.Fan(left.u, right.u, lambda xi: (xi, 0.0))
        return TransportSolution(None, left, left, right, (fan,), "vacuum")
    if right.u < left.u:
        sl, sr = math.sqrt(left.rho), math.sqrt(right.rho)
        sigma = (sr * right.u + sl * left.u) / (sr + sl)
        rate = math.sqrt(left.rho * right.rho) * (left.u - right.u) / math.hypot(
            1.0, sigma
        )
        delta = DeltaShock(sigma, rate, left, right)
        return TransportSolution(None, left, left, right, (core.Shock(sigma),), "delta", delta)
    if right.rho == left.rho:
        return TransportSolution(None, left, left, right, (), "constant")
    return TransportSolution(None, left, left, right, (core.Contact(left.u),), "contact")


def special_delta(left: State, right: State) -> DeltaShock:
    """Delta shock riding the downstream characteristic: sigma = u+ with
    weight rate rho-*(u- - u+)/sqrt(1 + u+^2)."""
    if not right.u < left.u:
        raise InapplicableError("the special delta shock requires u+ < u-")
    rate = left.rho * (left.u - right.u) / math.hypot(1.0, right.u)
    return DeltaShock(right.u, rate, left, right, kind=SPECIAL_KIND)


def _delta_balance(left: State, right: State, sigma: float) -> tuple[float, float]:
    """Mass and momentum a delta shock at speed sigma gathers per unit time:
    (sigma*[rho] - [rho*u], sigma*[rho*u] - [rho*u**2])."""
    drho = right.rho - left.rho
    dmom = right.rho * right.u - left.rho * left.u
    dflux = right.rho * right.u**2 - left.rho * left.u**2
    return sigma * drho - dmom, sigma * dmom - dflux


def grh_residual(d: DeltaShock) -> tuple[float, float]:
    """Residuals of the mass and momentum balance laws along the delta path.

    With w(t) linear in t both residuals are time independent:
    r_mass = weight_rate*sqrt(1+sigma^2) - (sigma*[rho] - [rho*u]) and the
    analogous momentum line.
    """
    arc = math.hypot(1.0, d.sigma)
    mass, momentum = _delta_balance(d.left, d.right, d.sigma)
    return d.weight_rate * arc - mass, d.weight_rate * d.sigma * arc - momentum


def entropy_check(d: DeltaShock) -> EntropyClass:
    """Overcompressive if u+ < sigma < u-, special if sigma = u+ < u-
    (both to within ENTROPY_TOL)."""
    if d.right.u + ENTROPY_TOL < d.sigma < d.left.u - ENTROPY_TOL:
        return EntropyClass.OVERCOMPRESSIVE
    if abs(d.sigma - d.right.u) <= ENTROPY_TOL and d.right.u < d.left.u:
        return EntropyClass.SPECIAL
    return EntropyClass.VIOLATING


class SweepRecord(Record):
    """One row of a vanishing-pressure experiment."""

    A: float
    B: float
    rho_star: float
    u_star: float
    sigma1: float
    sigma2: float
    product: float  # rho_star * (sigma2 - sigma1)
    A_rho_star: float
    system: str


class Verdict(Record):
    claim: str
    target: float
    achieved: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.achieved - self.target) <= self.tolerance


class SweepReport(Record):
    system: str
    records: tuple[SweepRecord, ...]
    verdicts: tuple[Verdict, ...]
    threshold: float | None = None

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _check_schedule(schedule) -> tuple[float, ...]:
    sched = tuple(float(a) for a in schedule)
    if len(sched) < 2:
        raise ValueError(f"a sweep schedule needs at least two values, got {len(sched)}")
    if any(a <= 0.0 for a in sched):
        raise ValueError("schedule values must be positive")
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly decreasing")
    return sched


def _monotone_fraction(values, increasing: bool) -> float:
    """Fraction of consecutive steps moving in the requested direction."""
    steps = list(zip(values, values[1:]))
    good = sum(1 for a, b in steps if (b > a if increasing else b < a))
    return good / len(steps)


def _sweep_records(
    solver, system: str, left: State, right: State, alpha: float, sched
) -> list[SweepRecord]:
    """One record per coupled A = B value of the two-wave solution ``solver``
    returns: sigma1 is the leading edge of the first wave, sigma2 the trailing
    edge of the second."""
    records = []
    for a_val in sched:
        sol = solver(PressureParams(a_val, a_val, alpha, system=system), left, right)
        (sigma1, _), (_, sigma2) = (wave.edges for wave in sol.waves)
        records.append(
            SweepRecord(
                a_val,
                a_val,
                sol.star.rho,
                sol.star.u,
                sigma1,
                sigma2,
                sol.star.rho * (sigma2 - sigma1),
                a_val * sol.star.rho,
                system,
            )
        )
    return records


def _vacuum_verdicts(records: list[SweepRecord], tol_vacuum: float) -> list[Verdict]:
    """Vacuum formation: rho* falls along the schedule and ends below tol_vacuum."""
    rho_star = [r.rho_star for r in records]
    return [
        Verdict(
            "intermediate density decays monotonically",
            1.0,
            _monotone_fraction(rho_star, increasing=False),
            0.0,
        ),
        Verdict("intermediate density vanishes", 0.0, rho_star[-1], tol_vacuum),
    ]


def sweep_original(
    left: State,
    right: State,
    alpha: float,
    schedule,
) -> SweepReport:
    """Vanishing-pressure sweep for the original system.

    For u+ < u- it certifies that the shock and contact speeds coalesce at u+
    while the intermediate density blows up with mass rate rho-*(u- - u+);
    for u+ > u- that the intermediate density vanishes and the fan collapses
    onto the contact at u-.
    """
    sched = _check_schedule(schedule)
    if right.u == left.u:
        return SweepReport("original", (), (Verdict("zero-strength data", 0.0, 0.0, 0.0),))
    from . import original
    records = _sweep_records(original.solve, "original", left, right, alpha, sched)
    last = records[-1]
    verdicts = []
    threshold = None
    def region(a_val: float) -> original.RegionLabel14:
        return original.classify(PressureParams(a_val, a_val, alpha), left, right)

    if region(sched[0]) in (original.RegionLabel14.II, original.RegionLabel14.III):
        threshold = original.threshold_A0(left, right, alpha)
        below, above = region(threshold * (1 - 1e-3)), region(threshold * (1 + 1e-3))
        if right.u < left.u:
            flips = below is original.RegionLabel14.IV and above is original.RegionLabel14.III
        else:
            flips = below is original.RegionLabel14.I and above is original.RegionLabel14.II
        verdicts.append(
            Verdict("region flips across the coupled threshold", 1.0, float(flips), 0.0)
        )
    if right.u < left.u:
        verdicts += [
            Verdict(
                "intermediate density grows monotonically",
                1.0,
                _monotone_fraction([r.rho_star for r in records], increasing=True),
                0.0,
            ),
            Verdict("shock speed reaches downstream velocity", right.u, last.sigma1, 1e-5),
            Verdict("contact speed equals downstream velocity", right.u, last.sigma2, 1e-12),
            Verdict(
                "intermediate velocity equals downstream velocity", right.u, last.u_star, 1e-12
            ),
            Verdict(
                "concentrated mass rate",
                left.rho * (left.u - right.u),
                last.product,
                1e-2,
            ),
        ]
    else:
        verdicts += _vacuum_verdicts(records, 1e-10) + [
            Verdict("fan head reaches upstream velocity", left.u, last.sigma1, 1e-5),
        ]
    return SweepReport("original", tuple(records), tuple(verdicts), threshold)


def sweep_perturbed(
    left: State,
    right: State,
    alpha: float,
    schedule,
) -> SweepReport:
    """Vanishing-pressure sweep for the perturbed system.

    Two-shock data must approach the transport delta shock (intermediate
    velocity -> sigma, A*rho* -> 0, mass rate -> sigma*[rho] - [rho u]);
    two-rarefaction data must develop a vacuum with the outer fan edges
    collapsing onto contacts at u- and u+.
    """
    sched = _check_schedule(schedule)
    if right.u == left.u:
        return SweepReport("perturbed", (), (Verdict("zero-strength data", 0.0, 0.0, 0.0),))
    from . import perturbed
    records = _sweep_records(perturbed.solve_perturbed, "perturbed", left, right, alpha, sched)
    last = records[-1]
    verdicts = []
    if right.u < left.u:
        delta = transport_solve(left, right).delta
        errors = [abs(r.u_star - delta.sigma) for r in records]
        mass_target = _delta_balance(left, right, delta.sigma)[0]
        verdicts += [
            Verdict(
                "intermediate velocity error decays monotonically",
                1.0,
                _monotone_fraction(errors, increasing=False),
                0.0,
            ),
            Verdict("intermediate velocity reaches delta speed", delta.sigma, last.u_star, 5e-2),
            Verdict("pressure-density product vanishes", 0.0, last.A_rho_star, 1e-2),
            Verdict(
                "concentrated mass rate",
                mass_target,
                last.product,
                5e-2 * abs(mass_target),
            ),
        ]
    else:
        verdicts += _vacuum_verdicts(records, 1e-4) + [
            Verdict("backward fan edge reaches upstream velocity", left.u, last.sigma1, 5e-2),
            Verdict("forward fan edge reaches downstream velocity", right.u, last.sigma2, 5e-2),
        ]
    return SweepReport("perturbed", tuple(records), tuple(verdicts))


class DeltaConsistencyRecord(Record):
    """Finite-pressure proxies for the delta weights versus their limits."""

    A: float
    B: float
    mass_proxy: float
    mass_target: float
    momentum_proxy: float
    momentum_target: float

    @property
    def mass_error(self) -> float:
        return abs(self.mass_proxy - self.mass_target)

    @property
    def momentum_error(self) -> float:
        return abs(self.momentum_proxy - self.momentum_target)


def limit_delta_consistency(
    left: State, right: State, alpha: float, A: float, B: float
) -> DeltaConsistencyRecord:
    """Compare the two-shock solution's concentrated mass and momentum rates
    against the transport delta-shock weights.  The solve's own waves decide
    the pattern; two shocks each lower u, so they also give u+ < u-."""
    from . import perturbed
    sol = perturbed.solve_perturbed(PressureParams(A, B, alpha, system="perturbed"), left, right)
    pattern = "".join("S" if isinstance(w, core.Shock) else "R" for w in sol.waves) or "no wave"
    if pattern != "SS":
        raise InapplicableError(f"data is not in the two-shock region (got {pattern})")
    s1, s2 = (w.speed for w in sol.waves)
    mid = 0.5 * (s1 + s2)
    arc = math.hypot(1.0, mid)
    mass_proxy = sol.star.rho * (s2 - s1) / arc
    momentum_proxy = sol.star.rho * sol.star.u * (s2 - s1) / arc
    sigma = transport_solve(left, right).delta.sigma
    arc0 = math.hypot(1.0, sigma)
    mass, momentum = _delta_balance(left, right, sigma)
    mass_target, momentum_target = mass / arc0, momentum / arc0
    return DeltaConsistencyRecord(
        A, B, mass_proxy, mass_target, momentum_proxy, momentum_target
    )
