"""First-order finite-volume (global Lax-Friedrichs) simulator.

Runs either pressured system in conservative form on Riemann initial data.
Accuracy is not the goal: the scheme is used to certify solution structure
(delta concentration and vacuum formation) under simultaneous pressure and
grid refinement.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ORIGINAL, PERTURBED, PressureParams, Record, State, offset

RHO_POSITIVITY_FLOOR = 1e-12
VACUUM_RECOVERY_RHO = 1e-8
MAX_STEPS = 10**8  # simulate refuses a run whose step count estimate exceeds it
# cells a side of simulate's window grows by; a step changes at most one more
_WINDOW_CHUNK = 32


class GridConfig(Record):
    """Uniform grid of n_cells cells on [x_min, x_max], with outflow boundaries;
    n_cells is an integer (Python or numpy) of at least 16."""

    x_min: float
    x_max: float
    n_cells: int
    cfl: float = 0.5
    t_end: float = 0.5

    def __post_init__(self):
        # a float count (20.5, NaN) would build a grid whose dx is not its spacing
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, (int, np.integer)):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")
        if not (0.0 < self.cfl <= 0.9):
            raise ValueError("CFL number must lie in (0, 0.9]")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("end time must be positive and finite")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("domain bounds must be finite")
        if self.x_min >= self.x_max:
            raise ValueError("empty domain")
        if not math.isfinite(self.dx):
            raise ValueError(f"domain width {self.x_max!r} - ({self.x_min!r}) overflows")
        if not (np.diff(self.centers()) > 0.0).all():  # such a run never ends
            raise ValueError(f"cell centres collide: cells too narrow at x = {self.x_min!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


class FieldSnapshot(Record):
    """Cell-averaged conserved fields plus recovered primitives at one time;
    ``floored_cells`` and ``steps`` count floored cell-updates and time steps
    from t = 0.  A snapshot equals only itself: its numpy fields are mutable
    and have no truth value."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    x: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    time: float
    floored_cells: int
    steps: int = 0

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def total_mass(self) -> float:
        return float(np.sum(self.q1) * self.dx)


# ndarray.max and .min reach these through a Python-level wrapper
_largest, _least = np.maximum.reduce, np.minimum.reduce


def _max_speed(
    system: str, params: PressureParams, rho: np.ndarray, u: np.ndarray, ra: np.ndarray,
    ar: np.ndarray, spare: tuple,
) -> float:
    """max |lambda| over the cells, with the bits of ``core.speeds``; ``spare``
    is a pair of scratch rows of u's length."""
    lam, mag = spare
    np.divide(params.B * params.alpha, ra, out=lam)
    if system == ORIGINAL:
        np.subtract(np.subtract(u, ar, out=mag), lam, out=lam)
        # lambda1 <= lambda2 = u in every cell, so max |lambda| is one of these two
        return float(max(_largest(u), -_least(lam)))
    # cells with u < 0 have no real gap; it counts as 0.  gap >= 0 and
    # -(u - gap) == gap - u exactly, so gap + |u| is the larger of lambda2
    # and -lambda1 in every cell, with the same bits
    np.multiply(u, np.add(ar, lam, out=lam), out=lam)
    np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam)
    return float(_largest(np.add(lam, np.absolute(u, out=mag), out=lam)))


def _coefficients(params: PressureParams) -> tuple:
    """A, B, alpha (None at 1/2: a sqrt), 1 - alpha and A/2 as 0-d arrays, which
    a ufunc reads as they are; a Python float it copies into a new array."""
    A, B, alpha = params.A, params.B, params.alpha
    exponent = None if alpha == 0.5 else np.array(alpha)
    return np.array(A), np.array(B), exponent, np.array(1.0 - alpha), np.array(0.5 * A)


def _fields(system: str, coefficients: tuple, rows, q2, f1, f2, vacuum=None) -> None:
    """Write u, rho**alpha, A*rho and P from the density ``rows[0]`` and ``q2``
    into ``rows[1:5]`` (``rows[5:]`` are scratch), then the flux into ``f1``
    and ``f2``: ``core.offset`` and ``core.flux`` as ufunc calls, with their
    bits.  ``vacuum`` = (t, x, mask) gives cells below ``VACUUM_RECOVERY_RHO``
    u = x/t, as exact vacuum fans carry (no 0/0 noise in empty cells)."""
    rho, u, ra, ar, P, s, r = rows
    A, B, alpha, beta, half_A = coefficients
    if alpha is None:  # np.power does not take the sqrt shortcut that ** takes
        np.sqrt(rho, out=ra)
    else:
        np.power(rho, alpha, out=ra)
    np.multiply(A, rho, out=ar)
    np.subtract(ar, np.divide(B, ra, out=s), out=P)
    np.divide(q2, rho, out=u)
    if system == ORIGINAL:
        np.subtract(u, P, out=u)
    else:
        np.divide(B, np.multiply(beta, ra, out=r), out=r)
        np.subtract(u, np.subtract(np.multiply(half_A, rho, out=s), r, out=s), out=u)
    if vacuum is not None:
        t, x, low = vacuum
        np.copyto(u, np.divide(x, t, out=s), where=np.less(rho, VACUUM_RECOVERY_RHO, out=low))
    np.multiply(np.multiply(rho, u, out=f1), np.add(u, P, out=s), out=f2)


def snapshot_schedule(snapshot_times, t_end: float) -> list[float]:
    """The times ``simulate`` stops at: the distinct requested times, then
    ``t_end`` (or the last requested time, when it is within rounding of
    ``t_end``).  A time that is not finite, a negative time, or one after
    ``t_end`` beyond rounding raises ValueError."""
    times = sorted(set(snapshot_times or []))
    if not all(map(math.isfinite, times)):  # NaN would sort anywhere
        raise ValueError("snapshot times must be finite")
    if times and times[0] < 0.0:
        raise ValueError("snapshot times must be nonnegative")
    if times and times[-1] > t_end and not math.isclose(times[-1], t_end):
        raise ValueError(f"snapshot time {times[-1]!r} lies after the end time {t_end!r}")
    if not times or not math.isclose(times[-1], t_end):
        times.append(t_end)
    return times


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def simulate(
    system: str,
    params: PressureParams,
    left: State,
    right: State,
    grid: GridConfig,
    snapshot_times=None,
) -> list[FieldSnapshot]:
    """March Riemann initial data (jump at x = 0) to ``grid.t_end``.

    Returns snapshots at the times of ``snapshot_schedule``: an interval of
    positive length takes at least one step and stops within min(1e-14, a
    quarter of it) of its time.  The global Lax-Friedrichs step updates the
    conserved state (rho, rho*(u + offset)) and its flux in place, in one
    buffer with zeroth-order outflow ghost cells, and writes every array it
    forms, through ufunc ``out=``, into buffers made before the first step.
    Density positivity is enforced by flooring, with the floored cells
    counted on each snapshot.  A wave speed bound that is not positive and
    finite, or a snapshot field that is not finite (an overflowed state),
    raises ValueError; numpy does not warn.  So does a run whose second
    step's bound a_max puts its step count, t_end*a_max/(cfl*dx), above
    ``MAX_STEPS`` (the check waits one step so that an overflow the first
    step makes is reported as such); a step far below the clock's resolution
    would otherwise never end the run.

    A step updates only a window of cells [lo, hi) around the jump, with the
    same bits as stepping every cell: a cell whose neighbours hold its own
    state gets the same face flux on both sides, as every cell outside the
    window does.  A side whose edge cell has changed grows by
    ``_WINDOW_CHUNK`` cells, so the window keeps a cell of each end state
    and its wave speed bound is the grid's.  A near-vacuum end state (below
    ``VACUUM_RECOVERY_RHO``) gives its cells u = x/t, which moves every
    step, so the window is then the whole grid.
    """
    if system not in (ORIGINAL, PERTURBED):
        raise ValueError(f"unknown system tag {system!r}")
    times = snapshot_schedule(snapshot_times, grid.t_end)

    n, dx = grid.n_cells, grid.dx
    x = grid.centers()
    # [q|f], then cell, then component: the state (q1, q2) and the flux
    # (f1, f2) of each cell are adjacent, so each window view below is one
    # contiguous run; cells 0 and n + 1 are the outflow ghosts, which repeat
    # the edge cells (zeroth-order extrapolation)
    w = np.empty((2, n + 2, 2))
    ghosts, edges = w[:, :: n + 1], w[:, 1 : n + 1 : n - 1]
    pairs = w[0].view(np.complex128)[:, 0]  # each cell's (q1, q2) as one number
    faces = np.empty((2, n + 1, 2))  # twice the face fluxes; jumps, then differences
    cells = np.empty((7, n))  # floored rho, u, rho**alpha, A*rho, P, two scratch rows
    below = np.empty(n, dtype=bool)  # cells under the floor or the vacuum density
    coefficients = _coefficients(params)
    speed, factor = np.empty(()), np.empty(())  # a_max and dt/(2 dx), read as coefficients

    def window(lo: int, hi: int):
        """Views of the buffers over cells [lo, hi), their neighbours and faces."""
        q_lo, f_lo = w[:, lo : hi + 1]
        q_hi, f_hi = w[:, lo + 1 : hi + 2]
        F, dq = faces[:, : hi - lo + 1]
        q, f = q_hi[:-1], f_hi[:-1]
        rows = tuple(cells[:, lo:hi])
        return (
            q, q_lo, q_hi, f_lo, f_hi, F, dq, F[:-1], F[1:], dq[:-1], *q.T, *f.T, rows,
            *rows[:4], rows[5:], x[lo:hi], below[lo:hi],
        )

    # set-up over the whole grid: the cells outside the window keep these values
    (q, q_lo, q_hi, f_lo, f_hi, F, dq, F_lo, F_hi, dF, q1, q2, f1, f2, rows, rho, u, ra, ar,
     spare, xs, low) = window(0, n)
    q1[...] = np.where(x < 0.0, left.rho, right.rho)
    q2[...] = q1 * (np.where(x < 0.0, left.u, right.u) + offset(system, params, q1))
    np.maximum(q1, RHO_POSITIVITY_FLOOR, out=rho)
    _fields(system, coefficients, rows, q2, f1, f2)  # no cell takes u = x/t at t = 0
    grid_q1, grid_q2, grid_rho, grid_u = q1, q2, rho, u  # whole-grid views, for the snapshots
    jump = int(np.searchsorted(x, 0.0))
    pad = n if min(left.rho, right.rho) < VACUUM_RECOVERY_RHO else _WINDOW_CHUNK
    lo, hi = max(jump - pad, 0), min(jump + pad, n)
    viewed = 0, n
    budget = MAX_STEPS * grid.cfl * dx / grid.t_end  # a bound past it may need more steps

    snapshots: list[FieldSnapshot] = []
    floored = steps = 0
    t = 0.0
    for t_stop in times:
        # rounding slack, at most a quarter of the interval (half can round to t)
        end = t_stop - min(1e-14, 0.25 * (t_stop - t))
        while t < end:
            # an edge cell of the window that no longer matches its outer
            # neighbour will change that neighbour in this step
            if lo > 0 and pairs[lo] != pairs[lo + 1]:
                lo = max(lo - _WINDOW_CHUNK, 0)
            if hi < n and pairs[hi] != pairs[hi + 1]:
                hi = min(hi + _WINDOW_CHUNK, n)
            if viewed != (lo, hi):
                viewed = lo, hi
                (q, q_lo, q_hi, f_lo, f_hi, F, dq, F_lo, F_hi, dF, q1, q2, f1, f2, rows, rho, u,
                 ra, ar, spare, xs, low) = window(lo, hi)
            a_max = _max_speed(system, params, rho, u, ra, ar, spare)
            if not 0.0 < a_max < budget:  # false for NaN too
                if not 0.0 < a_max < math.inf:
                    raise ValueError(
                        f"wave speed bound {a_max!r} at t = {t!r} after {steps} step(s)"
                    )
                estimate = grid.t_end * a_max / (grid.cfl * dx)
                if steps == 1 and estimate > MAX_STEPS:
                    raise ValueError(
                        f"the run needs about {estimate:.3g} time steps, more than "
                        f"MAX_STEPS = {MAX_STEPS}"
                    )
            steps += 1
            dt = min(grid.cfl * dx / a_max, t_stop - t)
            if lo == 0 or hi == n:  # only then does the window read a ghost
                ghosts[...] = edges
            # F = f_lo + f_hi - a*(q_hi - q_lo) is twice the face flux; the two
            # halves fold into the update's factor, exactly (scaling by 0.5 is)
            speed[()], factor[()] = a_max, 0.5 * (dt / dx)
            np.add(f_lo, f_hi, out=F)
            np.subtract(F, np.multiply(speed, np.subtract(q_hi, q_lo, out=dq), out=dq), out=F)
            np.subtract(F_hi, F_lo, out=dF)
            np.subtract(q, np.multiply(factor, dF, out=dF), out=q)
            rho[...] = q1  # the primitives read the density as a contiguous row
            lowest = _least(rho)
            if not lowest >= RHO_POSITIVITY_FLOOR:
                floored += int(np.count_nonzero(np.less(rho, RHO_POSITIVITY_FLOOR, out=low)))
                q1[...] = np.maximum(rho, RHO_POSITIVITY_FLOOR, out=rho)
            t += dt
            vacuum = None if lowest >= VACUUM_RECOVERY_RHO else (t, xs, low)  # and at NaN
            _fields(system, coefficients, rows, q2, f1, f2, vacuum)
        fields = x.copy(), grid_q1.copy(), grid_q2.copy(), grid_rho.copy(), grid_u.copy()
        if not all(np.isfinite(a).all() for a in fields[1:]):
            raise ValueError(f"fields not finite at t = {t!r} after {steps} step(s)")
        snapshots.append(FieldSnapshot(*fields, t, floored, steps))
    return snapshots


def delta_weight_estimate(
    snapshot: FieldSnapshot, left: State, right: State
) -> float | None:
    """Mass concentrated above the step background within max(20 cells, 5% of
    the domain) of the density peak.

    Returns None when no peak stands out (max < 2x the background), e.g. at
    t = 0 or for non-concentrating data.
    """
    dx = snapshot.dx
    span = float(snapshot.x[-1] - snapshot.x[0]) + dx
    window_half_width = max(20.0 * dx, 0.05 * span)
    i_peak = int(np.argmax(snapshot.rho))
    background = max(left.rho, right.rho)
    if snapshot.rho[i_peak] < 2.0 * background:
        return None
    x_peak = snapshot.x[i_peak]
    mask = np.abs(snapshot.x - x_peak) <= window_half_width
    bg = np.where(snapshot.x < x_peak, left.rho, right.rho)
    return float(np.sum((snapshot.rho - bg)[mask]) * dx)


def l1_error_vs_exact(snapshot: FieldSnapshot, exact_sampler) -> float:
    """L1 distance in (rho, rho*u) between the snapshot and an exact
    self-similar sampler xi -> (u, rho)."""
    if snapshot.time <= 0.0:
        raise ValueError("exact comparison requires t > 0")
    dx = snapshot.dx
    err = 0.0
    # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
    t = snapshot.time
    for xc, rho_n, u_n in zip(snapshot.x.tolist(), snapshot.rho.tolist(), snapshot.u.tolist()):
        u_e, rho_e = exact_sampler(xc / t)
        err += abs(rho_n - rho_e) * dx
        err += abs(rho_n * u_n - rho_e * u_e) * dx
    return err
