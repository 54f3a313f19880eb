"""First-order finite-volume (global Lax-Friedrichs) simulator.

Runs either pressured system in conservative form on Riemann initial data.
Accuracy is not the goal: the scheme is used to certify solution structure
(delta concentration and vacuum formation) under simultaneous pressure and
grid refinement.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ORIGINAL, PERTURBED, PressureParams, Record, State, flux, offset, speed_gap, speeds,
)

RHO_POSITIVITY_FLOOR = 1e-12
VACUUM_RECOVERY_RHO = 1e-8
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


def _real_sqrt(x):
    # cells with u < 0 have no real perturbed speed gap; it counts as 0
    return np.sqrt(np.maximum(x, 0.0))


def _max_speed(
    system: str, params: PressureParams, rho: np.ndarray, u: np.ndarray, ra: np.ndarray,
    ar: np.ndarray, spare: np.ndarray,
) -> float:
    """max |lambda| over the cells; ``spare`` is a scratch row of u's length."""
    if system == ORIGINAL:
        lam1, lam2 = speeds(system, params, u, rho, ra=ra, ar=ar)
        # lambda1 <= lambda2 in every cell, so max |lambda| is one of these two
        return float(max(_largest(lam2), -_least(lam1)))
    # gap >= 0 and -(u - gap) == gap - u exactly, so gap + |u| is the larger
    # of lambda2 and -lambda1 in every cell, with the same bits
    gap = speed_gap(params, u, ra, ar, _real_sqrt)
    return float(_largest(np.add(gap, np.absolute(u, out=spare), out=gap)))


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


def simulate(
    system: str,
    params: PressureParams,
    left: State,
    right: State,
    grid: GridConfig,
    snapshot_times=None,
) -> list[FieldSnapshot]:
    """March Riemann initial data (jump at x = 0) to ``grid.t_end``.

    Returns snapshots at the times of ``snapshot_schedule`` (the end time is
    always included; a requested time after it raises ValueError).  The
    conserved state (rho, rho * (u + offset)) and its flux live in one
    ghost-padded, cell-major buffer allocated before the first step: [q|f],
    then cell, then component, so that each window view is contiguous.  The
    global Lax-Friedrichs step updates it in place, with zeroth-order
    outflow ghost cells.  Density positivity is enforced by flooring, with
    the number of floored cells flagged on each snapshot.  A wave speed bound that is not
    positive and finite (an overflowed state) raises ValueError.

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
    faces = np.empty((2, n + 1, 2))  # face fluxes; jumps, then flux differences
    cells = np.empty((5, n))  # u, rho**alpha, A*rho, B/rho**alpha, scratch
    A, B, alpha = params.A, params.B, params.alpha

    def window(lo: int, hi: int):
        """Views of the buffers over cells [lo, hi), the cells either side and
        the faces between them."""
        q_lo, f_lo = w[:, lo : hi + 1]
        q_hi, f_hi = w[:, lo + 1 : hi + 2]
        F, dq = faces[:, : hi - lo + 1]
        q, f = q_hi[:-1], f_hi[:-1]
        return (
            q, q_lo, q_hi, f_lo, f_hi, F, dq, F[:-1], F[1:], dq[:-1], *q.T, *f.T,
            *cells[:, lo:hi], x[lo:hi],
        )

    def primitives(rho, t: float, lowest: float):
        """Recover u at the floored density ``rho``, forming rho**alpha, A*rho,
        B/rho**alpha and the pressure once; returns the pressure.  ``lowest``
        is the least density before flooring."""
        if alpha == 0.5:  # np.power does not take the sqrt shortcut that ** takes
            np.sqrt(rho, out=ra)
        else:
            np.power(rho, alpha, out=ra)
        np.multiply(A, rho, out=ar)
        np.divide(B, ra, out=bra)
        P = offset(ORIGINAL, params, rho, ra, ar, bra)
        np.divide(q2, rho, out=u)
        np.subtract(u, P if system == ORIGINAL else offset(system, params, rho, ra), out=u)
        if not lowest >= VACUUM_RECOVERY_RHO:  # true for NaN too
            # exact vacuum fans carry u = x/t; avoids 0/0 noise in empty cells
            np.copyto(u, xs / t, where=rho < VACUUM_RECOVERY_RHO)
        return P

    # set-up over the whole grid: the cells outside the window keep these values
    (q, q_lo, q_hi, f_lo, f_hi, F, dq, F_lo, F_hi, dF, q1, q2, f1, f2, u, ra, ar, bra, spare,
     xs) = window(0, n)
    rho = np.where(x < 0.0, left.rho, right.rho)
    q1[...] = rho
    q2[...] = rho * (np.where(x < 0.0, left.u, right.u) + offset(system, params, rho))
    rho = np.maximum(q1, RHO_POSITIVITY_FLOOR)
    # no cell takes u = x/t at t = 0
    f1[...], f2[...] = flux(params, u, rho, P=primitives(rho, 0.0, math.inf))
    grid_q1, grid_q2, grid_u = q1, q2, u  # whole-grid views, for the snapshots
    jump = int(np.searchsorted(x, 0.0))
    pad = n if min(left.rho, right.rho) < VACUUM_RECOVERY_RHO else _WINDOW_CHUNK
    lo, hi = max(jump - pad, 0), min(jump + pad, n)
    viewed = 0, n

    snapshots: list[FieldSnapshot] = []
    floored = steps = 0
    t = 0.0
    for t_stop in times:
        while t < t_stop - 1e-14:
            # an edge cell of the window that no longer matches its outer
            # neighbour will change that neighbour in this step
            if lo > 0 and pairs[lo] != pairs[lo + 1]:
                lo = max(lo - _WINDOW_CHUNK, 0)
            if hi < n and pairs[hi] != pairs[hi + 1]:
                hi = min(hi + _WINDOW_CHUNK, n)
            if viewed != (lo, hi):
                viewed = lo, hi
                (q, q_lo, q_hi, f_lo, f_hi, F, dq, F_lo, F_hi, dF, q1, q2, f1, f2, u, ra, ar,
                 bra, spare, xs) = window(lo, hi)
                # before the first step too: a window inside the grid means no
                # end state below the floor, so q1 is already the floored density
                rho = q1
            a_max = _max_speed(system, params, rho, u, ra, ar, spare)
            if not 0.0 < a_max < math.inf:  # false for NaN too
                raise ValueError(f"wave speed bound {a_max!r} at t = {t!r} after {steps} step(s)")
            steps += 1
            dt = min(grid.cfl * dx / a_max, t_stop - t)
            if lo == 0 or hi == n:  # only then does the window read a ghost
                ghosts[...] = edges
            np.add(f_lo, f_hi, out=F)
            np.multiply(0.5, F, out=F)
            np.subtract(q_hi, q_lo, out=dq)
            np.multiply(0.5 * a_max, dq, out=dq)
            np.subtract(F, dq, out=F)
            np.subtract(F_hi, F_lo, out=dF)
            np.multiply(dt / dx, dF, out=dF)
            np.subtract(q, dF, out=q)
            lowest = _least(q1)
            if not lowest >= RHO_POSITIVITY_FLOOR:
                floored += int(np.count_nonzero(q1 < RHO_POSITIVITY_FLOOR))
                np.maximum(q1, RHO_POSITIVITY_FLOOR, out=q1)
            t += dt
            rho = q1  # floored in place, so the density is q1 itself
            f1[...], f2[...] = flux(params, u, rho, P=primitives(rho, t, lowest))
        snapshots.append(
            FieldSnapshot(
                x.copy(), grid_q1.copy(), grid_q2.copy(),
                np.maximum(grid_q1, RHO_POSITIVITY_FLOOR), grid_u.copy(), t, floored, steps,
            )
        )
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
