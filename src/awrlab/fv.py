"""First-order finite-volume (global Lax-Friedrichs) simulator.

Runs either pressured system in conservative form on Riemann initial data.
Accuracy is not the goal: the scheme is used to certify solution structure
(delta concentration and vacuum formation) under simultaneous pressure and
grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ORIGINAL, PERTURBED, PressureParams, State, flux, offset, speeds

RHO_POSITIVITY_FLOOR = 1e-12
VACUUM_RECOVERY_RHO = 1e-8


@dataclass(frozen=True)
class GridConfig:
    x_min: float
    x_max: float
    n_cells: int
    cfl: float = 0.5
    t_end: float = 0.5
    boundary: str = "outflow"

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValueError("need at least 16 cells")
        if not (0.0 < self.cfl <= 0.9):
            raise ValueError("CFL number must lie in (0, 0.9]")
        if not self.t_end > 0.0:
            raise ValueError("end time must be positive")
        if self.x_min >= self.x_max:
            raise ValueError("empty domain")
        if self.boundary != "outflow":
            raise ValueError("only outflow boundaries are supported")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class FieldSnapshot:
    """Cell-averaged conserved fields plus recovered primitives at one time."""

    x: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    time: float
    floored_cells: int

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def total_mass(self) -> float:
        return float(np.sum(self.q1) * self.dx)


def _primitives(
    system: str,
    params: PressureParams,
    q1: np.ndarray,
    q2: np.ndarray,
    x: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    rho = np.maximum(q1, RHO_POSITIVITY_FLOOR)
    u = q2 / rho - offset(system, params, rho)
    near_vac = rho < VACUUM_RECOVERY_RHO
    if t > 0.0 and np.any(near_vac):
        # exact vacuum fans carry u = x/t; avoids 0/0 noise in empty cells
        u = np.where(near_vac, x / t, u)
    return rho, u


def _max_speed(
    system: str, params: PressureParams, rho: np.ndarray, u: np.ndarray
) -> float:
    # cells with u < 0 have no real perturbed speed gap; it counts as 0
    lam1, lam2 = speeds(system, params, u, rho, sqrt=lambda x: np.sqrt(np.maximum(x, 0.0)))
    # lambda1 <= lambda2 in every cell, so max |lambda| is one of these two
    return float(max(lam2.max(), -lam1.min()))


def simulate(
    system: str,
    params: PressureParams,
    left: State,
    right: State,
    grid: GridConfig,
    snapshot_times=None,
) -> list[FieldSnapshot]:
    """March Riemann initial data (jump at x = 0) to ``grid.t_end``.

    Returns snapshots at the requested times (the end time is always
    included).  Density positivity is enforced by flooring, with the number
    of floored cells flagged on each snapshot.
    """
    if system not in (ORIGINAL, PERTURBED):
        raise ValueError(f"unknown system tag {system!r}")
    times = sorted(set(snapshot_times or [])) if snapshot_times else []
    if not times or not math.isclose(times[-1], grid.t_end):
        times = [t for t in times if t < grid.t_end] + [grid.t_end]
    if times[0] < 0.0:
        raise ValueError("snapshot times must be nonnegative")

    x = grid.centers()
    dx = grid.dx
    rho = np.where(x < 0.0, left.rho, right.rho)
    u = np.where(x < 0.0, left.u, right.u)
    q1 = rho.copy()
    q2 = rho * (u + offset(system, params, rho))

    snapshots: list[FieldSnapshot] = []
    floored = 0
    t = 0.0
    for t_stop in times:
        while t < t_stop - 1e-14:
            rho, u = _primitives(system, params, q1, q2, x, t)
            a_max = _max_speed(system, params, rho, u)
            if a_max <= 0.0:
                raise RuntimeError("non-positive wave speed bound; cannot advance")
            dt = min(grid.cfl * dx / a_max, t_stop - t)
            if dt * a_max / dx > grid.cfl + 1e-12:
                raise RuntimeError("CFL violation detected; aborting")
            f1, f2 = flux(params, u, rho)
            # outflow ghosts: zeroth-order extrapolation
            q1e = np.concatenate(([q1[0]], q1, [q1[-1]]))
            q2e = np.concatenate(([q2[0]], q2, [q2[-1]]))
            f1e = np.concatenate(([f1[0]], f1, [f1[-1]]))
            f2e = np.concatenate(([f2[0]], f2, [f2[-1]]))
            F1 = 0.5 * (f1e[:-1] + f1e[1:]) - 0.5 * a_max * (q1e[1:] - q1e[:-1])
            F2 = 0.5 * (f2e[:-1] + f2e[1:]) - 0.5 * a_max * (q2e[1:] - q2e[:-1])
            q1 = q1 - dt / dx * (F1[1:] - F1[:-1])
            q2 = q2 - dt / dx * (F2[1:] - F2[:-1])
            low = q1 < RHO_POSITIVITY_FLOOR
            if np.any(low):
                floored += int(np.sum(low))
                q1 = np.maximum(q1, RHO_POSITIVITY_FLOOR)
            t += dt
        rho, u = _primitives(system, params, q1, q2, x, t)
        snapshots.append(
            FieldSnapshot(x.copy(), q1.copy(), q2.copy(), rho, u, t, floored)
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
    for xc, rho_n, u_n in zip(snapshot.x, snapshot.rho, snapshot.u):
        u_e, rho_e = exact_sampler(xc / snapshot.time)
        err += abs(rho_n - rho_e) * dx
        err += abs(rho_n * u_n - rho_e * u_e) * dx
    return err
