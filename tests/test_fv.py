"""Finite-volume structure checks: conservation, refinement, concentration."""

import math

import numpy as np
import pytest

from awrlab import (
    GridConfig,
    PressureParams,
    State,
    delta_weight_estimate,
    l1_error_vs_exact,
    simulate,
    solve,
    solve_perturbed,
)
from awrlab import core, fv
from awrlab.core import Contact, Fan, Shock
from awrlab.fv import snapshot_schedule

LEFT = State(2.0, 1.0)
RIGHT = State(1.0, 2.0)


class TestGridConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(-1.0, 1.0, 8)
        with pytest.raises(ValueError):
            GridConfig(-1.0, 1.0, 100, cfl=1.2)
        with pytest.raises(ValueError):
            GridConfig(-1.0, 1.0, 100, t_end=0.0)
        with pytest.raises(ValueError):
            GridConfig(1.0, -1.0, 100)

    @pytest.mark.parametrize(
        ("x_min", "x_max", "t_end"),
        [
            (float("nan"), 1.0, 0.5),
            (-1.0, float("nan"), 0.5),
            (float("-inf"), 1.0, 0.5),
            (-1.0, float("inf"), 0.5),
            (-1.0, 1.0, float("inf")),
        ],
    )
    def test_non_finite_domain_or_end_time_refused(self, x_min, x_max, t_end):
        with pytest.raises(ValueError, match="finite"):
            GridConfig(x_min, x_max, 100, t_end=t_end)

    @pytest.mark.parametrize("n_cells", [20.5, 20.0, float("nan"), True, "20"])
    def test_non_integer_cell_count_refused(self, n_cells):
        # 20.5 once built 21 cells whose spacing was not dx; NaN passed `< 16`
        with pytest.raises(ValueError, match=f"n_cells must be an integer, got {n_cells!r}"):
            GridConfig(-1.0, 1.0, n_cells)

    def test_overflowing_width_refused(self):
        # dx = inf once put every cell centre at inf
        with pytest.raises(ValueError, match=r"domain width 1e\+308 - \(-1e\+308\) overflows"):
            GridConfig(-1e308, 1e308, 16)
        assert GridConfig(-1e307, 1e307, 16).dx == 1.25e306

    def test_colliding_centres_refused(self):
        # 16 cells on [1, 1 + 2**-52] have 2 distinct centres; such a run never ended
        with pytest.raises(ValueError, match="cell centres collide: cells too narrow at x = 1.0"):
            GridConfig(1.0, 1.0 + 2.0**-52, 16)
        assert len(set(GridConfig(1.0, 1.0 + 2.0**-44, 16).centers().tolist())) == 16

    def test_numpy_integer_cell_count_accepted(self):
        assert len(GridConfig(-1.0, 1.0, np.int64(20)).centers()) == 20

    def test_centers(self):
        g = GridConfig(-1.0, 1.0, 100)
        x = g.centers()
        assert len(x) == 100
        assert x[0] == pytest.approx(-1.0 + 0.5 * g.dx)
        assert x[-1] == pytest.approx(1.0 - 0.5 * g.dx)


class TestConservation:
    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_mass_conserved_until_waves_hit_boundary(self, system):
        # this data carries equal mass flux rho*u = 2 on both sides, so the
        # outflow boundary exchange cancels and the raw total is conserved
        p = PressureParams(0.1, 0.1, 0.5, system=system)
        g = GridConfig(-2.0, 3.0, 400, cfl=0.5, t_end=0.4)
        snaps = simulate(system, p, LEFT, RIGHT, g)
        m0 = LEFT.rho * 2.0 + RIGHT.rho * 3.0
        assert snaps[-1].total_mass() == pytest.approx(m0, rel=1e-10)

    def test_momentum_conserved_up_to_boundary_fluxes(self):
        # outflow boundaries exchange momentum at the constant-state flux
        # rate f2(left) - f2(right); the corrected total is conserved
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        g = GridConfig(-2.0, 3.0, 400, cfl=0.5, t_end=0.4)
        last = simulate("original", p, LEFT, RIGHT, g)[-1]
        q2_1 = float(np.sum(last.q2) * last.dx)

        def f2(s):
            pres = p.A * s.rho - p.B / s.rho**p.alpha
            return s.rho * s.u * (s.u + pres)

        def q2_density(s):
            pres = p.A * s.rho - p.B / s.rho**p.alpha
            return s.rho * (s.u + pres)

        q2_0 = q2_density(LEFT) * 2.0 + q2_density(RIGHT) * 3.0
        expected = q2_0 + last.time * (f2(LEFT) - f2(RIGHT))
        assert q2_1 == pytest.approx(expected, rel=1e-10)

    def test_snapshot_times_honored(self):
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        g = GridConfig(-2.0, 3.0, 100, t_end=0.4)
        snaps = simulate("original", p, LEFT, RIGHT, g, snapshot_times=[0.1, 0.25])
        assert [round(s.time, 10) for s in snaps] == [0.1, 0.25, 0.4]

    @pytest.mark.parametrize("late", [0.5, 0.4 + 1e-6])
    def test_snapshot_time_after_the_end_refused(self, late):
        with pytest.raises(ValueError, match=f"snapshot time {late!r} lies after the end time 0.4"):
            snapshot_schedule([0.1, late], 0.4)

    def test_snapshot_time_within_rounding_of_the_end_replaces_it(self):
        for last in (0.4 - 1e-12, 0.4 + 1e-12):
            assert snapshot_schedule([last, 0.1], 0.4) == [0.1, last]
        assert snapshot_schedule(None, 0.4) == [0.4]


def three_power_lax_friedrichs(system, p, left, right, grid, snapshot_times=()):
    """simulate's step written from the formulas, with the offset, the speeds
    and the flux each forming rho**alpha anew, as the step once did, and the
    vacuum recovery and the density floor each written as a mask over every
    cell, and every cell stepped.  Returns, at each of the ascending
    ``snapshot_times`` and then at the end time, the q, rho and u, the
    number of steps, the floored cell count and the number of steps whose
    primitives took the vacuum recovery."""
    A, B, a = p.A, p.B, p.alpha
    floor, vac = fv.RHO_POSITIVITY_FLOOR, fv.VACUUM_RECOVERY_RHO
    counts = {"recovered": 0}

    def off(rho):
        if system == "original":
            return A * rho - B / rho**a
        return 0.5 * A * rho - B / ((1.0 - a) * rho**a)

    def primitives(q, t):
        rho = np.maximum(q[0], floor)
        u = q[1] / rho - off(rho)
        near_vac = rho < vac
        if t > 0.0 and np.any(near_vac):
            counts["recovered"] += 1
            u = np.where(near_vac, x / t, u)
        return rho, u

    x, dx = grid.centers(), grid.dx
    rho = np.where(x < 0.0, left.rho, right.rho)
    u = np.where(x < 0.0, left.u, right.u)
    q = np.array([rho, rho * (u + off(rho))])
    t, steps, floored = 0.0, 0, 0
    rho, u = primitives(q, t)
    stops = []
    for t_stop in (*snapshot_times, grid.t_end):
        while t < t_stop - 1e-14:
            if system == "original":
                lam1, lam2 = u - A * rho - B * a / rho**a, u
            else:
                gap = np.sqrt(np.maximum(u * (A * rho + B * a / rho**a), 0.0))
                lam1, lam2 = u - gap, u + gap
            a_max = float(max(lam2.max(), -lam1.min()))
            dt = min(grid.cfl * dx / a_max, t_stop - t)
            m = rho * u
            f = np.array([m, m * (u + (A * rho - B / rho**a))])
            qe, fe = (np.concatenate((v[:, :1], v, v[:, -1:]), axis=1) for v in (q, f))
            F = 0.5 * (fe[:, :-1] + fe[:, 1:]) - 0.5 * a_max * (qe[:, 1:] - qe[:, :-1])
            q = q - dt / dx * (F[:, 1:] - F[:, :-1])
            low = q[0] < floor
            if np.any(low):
                floored += int(np.sum(low))
                q[0] = np.maximum(q[0], floor)
            t += dt
            steps += 1
            rho, u = primitives(q, t)
        stops.append((q, rho, u, steps, floored, counts["recovered"]))
    return stops


def counted_max_speed(monkeypatch):
    """Patch fv._max_speed, which simulate calls once per step, to record the
    number of cells each call sees."""
    calls = []
    max_speed = fv._max_speed

    def counted(*args):
        calls.append(len(args[2]))
        return max_speed(*args)

    monkeypatch.setattr(fv, "_max_speed", counted)
    return calls


def assert_matches_reference(last, reference):
    q, rho, u, n_steps, floored, _ = reference
    assert (last.steps, last.floored_cells) == (n_steps, floored)
    assert last.q1.tobytes() == q[0].tobytes()
    assert last.q2.tobytes() == q[1].tobytes()
    assert last.rho.tobytes() == rho.tobytes()
    assert last.u.tobytes() == u.tobytes()


NEAR_VACUUM = pytest.mark.parametrize(
    ("left", "right", "floors"),
    [
        (State(1.0, 1e-9), State(2.0, 1e-9), False),  # every cell near vacuum
        (State(1.0, 1e-6), State(3.0, 1.5e-12), False),  # the right cells only
        (State(1.0, 2e-12), State(2.0, 2e-12), True),  # the update floors cells
    ],
    ids=["vacuum", "half-vacuum", "floor"],
)


class TestOnePowerPerStep:
    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_bit_identical_to_three_powers_at_general_alpha(self, system, monkeypatch):
        # numpy forms rho**0.37 with pow
        self.check_three_powers(system, 0.37, monkeypatch)

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_bit_identical_to_three_powers_at_alpha_one_half(self, system, monkeypatch):
        # the step forms rho**0.5 with sqrt, as the reference's rho**a does
        self.check_three_powers(system, 0.5, monkeypatch)

    @staticmethod
    def check_three_powers(system, alpha, monkeypatch):
        p = PressureParams(0.1, 0.1, alpha, system=system)
        g = GridConfig(-2.0, 3.0, 300, cfl=0.5, t_end=1.0)
        calls = counted_max_speed(monkeypatch)
        last = simulate(system, p, LEFT, RIGHT, g)[-1]
        reference = three_power_lax_friedrichs(system, p, LEFT, RIGHT, g)[-1]
        assert reference[3] > 200
        assert len(calls) == reference[3]
        assert reference[4:] == (0, 0)  # clear of both floors
        assert_matches_reference(last, reference)

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @NEAR_VACUUM
    def test_bit_identical_through_vacuum_recovery_and_floor(self, system, left, right, floors):
        # tiny densities force tiny steps, so a short run on a small grid
        p = PressureParams(1e-2, 1e-2, 0.37, system=system)
        g = GridConfig(-1.0, 1.0, 24, cfl=0.5, t_end=0.01)
        last = simulate(system, p, left, right, g)[-1]
        reference = three_power_lax_friedrichs(system, p, left, right, g)[-1]
        steps, floored, recovered = reference[3:]
        assert recovered == steps  # the primitives at every time after 0
        assert (floored > 0) == floors
        assert_matches_reference(last, reference)


class TestActiveWindow:
    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @pytest.mark.parametrize("alpha", [0.37, 0.5])
    @pytest.mark.parametrize(
        ("domain", "n_cells", "snapshot_times", "clamped"),
        [
            ((-2.0, 3.0), 1200, None, False),
            ((-0.1, 0.1), 120, None, True),  # the waves reach both outflow ghosts
            ((-2.0, 3.0), 1200, [0.05, 0.2], False),  # each snapshot has cells outside the window
        ],
        ids=["interior", "narrow", "snapshots"],
    )
    def test_bit_identical_to_stepping_every_cell(
        self, system, alpha, domain, n_cells, snapshot_times, clamped, monkeypatch
    ):
        # at this pressure the 1-wave runs left and the 2-wave right
        p = PressureParams(1.0, 1.0, alpha, system=system)
        g = GridConfig(*domain, n_cells, t_end=0.4)
        sizes = counted_max_speed(monkeypatch)
        snaps = simulate(system, p, LEFT, RIGHT, g, snapshot_times)
        # the window starts inside the grid and never shrinks
        assert len(sizes) == snaps[-1].steps
        assert sizes[0] < n_cells and sizes == sorted(sizes)
        assert (sizes[-1] == n_cells) == clamped
        references = three_power_lax_friedrichs(system, p, LEFT, RIGHT, g, snapshot_times or ())
        assert len(snaps) == len(references)
        for snap, reference in zip(snaps, references):
            assert_matches_reference(snap, reference)

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @NEAR_VACUUM
    def test_near_vacuum_end_state_steps_the_whole_grid(
        self, system, left, right, floors, monkeypatch
    ):
        # every cell below VACUUM_RECOVERY_RHO takes u = x/t, which moves each step
        p = PressureParams(1e-2, 1e-2, 0.37, system=system)
        g = GridConfig(-1.0, 1.0, 100, t_end=0.01)
        sizes = counted_max_speed(monkeypatch)
        last = simulate(system, p, left, right, g)[-1]
        assert sizes == [g.n_cells] * last.steps
        assert_matches_reference(last, three_power_lax_friedrichs(system, p, left, right, g)[-1])


class TestSnapshots:
    FIELDS = ("x", "q1", "q2", "rho", "u")

    def test_snapshots_keep_their_values_and_share_no_memory(self, monkeypatch):
        # the step updates its buffers in place; a snapshot must not see that
        made = []
        snapshot = fv.FieldSnapshot

        def recording(*args):
            snap = snapshot(*args)
            made.append((snap, [getattr(snap, k).tobytes() for k in self.FIELDS]))
            return snap

        monkeypatch.setattr(fv, "FieldSnapshot", recording)
        p = PressureParams(0.1, 0.1, 0.37, system="original")
        g = GridConfig(-2.0, 3.0, 100, t_end=0.4)
        snaps = simulate("original", p, LEFT, RIGHT, g, snapshot_times=[0.1, 0.2])
        assert [s for s, _ in made] == snaps and len(snaps) == 3
        for snap, recorded in made:
            assert [getattr(snap, k).tobytes() for k in self.FIELDS] == recorded
            # copies, not views of the interleaved columns the step writes
            for k in self.FIELDS:
                flags = getattr(snap, k).flags
                assert flags.c_contiguous and flags.owndata
        arrays = [getattr(s, k) for s in snaps for k in self.FIELDS]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("times", [[math.nan], [0.1, math.nan], [math.inf], [-math.inf]])
    def test_snapshot_time_not_finite_refused(self, times):
        # NaN compares false with every time, so it once passed both range checks
        with pytest.raises(ValueError, match="snapshot times must be finite"):
            snapshot_schedule(times, 0.4)
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        with pytest.raises(ValueError, match="snapshot times must be finite"):
            simulate("original", p, LEFT, RIGHT, GridConfig(-1.0, 1.0, 16, t_end=0.4), times)

    def test_snapshots_compare_by_identity(self):
        # array fields have no truth value, so == and hash must not reach them
        x = np.linspace(-1.0, 1.0, 16)
        snap = fv.FieldSnapshot(x, x, x, x, x, 0.1, 0)
        twin = fv.FieldSnapshot(*[x.copy() for _ in self.FIELDS], 0.1, 0)
        assert snap == snap and not snap != snap
        assert snap != twin and not snap == twin
        assert hash(snap) == hash(snap) and len({snap, twin}) == 2

    def test_steps_count_the_time_steps(self, monkeypatch):
        calls = counted_max_speed(monkeypatch)
        p = PressureParams(0.1, 0.1, 0.37, system="perturbed")
        g = GridConfig(-2.0, 3.0, 100, t_end=0.4)
        snaps = simulate("perturbed", p, LEFT, RIGHT, g, snapshot_times=[0.0, 0.1])
        n_steps = len(calls)
        # the steps up to a snapshot are those of a run that ends there
        alone = simulate("perturbed", p, LEFT, RIGHT, GridConfig(-2.0, 3.0, 100, t_end=0.1))
        assert len(calls) - n_steps == alone[-1].steps
        assert [s.steps for s in snaps] == [0, alone[-1].steps, n_steps]
        assert 0 < alone[-1].steps < n_steps


class TestClock:
    """Each interval between stops that is longer than 0 takes a step, and
    stops within min(1e-14, half the interval) of its time; the clock's
    slack of 1e-14 once swallowed an interval shorter than itself."""

    @staticmethod
    def assert_clock(snaps, times):
        assert len(snaps) == len(times)
        asked, steps = 0.0, 0
        for snap, t_stop in zip(snaps, times):
            interval = t_stop - asked
            assert snap.steps > steps if interval > 0.0 else snap.steps == steps
            assert abs(snap.time - t_stop) <= min(1e-14, 0.5 * interval)
            asked, steps = t_stop, snap.steps

    @pytest.mark.parametrize(
        ("t_end", "times"),
        [
            (1e-15, None),
            (0.4, [0.2, 0.2 + 5e-15]),
            # one ulp: t_stop less half of it rounds to 0.2 itself (a tie to even)
            (0.4, [0.2, math.nextafter(0.2, 1.0)]),
        ],
    )
    def test_interval_below_the_slack_takes_a_step(self, t_end, times):
        p = PressureParams(0.1, 0.1, 0.37)
        snaps = simulate("original", p, LEFT, RIGHT, GridConfig(-1.0, 1.0, 16, t_end=t_end), times)
        self.assert_clock(snaps, snapshot_schedule(times, t_end))

    def test_seeded_end_and_snapshot_times(self):
        rng = np.random.RandomState(2828)
        for trial in range(40):
            system = ("original", "perturbed")[trial % 2]
            p = PressureParams(0.1, 0.1, (0.37, 0.5)[trial // 2 % 2], system=system)
            t_end = 10.0 ** rng.uniform(-16.0, 0.0)
            # times anywhere in [0, t_end], and times just after one of them
            times = (t_end * rng.uniform(size=rng.randint(4))).tolist()
            times += [t + 10.0 ** rng.uniform(-16.0, -12.0) for t in times if rng.rand() < 0.5]
            times = [t for t in times if t <= t_end] + [0.0] * rng.randint(2)
            grid = GridConfig(-1.0, 1.0, int(rng.randint(16, 65)), t_end=t_end)
            snaps = simulate(system, p, LEFT, RIGHT, grid, times)
            self.assert_clock(snaps, snapshot_schedule(times, t_end))


class TestWaveSpeedBound:
    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan, math.inf])
    def test_bound_not_positive_and_finite_is_refused(self, bound, monkeypatch):
        # an infinite bound would give dt = 0 and no progress; a NaN one a NaN time
        monkeypatch.setattr(fv, "_max_speed", lambda *args: bound)
        p = PressureParams(0.1, 0.1, 0.5)
        with pytest.raises(ValueError, match=r"wave speed bound .* at t = 0\.0 after 0 step"):
            simulate("original", p, LEFT, RIGHT, GridConfig(-1.0, 1.0, 16, t_end=0.1))

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_overflow_in_the_last_step_is_refused(self, system):
        # the first bound is 1.5, but the flux u*q2 of the left state overflows,
        # so the one step to t_end leaves NaN fields; they once passed silently
        p = PressureParams(1e-310, 1e-310, 0.37, system=system)
        g = GridConfig(-1.0, 1.0, 16, t_end=0.01)
        with pytest.raises(ValueError, match=r"^fields not finite at t = 0\.01 after 1 step\(s\)$"):
            simulate(system, p, State(1.5, 1e308), State(1.0, 1.0), g)


def two_reduction_bound(system, params, rho, u, ra, ar, spare):
    """The wave speed bound as max(lambda2.max(), -lambda1.min()) of core.speeds."""
    lam1, lam2 = core.speeds(system, params, u, rho, lambda x: np.sqrt(np.maximum(x, 0.0)), ra)
    return float(max(lam2.max(), -lam1.min()))


class TestSpeedBoundIdentity:
    """_max_speed takes the perturbed bound as one reduction of gap + |u|."""

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @pytest.mark.parametrize("alpha", [0.37, 0.5])
    def test_same_bits_as_two_reductions(self, system, alpha):
        p = PressureParams(0.1, 0.1, alpha, system=system)
        rng = np.random.RandomState(1717)
        for trial in range(60):
            rho = 10.0 ** rng.uniform(-8, 8, size=48)
            u = rng.choice([-1.0, 1.0], size=48) * 10.0 ** rng.uniform(-6, 6, size=48)
            # +-0.0 cells, whose gap is 0 as is that of every u < 0 cell
            u[rng.randint(48, size=6)] = rng.choice([0.0, -0.0], size=6)
            if trial % 3 == 1:
                u[rng.randint(48)] = math.nan
            elif trial % 3 == 2:  # u <= 0, so every perturbed gap is 0
                u = rng.choice([0.0, -0.0], size=48) if trial % 2 else -np.abs(u)
            ra = np.sqrt(rho) if alpha == 0.5 else rho**alpha
            ar = p.A * rho
            expect = two_reduction_bound(system, p, rho, u, ra, ar, None)
            got = fv._max_speed(system, p, rho, u, ra, ar, (np.empty_like(u), np.empty_like(u)))
            assert got.hex() == expect.hex()
            assert math.isnan(got) == (trial % 3 == 1)
            # the step's form: two scratch rows of a cell block
            rows = tuple(np.empty((7, 48)))
            assert fv._max_speed(system, p, rho, u, ra, ar, rows[5:]).hex() == expect.hex()

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @pytest.mark.parametrize("alpha", [0.37, 0.5])
    def test_overflow_refused_alike(self, system, alpha, monkeypatch):
        # the flux of rho = u = 1e150 overflows, so the second bound is NaN
        p = PressureParams(0.1, 0.1, alpha, system=system)
        g = GridConfig(-1.0, 1.0, 16, t_end=0.1)
        errors = []
        for bound in (fv._max_speed, two_reduction_bound):
            monkeypatch.setattr(fv, "_max_speed", bound)
            with np.errstate(all="ignore"), pytest.raises(ValueError) as raised:
                simulate(system, p, State(1e150, 1e150), State(1.0, 1.0), g)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("wave speed bound nan at t = ")


class CountingNumpy:
    """Stands in for numpy in fv: counts the calls made through it and names
    each elementwise ufunc call made without ``out=``."""

    def __init__(self):
        self.calls, self.without_out = 0, []

    def counted(self, fn, name):
        def call(*args, **kwargs):
            self.calls += 1
            if isinstance(fn, np.ufunc) and "out" not in kwargs:
                self.without_out.append(name)
            return fn(*args, **kwargs)

        return call

    def __getattr__(self, name):
        attr = getattr(np, name)
        return attr if isinstance(attr, type) or not callable(attr) else self.counted(attr, name)


class TestStepCalls:
    """A step makes a fixed number of numpy calls, each writing into a buffer."""

    # ufunc calls and reductions per step; see CHANGES.md
    PER_STEP = {"original": 22, "perturbed": 29}

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @pytest.mark.parametrize("alpha", [0.37, 0.5])
    def test_calls_per_step(self, system, alpha, monkeypatch):
        p = PressureParams(0.1, 0.1, alpha, system=system)
        runs = []
        for t_end in (0.1, 0.3):
            counter = CountingNumpy()
            monkeypatch.setattr(fv, "np", counter)
            for name in ("_largest", "_least"):
                monkeypatch.setattr(fv, name, counter.counted(getattr(fv, name), name))
            snap = simulate(system, p, LEFT, RIGHT, GridConfig(-2.0, 3.0, 300, t_end=t_end))[-1]
            monkeypatch.undo()
            assert snap.floored_cells == 0 and snap.rho.min() > fv.VACUUM_RECOVERY_RHO
            runs.append((snap.steps, counter.calls, counter.without_out))
        (steps, calls, without_out), (more_steps, more_calls, more_without_out) = runs
        assert more_steps > steps
        # set-up and one snapshot each: the difference is the extra steps alone
        assert more_calls - calls == self.PER_STEP[system] * (more_steps - steps)
        assert more_without_out == without_out


class TestFieldsSpelling:
    """fv._fields spells core.offset and core.flux as ufunc calls into rows."""

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    @pytest.mark.parametrize("alpha", [0.37, 0.5])  # 0.5: rho**alpha is a sqrt
    def test_same_bits_as_core(self, system, alpha):
        rng = np.random.RandomState(2718)
        for _ in range(40):
            A, B = (10.0 ** rng.uniform(-12, 2, size=2)).tolist()
            p = PressureParams(A, B, alpha, system=system)
            rho = 10.0 ** rng.uniform(-12, 8, size=64)
            q2 = rng.choice([-1.0, 1.0], size=64) * 10.0 ** rng.uniform(-12, 8, size=64)
            # the step's layout: a block of cell rows, and flux columns of a cell-major buffer
            cells, f = np.full((7, 64), np.nan), np.full((64, 2), np.nan)
            cells[0] = rho
            fv._fields(system, fv._coefficients(p), tuple(cells), q2, *f.T)
            u = q2 / rho - core.offset(system, p, rho)
            expect = [u, rho**alpha, A * rho, core.offset("original", p, rho)]
            assert [row.tobytes() for row in cells[1:5]] == [e.tobytes() for e in expect]
            assert [c.tobytes() for c in f.T] == [e.tobytes() for e in core.flux(p, u, rho)]

    def test_vacuum_recovery_sets_u_where_the_density_is_below_it(self):
        p = PressureParams(0.1, 0.1, 0.37, system="perturbed")
        rho = np.array([1e-9, 1.0, 1e-12, 2.0])
        x, low = np.linspace(-1.0, 1.0, 4), np.empty(4, dtype=bool)
        cells, f = np.empty((7, 4)), np.empty((4, 2))
        cells[0] = rho
        fv._fields("perturbed", fv._coefficients(p), tuple(cells), rho, *f.T, (0.3, x, low))
        u = np.where(rho < fv.VACUUM_RECOVERY_RHO, x / 0.3, 1.0 - core.offset("perturbed", p, rho))
        assert cells[1].tobytes() == u.tobytes()
        assert [c.tobytes() for c in f.T] == [e.tobytes() for e in core.flux(p, u, rho)]


class TestL1Error:
    @staticmethod
    def numpy_scalar_l1(snap, sampler):
        err = 0.0
        for xc, rho_n, u_n in zip(snap.x, snap.rho, snap.u):
            u_e, rho_e = sampler(xc / snap.time)
            err += abs(rho_n - rho_e) * snap.dx
            err += abs(rho_n * u_n - rho_e * u_e) * snap.dx
        return err

    @pytest.mark.parametrize(
        ("system", "left", "right", "A"),
        [
            ("original", State(1.0, 2.0), State(2.0, 1.0), 0.1),  # fan and contact
            ("perturbed", LEFT, RIGHT, 1e-2),  # two shocks
        ],
    )
    def test_equals_a_numpy_scalar_loop(self, system, left, right, A):
        p = PressureParams(A, A, 0.37, system=system)
        snap = simulate(system, p, left, right, GridConfig(-2.0, 3.0, 300, t_end=0.4))[-1]
        exact = (solve if system == "original" else solve_perturbed)(p, left, right)
        kinds = [type(w) for w in exact.waves]
        assert kinds == ([Fan, Contact] if system == "original" else [Shock, Shock])
        err = l1_error_vs_exact(snap, exact.sample)
        assert err.hex() == float(self.numpy_scalar_l1(snap, exact.sample)).hex()


class TestRefinement:
    def test_l1_error_decreases_shock_contact_case(self):
        # strong pressure keeps the intermediate plateau wide enough to
        # resolve at N=200, so refinement is already monotone there
        p = PressureParams(1.0, 1.0, 0.5, system="original")
        exact = solve(p, LEFT, RIGHT)
        errs = []
        for n in (200, 800):
            g = GridConfig(-2.0, 3.0, n, cfl=0.5, t_end=0.4)
            snap = simulate("original", p, LEFT, RIGHT, g)[-1]
            errs.append(l1_error_vs_exact(snap, exact.sample))
        assert errs[1] < errs[0]

    def test_l1_error_decreases_rarefaction_contact_case(self):
        left, right = State(1.0, 2.0), State(2.0, 1.0)
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        exact = solve(p, left, right)
        errs = []
        for n in (200, 800):
            g = GridConfig(-2.0, 3.0, n, cfl=0.5, t_end=0.4)
            snap = simulate("original", p, left, right, g)[-1]
            errs.append(l1_error_vs_exact(snap, exact.sample))
        assert errs[1] < errs[0]

    def test_l1_error_decreases_two_shock_perturbed_case(self):
        p = PressureParams(1e-2, 1e-2, 0.5, system="perturbed")
        exact = solve_perturbed(p, LEFT, RIGHT)
        errs = []
        for n in (200, 800):
            g = GridConfig(-2.0, 3.0, n, cfl=0.5, t_end=0.4)
            snap = simulate("perturbed", p, LEFT, RIGHT, g)[-1]
            errs.append(l1_error_vs_exact(snap, exact.sample))
        assert errs[1] < errs[0]


class TestDeltaConcentration:
    def test_peak_grows_under_joint_refinement(self):
        fine = simulate(
            "perturbed",
            PressureParams(1e-4, 1e-4, 0.5, system="perturbed"),
            LEFT,
            RIGHT,
            GridConfig(-1.0, 1.5, 3200, cfl=0.5, t_end=0.5),
        )[-1]
        coarse = simulate(
            "perturbed",
            PressureParams(1e-3, 1e-3, 0.5, system="perturbed"),
            LEFT,
            RIGHT,
            GridConfig(-1.0, 1.5, 800, cfl=0.5, t_end=0.5),
        )[-1]
        assert float(fine.rho.max()) > 2.0 * float(coarse.rho.max())

    def test_weight_estimate_none_without_peak(self):
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        g = GridConfig(-2.0, 3.0, 100, t_end=0.1)
        snap = simulate("original", p, State(1.0, 2.0), State(2.0, 1.0), g)[-1]
        assert delta_weight_estimate(snap, State(1.0, 2.0), State(2.0, 1.0)) is None

    def test_exact_comparison_requires_positive_time(self):
        p = PressureParams(0.1, 0.1, 0.5, system="original")
        g = GridConfig(-2.0, 3.0, 100, t_end=0.1)
        snap = simulate("original", p, LEFT, RIGHT, g)[-1]
        bad = type(snap)(
            snap.x, snap.q1, snap.q2, snap.rho, snap.u, 0.0, snap.floored_cells
        )
        with pytest.raises(ValueError):
            l1_error_vs_exact(bad, solve(p, LEFT, RIGHT).sample)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            simulate(
                "transport",
                PressureParams(0.1, 0.1, 0.5),
                LEFT,
                RIGHT,
                GridConfig(-1.0, 1.0, 100),
            )
