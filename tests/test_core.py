"""State types, pressure law and eigenstructure."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from awrlab import (
    Conserved,
    DegenerateDensityError,
    PressureParams,
    State,
    eigenvalues_original,
    eigenvalues_perturbed,
    from_conserved,
    genuine_nonlinearity_original,
    pressure,
    solve,
    solve_perturbed,
    to_conserved,
    transport_solve,
)
from awrlab.core import (
    Contact,
    Fan,
    RiemannSolution,
    Shock,
    flux,
    offset,
    pressure_derivative,
    perturbed_nondegeneracy_gap,
    speeds,
)
from awrlab.fv import FieldSnapshot, GridConfig
from awrlab.original import RiemannSolution14
from awrlab.perturbed import RiemannSolution17
from awrlab.transport import DeltaShock, TransportSolution, Verdict

RNG = np.random.RandomState(20240817)


def random_inputs(n):
    for _ in range(n):
        A = 10.0 ** RNG.uniform(-6, 0)
        B = 10.0 ** RNG.uniform(-6, 0)
        alpha = RNG.uniform(0.05, 0.95)
        u = 10.0 ** RNG.uniform(-2, 1)
        rho = 10.0 ** RNG.uniform(-3, 3)
        yield A, B, alpha, u, rho


class TestValidation:
    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 1.5)
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, -0.5)

    def test_alpha_one_accepted_for_original(self):
        p = PressureParams(0.1, 0.1, 1.0, system="original")
        assert p.alpha == 1.0

    def test_alpha_one_rejected_for_perturbed(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 1.0, system="perturbed")

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(-0.1, 0.1, 0.5)
        with pytest.raises(ValueError):
            PressureParams(0.1, -0.1, 0.5)

    def test_nonpositive_state_rejected(self):
        with pytest.raises(ValueError):
            State(0.0, 1.0)
        with pytest.raises(ValueError):
            State(1.0, 0.0)
        with pytest.raises(ValueError):
            State(-1.0, 1.0)

    def test_unknown_system_tag_rejected(self):
        with pytest.raises(ValueError):
            PressureParams(0.1, 0.1, 0.5, system="isothermal")


class TestPressure:
    def test_pressure_value(self):
        # P(rho) = A*rho - B/rho**alpha at A=2, B=3, alpha=0.5, rho=4
        p = PressureParams(2.0, 3.0, 0.5)
        assert pressure(p, 4.0) == pytest.approx(8.0 - 1.5, abs=1e-15)

    def test_pressure_strictly_increasing_finite_differences(self):
        # derivative A + B*alpha/rho**(1+alpha) > 0, probed at 1e3 points
        h = 1e-7
        for A, B, alpha, _, rho in random_inputs(1000):
            p = PressureParams(A, B, alpha)
            slope = (pressure(p, rho * (1 + h)) - pressure(p, rho * (1 - h))) / (
                2 * h * rho
            )
            assert slope > 0.0
            assert slope == pytest.approx(pressure_derivative(p, rho), rel=1e-5)

    def test_pressure_derivative_positive(self):
        for A, B, alpha, _, rho in random_inputs(1000):
            assert pressure_derivative(PressureParams(A, B, alpha), rho) > 0.0


class TestEigenvalues:
    def test_original_closed_form(self):
        p = PressureParams(0.5, 0.25, 0.5)
        s = State(2.0, 4.0)
        lam = eigenvalues_original(p, s)
        assert lam.lambda1 == pytest.approx(2.0 - 0.5 * 4.0 - 0.25 * 0.5 / 2.0, abs=1e-15)
        assert lam.lambda2 == pytest.approx(2.0, abs=1e-15)

    def test_perturbed_closed_form(self):
        # u = 1, A*rho + B*alpha/rho**alpha = 0.1 + 0.05 => lambda = 1 -+ sqrt(0.15)
        p = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        s = State(1.0, 1.0)
        lam = eigenvalues_perturbed(p, s)
        gap = math.sqrt(0.15)
        assert lam.lambda1 == pytest.approx(1.0 - gap, abs=1e-15)
        assert lam.lambda2 == pytest.approx(1.0 + gap, abs=1e-15)

    def test_ordering_lambda1_below_lambda2_original(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            lam = eigenvalues_original(PressureParams(A, B, alpha), State(u, rho))
            assert lam.lambda1 < lam.lambda2

    def test_ordering_lambda1_below_lambda2_perturbed(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            p = PressureParams(A, B, alpha, system="perturbed")
            lam = eigenvalues_perturbed(p, State(u, rho))
            assert lam.lambda1 < lam.lambda2

    def test_genuine_nonlinearity_negative_everywhere(self):
        for A, B, alpha, u, rho in random_inputs(1000):
            g = genuine_nonlinearity_original(PressureParams(A, B, alpha), State(u, rho))
            assert g < 0.0

    def test_perturbed_nondegeneracy_gap_formula(self):
        # diagnostic quantity; recompute independently and compare
        for A, B, alpha, u, rho in random_inputs(200):
            p = PressureParams(A, B, alpha, system="perturbed")
            g = A * rho + B * alpha / rho**alpha
            lead = 3.0 * A * rho + (B * alpha / rho**alpha) * (2.0 - alpha)
            expect = lead * math.sqrt(u) - g**1.5
            got = perturbed_nondegeneracy_gap(p, State(u, rho))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-300)
            assert math.isfinite(got)


class TestPrecomputedPower:
    """offset, flux and speeds read rho**alpha from ``ra`` when given it;
    the finite-volume step relies on the result being the same bits."""

    @staticmethod
    def written_out(system, p, u, rho):
        """offset, flux and speeds at floats, each forming its own rho**alpha."""
        A, B, a = p.A, p.B, p.alpha
        if system == "original":
            off = A * rho - B / rho**a
            lam = (u - A * rho - B * a / rho**a, u)
        else:
            off = 0.5 * A * rho - B / ((1.0 - a) * rho**a)
            gap = math.sqrt(u * (A * rho + B * a / rho**a))
            lam = (u - gap, u + gap)
        m = rho * u
        return off, m, m * (u + (A * rho - B / rho**a)), *lam

    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_same_bits_as_the_plain_forms(self, system):
        def forms(p, u, rho, **kw):
            # the FV kernel's array sqrt for arrays, math.sqrt for floats
            sqrt = (lambda x: np.sqrt(np.maximum(x, 0.0))) if np.ndim(u) else math.sqrt
            lam = speeds(system, p, u, rho, sqrt, **kw)
            return offset(system, p, rho, **kw), *flux(p, u, rho, **kw), *lam

        def bits(values):
            return [float(v).hex() for v in values]

        rng = np.random.RandomState(8128)
        for _ in range(40):
            A, B = (10.0 ** rng.uniform(-12, 2, size=2)).tolist()
            p = PressureParams(A, B, rng.uniform(0.01, 0.99), system=system)
            u = 10.0 ** rng.uniform(-6, 6, size=64)
            rho = 10.0 ** rng.uniform(-8, 8, size=64)
            ra = rho**p.alpha
            given = forms(p, u, rho, ra=ra)
            assert [g.tobytes() for g in given] == [g.tobytes() for g in forms(p, u, rho)]
            for i in range(64):
                ui, ri = u[i].item(), rho[i].item()
                expect = bits(self.written_out(system, p, ui, ri))
                assert bits(forms(p, ui, ri)) == expect
                assert bits(forms(p, ui, ri, ra=ri**p.alpha)) == expect
                # each array cell is the float form at that cell's power
                assert bits(g[i] for g in given) == bits(forms(p, ui, ri, ra=ra[i].item()))


class TestConversions:
    @pytest.mark.parametrize("system", ["original", "perturbed"])
    def test_round_trip(self, system):
        for A, B, alpha, u, rho in random_inputs(1000):
            if rho < 1e-8:
                continue
            p = PressureParams(A, B, alpha, system=system)
            s = State(u, rho)
            q = to_conserved(system, p, s)
            back = from_conserved(system, p, q)
            assert back.rho == pytest.approx(rho, rel=1e-12)
            assert back.u == pytest.approx(u, rel=1e-12, abs=1e-12 * max(1.0, abs(u)))

    def test_momentum_definitions(self):
        p = PressureParams(0.5, 0.25, 0.5)
        s = State(2.0, 4.0)
        q = to_conserved("original", p, s)
        assert q.q1 == pytest.approx(4.0, abs=1e-15)
        # q2 = rho*(u + A*rho - B/rho**alpha)
        assert q.q2 == pytest.approx(4.0 * (2.0 + 2.0 - 0.125), abs=1e-13)
        pp = PressureParams(0.5, 0.25, 0.5, system="perturbed")
        qq = to_conserved("perturbed", pp, s)
        # q2 = rho*(u + (A/2)*rho - B/((1-alpha)*rho**alpha))
        assert qq.q2 == pytest.approx(4.0 * (2.0 + 1.0 - 0.25), abs=1e-13)

    def test_degenerate_density_raises(self):
        p = PressureParams(0.1, 0.1, 0.5)
        with pytest.raises(DegenerateDensityError):
            from_conserved("original", p, Conserved(0.0, 1.0))


class TestSolutionModel:
    def test_fan_edges_sample_the_adjacent_constant_states(self):
        # the edges come from the eigenvalue formulas while the profile's
        # residual there is rounding noise, so the edges must not reach it
        rng = np.random.RandomState(20240820)
        fans = 0
        for k in range(200):
            system = ("original", "perturbed")[k % 2]
            A, B = 10.0 ** rng.uniform(-4, 0, size=2)
            alpha = rng.uniform(0.1, 0.9)
            u_l, u_r = np.sort(10.0 ** rng.uniform(-0.5, 1.0, size=2))
            rho_l, rho_r = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
            left, right = State(u_l, rho_l), State(u_r, rho_r)
            p = PressureParams(A, B, alpha, system=system)
            sol = (solve if system == "original" else solve_perturbed)(p, left, right)
            states = [left] + [sol.star] * (len(sol.waves) - 1) + [right]
            for i, wave in enumerate(sol.waves):
                if isinstance(wave, Fan):
                    fans += 1
                    assert sol.sample(wave.head) == (states[i].u, states[i].rho)
                    assert sol.sample(wave.tail) == (states[i + 1].u, states[i + 1].rho)
        assert fans >= 250

    def test_forward_fan_tail_is_the_right_state(self):
        p = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        left, right = State(1.0, 1.0), State(2.0, 2.0)
        sol = solve_perturbed(p, left, right)
        assert sol.sample(sol.waves[1].tail) == (right.u, right.rho)
        assert sol.sample(sol.waves[1].head) == (sol.star.u, sol.star.rho)

    def test_transport_solutions_share_the_model(self):
        rng = np.random.RandomState(20240821)
        for k in range(300):
            u_l, u_r = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            if k % 3 == 0:
                u_r = u_l  # contact
            rho_l, rho_r = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            left, right = State(u_l, rho_l), State(u_r, rho_r)
            sol = transport_solve(left, right)
            assert isinstance(sol, RiemannSolution)
            assert sol.params is None and sol.star == left
            edges = {"vacuum": (u_l, u_r), "contact": (u_l, u_l)}.get(sol.kind)
            if sol.kind == "delta":
                edges = (sol.delta.sigma, sol.delta.sigma)
            assert [w.edges for w in sol.waves] == [edges]
            head, tail = edges
            # a fan samples its sides at its edges; a jump samples its
            # upstream state before it and its downstream one on it
            assert sol.sample(math.nextafter(head, -math.inf)) == (u_l, rho_l)
            assert sol.sample(tail) == (u_r, rho_r)
            if head < tail:
                assert sol.sample(head) == (u_l, rho_l)
                assert sol.sample(0.5 * (head + tail)) == (0.5 * (head + tail), 0.0)


class TestRecords:
    """The value types are frozen records: field-wise equality within one
    class, a hash that agrees with it, a repr of the compared fields,
    immutability, defaults, validation and pickling."""

    def test_equal_records_hash_equal(self):
        for a, b, c in [
            (State(1.0, 2.0), State(1.0, 2.0), State(1.0, 3.0)),
            (PressureParams(0.1, 0.2, 0.5), PressureParams(A=0.1, B=0.2, alpha=0.5),
             PressureParams(0.1, 0.2, 0.5, "perturbed")),
            (Shock(1.5), Shock(speed=1.5), Shock(2.5)),
            (Verdict("c", 1.0, 1.0, 0.1), Verdict("c", 1.0, 1.0, 0.1), Verdict("c", 1.0, 2.0, 0.1)),
        ]:
            assert a == b and hash(a) == hash(b) and a is not b
            assert a != c and not a == c
        assert len({State(1.0, 2.0), State(1.0, 2.0), State(2.0, 1.0)}) == 2

    def test_equality_needs_the_same_class(self):
        assert Shock(1.0) != Contact(1.0)
        p = PressureParams(0.1, 0.1, 0.5)
        sol = solve(p, State(2.0, 1.0), State(1.0, 2.0))
        fields = (sol.params, sol.left, sol.star, sol.right, sol.waves)
        assert isinstance(sol, RiemannSolution14)
        assert RiemannSolution14(*fields) == sol
        assert RiemannSolution(*fields) != sol and sol != RiemannSolution(*fields)
        assert State(1.0, 2.0) != (1.0, 2.0)

    def test_table_is_not_compared_hashed_or_shown(self):
        p = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        sol = solve_perturbed(p, State(1.0, 1.0), State(2.0, 2.0))
        assert sol.table is not None
        fields = (sol.params, sol.left, sol.star, sol.right, sol.waves)
        bare = RiemannSolution17(*fields)
        assert bare.table is None and bare == sol and hash(bare) == hash(sol)
        assert "table" not in repr(sol) and repr(bare) == repr(sol)
        assert repr(sol).startswith("RiemannSolution17(params=PressureParams(A=0.1, ")

    def test_repr_shows_fields_in_order_without_edges(self):
        assert repr(State(1.0, 2.0)) == "State(u=1.0, rho=2.0)"
        assert repr(PressureParams(0.1, 0.2, 0.5)) == (
            "PressureParams(A=0.1, B=0.2, alpha=0.5, system='original')"
        )
        assert repr(Shock(1.5)) == "Shock(speed=1.5)"
        assert repr(Contact(2.0)) == "Contact(speed=2.0)"
        fan = Fan(1.0, 2.0, abs)
        assert repr(fan) == f"Fan(head=1.0, tail=2.0, profile={abs!r})"
        assert fan.edges == (1.0, 2.0) and Shock(1.5).edges == (1.5, 1.5)
        assert fan == Fan(1.0, 2.0, abs) and fan != Fan(1.0, 2.0, round)

    def test_assignment_and_deletion_raise(self):
        sol = solve_perturbed(
            PressureParams(0.1, 0.1, 0.5, system="perturbed"), State(1.0, 1.0), State(2.0, 2.0)
        )
        snap = FieldSnapshot(*[np.zeros(16)] * 5, 0.1, 0)
        for record, name in [
            (State(1.0, 2.0), "u"),
            (State(1.0, 2.0), "unknown"),
            (PressureParams(0.1, 0.1, 0.5), "alpha"),
            (Shock(1.0), "edges"),
            (Fan(1.0, 2.0, abs), "head"),
            (sol, "table"),
            (snap, "steps"),
            (GridConfig(-1.0, 1.0, 16), "cfl"),
        ]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(record, name)
        s = State(1.0, 2.0)
        with pytest.raises(AttributeError):
            s.u += 1.0
        assert s == State(1.0, 2.0)

    def test_keyword_construction_and_defaults(self):
        g = GridConfig(x_min=-1.0, x_max=1.0, n_cells=16)
        assert (g.cfl, g.t_end) == (0.5, 0.5)
        assert GridConfig(-1.0, 1.0, 16, 0.25, 0.1) == GridConfig(
            -1.0, 1.0, 16, t_end=0.1, cfl=0.25
        )
        x = np.zeros(16)
        assert FieldSnapshot(x, x, x, x, x, 0.1, 3).steps == 0
        assert FieldSnapshot(x, x, x, x, x, 0.1, 3, 7).steps == 7
        left, right = State(2.0, 1.0), State(1.0, 2.0)
        d = DeltaShock(sigma=1.5, weight_rate=0.5, left=left, right=right)
        assert d.kind == "TRANSPORT"
        t = TransportSolution(None, left, left, right, (Shock(1.5),), "delta")
        assert t.delta is None
        assert TransportSolution(None, left, left, right, (), kind="constant", delta=d).delta is d
        assert PressureParams(A=0.1, B=0.1, alpha=0.5).system == "original"
        with pytest.raises(TypeError):
            State(1.0)
        with pytest.raises(TypeError):
            State(1.0, 2.0, 3.0)
        with pytest.raises(TypeError):
            State(1.0, rho=2.0, v=3.0)
        with pytest.raises(TypeError):
            Shock(1.0, (1.0, 1.0))

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: PressureParams(-0.1, 0.1, 0.5), "A must be finite and >= 0, got -0.1"),
            (lambda: PressureParams(math.inf, 0.1, 0.5), "A must be finite and >= 0, got inf"),
            (lambda: PressureParams(math.nan, 0.1, 0.5), "A must be finite and >= 0, got nan"),
            (lambda: PressureParams(0.1, -0.1, 0.5), "B must be finite and >= 0, got -0.1"),
            (lambda: PressureParams(0.1, math.inf, 0.5), "B must be finite and >= 0, got inf"),
            (lambda: PressureParams(0.1, 0.1, 0.0), "alpha must lie in (0, 1], got 0.0"),
            (lambda: PressureParams(0.1, 0.1, 1.5), "alpha must lie in (0, 1], got 1.5"),
            (lambda: PressureParams(0.1, 0.1, 0.5, "gas"), "unknown system tag 'gas'"),
            (lambda: PressureParams(0.1, 0.1, 1.0, system="perturbed"),
             "the perturbed system is not defined for alpha = 1"),
            (lambda: State(0.0, 1.0), "u must be finite and > 0, got 0.0"),
            (lambda: State(math.inf, 1.0), "u must be finite and > 0, got inf"),
            (lambda: State(1.0, -1.0), "rho must be finite and > 0, got -1.0"),
            (lambda: State(1.0, math.nan), "rho must be finite and > 0, got nan"),
            (lambda: GridConfig(-1.0, 1.0, 20.5), "n_cells must be an integer, got 20.5"),
            (lambda: GridConfig(-1.0, 1.0, True), "n_cells must be an integer, got True"),
            (lambda: GridConfig(-1.0, 1.0, 8), "need at least 16 cells"),
            (lambda: GridConfig(-1.0, 1.0, 16, cfl=0.0), "CFL number must lie in (0, 0.9]"),
            (lambda: GridConfig(-1.0, 1.0, 16, cfl=1.2), "CFL number must lie in (0, 0.9]"),
            (lambda: GridConfig(-1.0, 1.0, 16, t_end=0.0), "end time must be positive and finite"),
            (lambda: GridConfig(-1.0, 1.0, 16, t_end=math.inf),
             "end time must be positive and finite"),
            (lambda: GridConfig(math.nan, 1.0, 16), "domain bounds must be finite"),
            (lambda: GridConfig(1.0, -1.0, 16), "empty domain"),
        ],
    )
    def test_validation_refuses(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize(
        "record",
        [
            State(1.0, 2.0),
            PressureParams(0.1, 0.2, 0.5, system="perturbed"),
            Verdict("speeds coalesce", 0.0, 1e-9, 1e-6),
        ],
        ids=repr,
    )
    def test_pickle_and_copy_round_trip(self, record):
        for twin in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
            with pytest.raises(AttributeError):
                twin.__setattr__(next(iter(vars(record))), 0.5)
        assert pickle.loads(pickle.dumps(Shock(1.5))).edges == (1.5, 1.5)
