"""Property tests over log-uniform parameters: every input ``PressureParams``
and ``State`` accept either solves, with residuals within tolerance, or
fails with a typed error.  Derandomized, so a run sees the same draws."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from awrlab import PressureParams, State, original
from awrlab.core import DensityUnderflowError, Fan, Shock

JUMP_TOL = 1e-9  # the scaled jump tolerance of perfbench/workloads.py's check_jumps


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp).filter(lambda v: lo <= v <= hi)


# the wide box: A, B over 14 decades, alpha over 6, u over 12 and rho over 16
COEFFICIENT = log_uniform(1e-12, 1e2)
ALPHA = log_uniform(1e-6, 1.0).filter(lambda a: a < 1.0)
STATE = st.builds(State, log_uniform(1e-6, 1e6), log_uniform(1e-8, 1e8))


def term_scale(p: PressureParams, s: State) -> float:
    """Largest term of the conserved momentum of ``s``."""
    return max(s.rho * s.u, p.A * s.rho**2, p.B * s.rho ** (1.0 - p.alpha))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(A=COEFFICIENT, B=COEFFICIENT, alpha=ALPHA, left=STATE, right=STATE)
# a 1-wave that rounds to zero strength, from below and above u-: the contact alone
@example(A=1.0, B=1.0, alpha=0.1, left=State(1.0, 10.0), right=State(1.0 - 2.0**-53, 1.0))
@example(A=1.0, B=1.0, alpha=0.1, left=State(1.0, 10.0), right=State(1.0 + 2.0**-52, 1.0))
# u+ one ulp above u-, rho* below rho-, lambda1 equal at both ends of the fan
@example(
    A=5.901355875881278e-8, B=0.2581434209060571, alpha=8.011738154133798e-4,
    left=State(5.323083816347802e-5, 9.769152078811005e-7),
    right=State(5.3230838163478026e-5, 0.10429582076242405),
)
# a star density below the least positive double
@example(
    A=2.927e-7, B=0.14828, alpha=1.918e-4, left=State(362.32, 63.137),
    right=State(195889.7, 7.359e7),
)
def test_original_wide_box_solves_or_underflows(A, B, alpha, left, right):
    p = PressureParams(A, B, alpha)
    try:
        sol = original.solve(p, left, right)
    except DensityUnderflowError:
        return
    edges = [edge for wave in sol.waves for edge in wave.edges]
    assert edges == sorted(edges)
    for wave in sol.waves:
        if isinstance(wave, Fan):
            assert wave.head < wave.tail
        elif isinstance(wave, Shock):
            r1, r2 = original.rh_residual(p, left, sol.star, wave.speed)
            speed = max(1.0, abs(wave.speed), left.u, sol.star.u)
            assert abs(r1) <= JUMP_TOL * speed * max(1.0, left.rho, sol.star.rho)
            scale = max(1.0, term_scale(p, left), term_scale(p, sol.star))
            assert abs(r2) <= JUMP_TOL * speed * scale
