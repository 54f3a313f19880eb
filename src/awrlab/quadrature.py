"""Adaptive Gauss-Kronrod quadrature for smooth scalar integrands.

The 21-point Kronrod extension of the 10-point Gauss rule, with the error
scaling of QUADPACK's qk21 (Piessens et al., 1983).  The interval with the
largest error estimate is bisected until the summed estimate meets the
tolerance, or every interval's estimate sits at its roundoff floor; there
is no extrapolation, so integrable endpoint singularities should be removed
by a substitution first.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import mul
from typing import Callable

# Kronrod abscissae on [0, 1): odd positions (1, 3, ..., 9) are the Gauss nodes
_XK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208067625001,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WK_CENTER = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
LIMIT = 200  # most subintervals one integral is split into
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """21-point Kronrod value over [a, b], its QUADPACK error estimate and
    that estimate's roundoff floor, 50*eps*resabs (0 where not applied)."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    f1 = [f(c - h * x) for x in _XK]
    f2 = [f(c + h * x) for x in _XK]
    sums = [p + q for p, q in zip(f1, f2)]
    resk = _WK_CENTER * fc + sum(map(mul, _WK, sums))
    resg = sum(map(mul, _WG, sums[1::2]))
    mean = 0.5 * resk
    resabs = _WK_CENTER * abs(fc) + sum(
        map(mul, _WK, [abs(p) + abs(q) for p, q in zip(f1, f2)])
    )
    resasc = _WK_CENTER * abs(fc - mean) + sum(
        map(mul, _WK, [abs(p - mean) + abs(q - mean) for p, q in zip(f1, f2)])
    )
    h_abs = abs(h)
    resabs *= h_abs
    resasc *= h_abs
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 0.0
    if resabs > _TINY / (50.0 * _EPS):
        floor = 50.0 * _EPS * resabs
        err = max(floor, err)
    return resk * h, err, floor


def quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    epsabs: float,
    epsrel: float,
) -> tuple[float, float]:
    """Integral of ``f`` over [a, b] (signed, so b < a is allowed) and an
    estimate of its absolute error.

    Stops when the error estimate is at most max(epsabs, epsrel*|value|), when
    LIMIT subintervals are in use, when the worst interval can no longer be
    split in floating point, or when every interval's estimate is at its
    roundoff floor: the floors add up under bisection, so no split can lower
    the estimate then (QUADPACK's qagse gives up on roundoff likewise).
    """
    value, err, floor = _qk21(f, a, b)
    heap = [(-err, a, b, value, floor)]
    above = int(err > floor)  # intervals whose estimate exceeds its floor
    while err > max(epsabs, epsrel * abs(value)) and above and len(heap) < LIMIT:
        neg_err, lo, hi, part, part_floor = heap[0]
        mid = 0.5 * (lo + hi)
        if not min(lo, hi) < mid < max(lo, hi):
            break
        v1, e1, fl1 = _qk21(f, lo, mid)
        v2, e2, fl2 = _qk21(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1, fl1))
        heapq.heappush(heap, (-e2, mid, hi, v2, fl2))
        value += v1 + v2 - part
        err += e1 + e2 + neg_err
        above += int(e1 > fl1) + int(e2 > fl2) - int(-neg_err > part_floor)
    if len(heap) > 1:  # re-add the pieces to shed the running sums' rounding
        value = math.fsum(item[3] for item in heap)
        err = math.fsum(-item[0] for item in heap)
    return value, err
