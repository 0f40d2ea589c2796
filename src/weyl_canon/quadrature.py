"""Adaptive Gauss-Kronrod quadrature on a finite interval.

One routine, ``integrate``, serves every integral of the package: the
measure masses, the integrability probe near 0, the piece node E
(``Piece.integral``, where E has no antiderivative whose difference is
within this routine's tolerance), and, one piece at a time through
``Problem.integrate``, tau's imaginary parts and ``propagation._gram``
(the kernel Gram matrix and the quadrature norm) on the pieces where
their forms do not already give them.  Each interval gets the
21-point Kronrod rule with its embedded 10-point Gauss rule, and the
error estimate of QUADPACK's QK21 (Piessens, de Doncker-Kapenga,
Ueberhuber, Kahaner, *QUADPACK*, Springer 1983): the Gauss-Kronrod
difference, sharpened by the integrand's spread over the interval and
floored at the rounding level 50 eps int |f|.  The interval whose error
lies furthest above that floor is bisected until the summed error meets
the tolerance.
Complex integrands are handled alike, with moduli in place of absolute
values, and array-valued ones (the Gram matrix) with every size taken
in the max norm over the components, so that one subdivision serves
all of them.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from operator import mul, sub

import numpy as np

from .errors import IntegrationFailureError

__all__ = ["integrate"]

# Kronrod abscissae on [0, 1) in decreasing order, with 0 last; the odd
# positions (1, 3, ..., 9) are the nodes of the 10-point Gauss rule.
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
    0.0,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980702966,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
#: Highest polynomial degree the 21-point Kronrod rule integrates exactly.
KRONROD_DEGREE = 31

# All 21 nodes on (-1, 1) with their Kronrod weights, and the Gauss
# weights on the same nodes (0 at the Kronrod-only ones).
_NODES = tuple(-x for x in _XK[:10]) + _XK
_WK21 = _WK[:10] + _WK
_WG21 = 2 * tuple(0.0 if j % 2 == 0 else _WG[j // 2] for j in range(10)) + (0.0,)

# The same weights as arrays, rows (Kronrod, Gauss), for array integrands.
_WEIGHTS = np.array([_WK21, _WG21])

_EPS = 2.220446049250313e-16


def _size(v):
    """|v| for a number, the max norm over the components of an array."""
    return float(np.max(np.abs(v))) if isinstance(v, np.ndarray) else abs(v)


def _kronrod21(f, a, b):
    """(value, error, rounding floor) of f on (a, b) by the 21-point rule."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = [f(centre + half * t) for t in _NODES]
    if isinstance(values[0], np.ndarray):
        stacked = np.stack(values)
        resk, resg = np.tensordot(_WEIGHTS, stacked, 1)
        resabs = _size(np.tensordot(_WEIGHTS[0], np.abs(stacked), 1))
        resasc = _size(np.tensordot(_WEIGHTS[0], np.abs(stacked - 0.5 * resk), 1))
    else:
        resk = sum(map(mul, _WK21, values))
        resg = sum(map(mul, _WG21, values))
        resabs = _size(sum(map(mul, _WK21, map(abs, values))))
        resasc = _size(sum(map(mul, _WK21, map(abs, map(sub, values, repeat(0.5 * resk))))))
    h = abs(half)
    err = _size(resk - resg) * h
    resasc *= h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs * h
    return resk * half, max(err, floor), floor


def integrate(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50, *,
              strict=True):
    """(value, abserr) of the integral of f over (a, b); f returns real or
    complex numbers, or arrays of them.

    f is never evaluated at a or b, so integrable endpoint singularities
    are fine.  The interval whose error lies furthest above its rounding
    floor is bisected until abserr <= max(epsabs, epsrel |value|), or
    until every interval's error is at its floor, where more bisection
    cannot help.  Raises ``IntegrationFailureError`` when f is not finite
    at a node, and when ``limit`` intervals are in use and the error is
    still above the tolerance; with ``strict=False`` the estimate at the
    limit is returned instead, for callers that judge it themselves.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    value, err, floor = _kronrod21(f, a, b)
    # ordered by the error above the rounding floor, largest first
    heap = [(floor - err, a, b, value, err, floor)]
    total, total_err = value, err
    while True:
        if not math.isfinite(total_err):
            raise IntegrationFailureError(
                f"the integrand is not finite on ({a}, {b})")
        if total_err <= max(epsabs, epsrel * _size(total)) or heap[0][0] >= 0.0:
            break              # converged, or every error is at its floor
        if len(heap) >= limit:
            if not strict:
                break
            raise IntegrationFailureError(
                f"quadrature on ({a}, {b}) reached {limit} intervals with "
                f"error estimate {total_err:.3g} above the tolerance "
                f"max({epsabs:.3g}, {epsrel:.3g} * {_size(total):.6g})")
        _, lo, hi, v, e, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        total -= v
        total_err -= e
        for part in ((lo, mid), (mid, hi)):
            pv, pe, pf = _kronrod21(f, *part)
            heapq.heappush(heap, (pf - pe, *part, pv, pe, pf))
            total += pv
            total_err += pe
    # resum from left to right: the running totals drift by rounding
    heap.sort(key=lambda s: s[1])
    return sum(s[3] for s in heap), math.fsum(s[4] for s in heap)
