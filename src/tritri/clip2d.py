"""Clipping of 2D segments against a triangular window.

The window is the tuple of its three side lines, which one function,
``_window``, builds from six corner floats in either order, raising
DegenerateTriangle for an area below ``eps_area``; no code reads the
corners afterwards.  Every point gets a 3-bit region code, one bit per
window side line, set when the point lies strictly outside that line by
more than ``eps_dist``:

    bit value 2 -- outside line AB
    bit value 4 -- outside line AC
    bit value 1 -- outside line BC

The three lines split the plane into 7 regions (code 7 cannot occur).  A
segment is clipped in two steps, codes first, then one parameter clip:

* the codes give the usual outcode shortcuts (Cohen & Sutherland): both
  zero accepts the whole segment, a shared bit rejects it;
* any other segment is cut by the side lines' half-planes one after the
  other (Liang & Barsky, 1984), reusing the signed distances the codes
  were built from.

Points within ``eps_dist`` of a side line code as inside, so a segment
that merely grazes the boundary yields one point rather than none.  One
rule, ``2 * (ab < -eps) | 4 * (ac < -eps) | (bc < -eps)`` of the signed
distances to AB, AC and BC, codes points; ``region_code`` and the clipper
each spell it inline.  The clipper keeps a segment's six distances in
locals and builds no list on the way: the parameter clip walks the three
(start, end) distance pairs, cut points are interpolated in place, and
ends merge by ``math.dist``.
"""

import math

from .core import DEFAULT_TOLERANCE, Tolerance, _scaled
from .errors import DegenerateTriangle

_INF = math.inf
_hypot = math.hypot


# a window: its side lines AB, AC, BC as (l1, l2, l3), l1 * u + l2 * v + l3 >= 0 inside
Window = tuple[tuple[float, float, float], ...]


def _window(au, av, bu, bv, cu, cv, tol: Tolerance) -> Window:
    """``window_lines`` of the corners (au, av), (bu, bv), (cu, cv), as six floats.

    Each side line is written out.  The scaled pass runs at most once:
    ``core._scaled`` gives k = 0 for a corner that is not finite.
    """
    eps_area, s = tol.eps_area, 0.0  # s is 2**k on the scaled pass
    while True:
        area2 = (bu - au) * (cv - av) - (bv - av) * (cu - au)
        if abs(area2) < 2.0 * eps_area:
            raise DegenerateTriangle("2D triangle area below tolerance")
        if area2 < 0.0:
            bu, bv, cu, cv = cu, cv, bu, bv
        l1, l2, l3 = av - bv, bu - au, au * bv - av * bu  # AB, positive on C's side
        ln = -_hypot(l1, l2) if l1 * cu + l2 * cv + l3 < 0.0 else _hypot(l1, l2)
        m1, m2, m3 = av - cv, cu - au, au * cv - av * cu  # AC, positive on B's side
        mn = -_hypot(m1, m2) if m1 * bu + m2 * bv + m3 < 0.0 else _hypot(m1, m2)
        n1, n2, n3 = bv - cv, cu - bu, bu * cv - bv * cu  # BC, positive on A's side
        nn = -_hypot(n1, n2) if n1 * au + n2 * av + n3 < 0.0 else _hypot(n1, n2)
        l3, m3, n3 = l3 / ln, m3 / mn, n3 / nn
        if s:  # a product, not ldexp, so that an offset past the float range is inf
            l3, m3, n3 = l3 * s, m3 * s, n3 * s
            break
        if -_INF < l3 < _INF and -_INF < m3 < _INF and -_INF < n3 < _INF:
            break
        k, ([(au, av), (bu, bv), (cu, cv)],), small = _scaled((((au, av), (bu, bv), (cu, cv)),), tol)
        eps_area, s = small.eps_area, 2.0 ** k
    return (l1 / ln, l2 / ln, l3), (m1 / mn, m2 / mn, m3), (n1 / nn, n2 / nn, n3)


def window_lines(a, b, c, tol: Tolerance) -> Window:
    """The 2D window abc as its three normalized side lines, positive inside.

    The corners may come in either order; the lines come in the order AB,
    AC, BC of the corners taken counter-clockwise from ``a``, and a window
    whose area is below ``tol.eps_area`` raises DegenerateTriangle.  Past
    about 2**511 an offset's products overflow, and the area's may: the
    lines are then those of the corners scaled by 2**-k (``core._scaled``),
    their offsets scaled back.  ``_window`` builds them.
    """
    (au, av), (bu, bv), (cu, cv) = a, b, c
    return _window(au, av, bu, bv, cu, cv, tol)


def region_code(p, window: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """3-bit outside code of a point; on-boundary within eps_dist codes inside."""
    pu, pv, eps = p[0], p[1], tol.eps_dist
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = window
    return (2 * (a1 * pu + a2 * pv + a3 < -eps) | 4 * (b1 * pu + b2 * pv + b3 < -eps)
            | (c1 * pu + c2 * pv + c3 < -eps))


def clip_segment_to_triangle(p, q, window: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[tuple, ...]:
    """Portion of segment pq inside the window triangle: (), (e,) or (e, x), each an exact tuple.

    The signed distances of both endpoints to the three side lines give
    the region codes and the trivial accept/reject answers.  Any other
    segment is clipped by parameter: a side line the segment lies on (both
    endpoints within eps_dist) does not constrain it; every other line
    accepts and rejects with half the boundary tolerance, and cuts at the
    parameter where the unshifted distance is zero, clamped to [0, 1].
    Ends within eps_dist of each other merge into one point, also when p
    and q themselves are that close.
    """
    eps = tol.eps_dist
    (pu, pv), (qu, qv) = p, q
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = window
    p_ab, p_ac, p_bc = a1 * pu + a2 * pv + a3, b1 * pu + b2 * pv + b3, c1 * pu + c2 * pv + c3
    q_ab, q_ac, q_bc = a1 * qu + a2 * qv + a3, b1 * qu + b2 * qv + b3, c1 * qu + c2 * qv + c3
    code_p = 2 * (p_ab < -eps) | 4 * (p_ac < -eps) | (p_bc < -eps)
    code_q = 2 * (q_ab < -eps) | 4 * (q_ac < -eps) | (q_bc < -eps)
    if not (code_p or code_q):
        return ((pu, pv),) if math.dist(p, q) <= eps else ((pu, pv), (qu, qv))
    if code_p & code_q:
        return ()
    half = 0.5 * eps
    lo, hi = 0.0, 1.0
    for da, db in ((p_ab, q_ab), (p_ac, q_ac), (p_bc, q_bc)):
        if abs(da) <= eps and abs(db) <= eps:
            continue
        if da < -half:
            if db < -half:
                return ()
            # entering: t > 0, and t > 1 only when db < 0
            lo = max(lo, min(da / (da - db), 1.0))
        elif db < -half:
            # leaving: t < 1, and t < 0 only when da < 0
            hi = min(hi, max(da / (da - db), 0.0))
    if lo > hi:
        return ()
    e = (pu, pv) if lo == 0.0 else (pu + lo * (qu - pu), pv + lo * (qv - pv))
    x = (qu, qv) if hi == 1.0 else (pu + hi * (qu - pu), pv + hi * (qv - pv))
    if math.dist(e, x) <= eps:
        return (e,)
    return (e, x)
