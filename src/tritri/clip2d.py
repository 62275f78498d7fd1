"""Clipping of 2D segments against a triangular window.

The window is the tuple of its three side lines, which ``window_lines``
builds from its corners; no code reads the corners afterwards.  Every
point gets a 3-bit region code, one bit per window side line, set
when the point lies strictly outside that line by more than ``eps_dist``:

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
rule, ``_code``, codes points for ``region_code`` and the clipper alike,
from three signed distances.  The clipper keeps a segment's six distances
in locals and builds no list on the way: the parameter clip walks the
three (start, end) distance pairs, cut points are interpolated in place,
and ends merge by ``math.dist``.
"""

import math
from typing import NamedTuple

from .core import DEFAULT_TOLERANCE, Tolerance
from .errors import DegenerateTriangle


class Point2(NamedTuple):
    u: float
    v: float


# a window: its side lines AB, AC, BC as (l1, l2, l3), l1 * u + l2 * v + l3 >= 0 inside
Window = tuple[tuple[float, float, float], ...]


def _clockwise(au, av, bu, bv, cu, cv, eps_area: float) -> bool:
    """Whether the 2D triangle abc turns clockwise.

    Raises DegenerateTriangle when the area is below ``eps_area``.
    """
    area2 = (bu - au) * (cv - av) - (bv - av) * (cu - au)
    if abs(area2) < 2.0 * eps_area:
        raise DegenerateTriangle("2D triangle area below tolerance")
    return area2 < 0.0


def ccw_vertices(a, b, c, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[Point2, Point2, Point2]:
    """The 2D triangle abc as three points in counter-clockwise order.

    Raises DegenerateTriangle when the area is below ``tol.eps_area``.
    """
    if not (type(a) is type(b) is type(c) is Point2):
        a, b, c = Point2(*a), Point2(*b), Point2(*c)
    if _clockwise(*a, *b, *c, tol.eps_area):
        return a, c, b
    return a, b, c


def _side_line(pu, pv, qu, qv, ou, ov) -> tuple[float, float, float]:
    """The line through p and q, normalized, positive on the side of o."""
    l1 = pv - qv
    l2 = qu - pu
    l3 = pu * qv - pv * qu
    ln = math.hypot(l1, l2)
    if l1 * ou + l2 * ov + l3 < 0.0:
        ln = -ln
    return (l1 / ln, l2 / ln, l3 / ln)


def _side_lines(au, av, bu, bv, cu, cv, eps_area: float) -> Window:
    """The window with corners (au, av), (bu, bv), (cu, cv); see ``window_lines``.

    Past about 1e154 an offset's products overflow, and the area's may: the
    lines are then taken again from the corners scaled by 2**-k, as
    ``plane_from_triangle`` scales them, and their offsets scaled back.
    """
    if _clockwise(au, av, bu, bv, cu, cv, eps_area):
        bu, bv, cu, cv = cu, cv, bu, bv
    lines = (_side_line(au, av, bu, bv, cu, cv), _side_line(au, av, cu, cv, bu, bv),
             _side_line(bu, bv, cu, cv, au, av))
    if math.isfinite(lines[0][2]) and math.isfinite(lines[1][2]) and math.isfinite(lines[2][2]):
        return lines
    # 2**-k puts the largest |coordinate| in [2**509, 2**510), where no product
    # overflows, so smaller (or non-finite) corners gain nothing by it.  The area
    # gate underflows to 0 for a large k; the least subnormal turns down a zero area
    k = math.frexp(max(map(abs, (au, av, bu, bv, cu, cv))))[1] - 510
    if k <= 0:
        return lines
    s = math.ldexp(1.0, -k)
    lines = _side_lines(au * s, av * s, bu * s, bv * s, cu * s, cv * s,
                        math.ldexp(eps_area, -2 * k) or math.ulp(0.0))
    s = math.ldexp(1.0, k)  # a product, not ldexp, so an offset past the float range is inf
    return tuple([(l1, l2, l3 * s) for l1, l2, l3 in lines])


def window_lines(a, b, c, tol: Tolerance) -> Window:
    """The 2D window abc as its three normalized side lines, positive inside.

    The lines come in the order AB, AC, BC of the corners as ``ccw_vertices``
    orders them; a window whose area is below ``tol.eps_area`` raises
    DegenerateTriangle.
    """
    (au, av), (bu, bv), (cu, cv) = a, b, c
    return _side_lines(au, av, bu, bv, cu, cv, tol.eps_area)


def _code(ab: float, ac: float, bc: float, eps: float) -> int:
    """Outside code from the signed distances to AB, AC and BC (bit values 2, 4, 1)."""
    return 2 * (ab < -eps) | 4 * (ac < -eps) | (bc < -eps)


def region_code(p, window: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """3-bit outside code of a point; on-boundary within eps_dist codes inside."""
    pu, pv = p[0], p[1]
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = window
    return _code(a1 * pu + a2 * pv + a3, b1 * pu + b2 * pv + b3, c1 * pu + c2 * pv + c3,
                 tol.eps_dist)


def clip_segment_to_triangle(p, q, window: Window, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[Point2, ...]:
    """Portion of segment pq inside the window triangle: (), (e,) or (e, x).

    The signed distances of both endpoints to the three side lines give
    the region codes and the trivial accept/reject answers.  Any other
    segment is clipped by parameter: a side line the segment lies on (both
    endpoints within eps_dist) does not constrain it; every other line
    accepts and rejects with half the boundary tolerance, and cuts at the
    parameter where the unshifted distance is zero, clamped to [0, 1].
    Ends within eps_dist of each other merge into one point, also when p
    and q themselves are that close.
    """
    if not (type(p) is type(q) is Point2):
        p, q = Point2(*p), Point2(*q)
    eps = tol.eps_dist
    (pu, pv), (qu, qv) = p, q
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = window
    p_ab, p_ac, p_bc = a1 * pu + a2 * pv + a3, b1 * pu + b2 * pv + b3, c1 * pu + c2 * pv + c3
    q_ab, q_ac, q_bc = a1 * qu + a2 * qv + a3, b1 * qu + b2 * qv + b3, c1 * qu + c2 * qv + c3
    code_p, code_q = _code(p_ab, p_ac, p_bc, eps), _code(q_ab, q_ac, q_bc, eps)
    if not (code_p or code_q):
        return (p,) if math.dist(p, q) <= eps else (p, q)
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
    e = p if lo == 0.0 else tuple.__new__(Point2, (pu + lo * (qu - pu), pv + lo * (qv - pv)))
    x = q if hi == 1.0 else tuple.__new__(Point2, (pu + hi * (qu - pu), pv + hi * (qv - pv)))
    if math.dist(e, x) <= eps:
        return (e,)
    return (e, x)
