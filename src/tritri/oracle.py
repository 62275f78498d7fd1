"""Exact-arithmetic reference implementation used by the test suite.

Everything here runs on rational numbers (``fractions.Fraction``), so the
geometry carries no rounding error.  The algorithms follow the production
path: a vertex code against the reference plane, with each 0-coded vertex
kept once, at its outgoing edge; one parameter clip of the resulting
segment against the window, a lone point being clipped as the segment
from it to itself; and Sutherland-Hodgman clipping of coplanar overlaps.
What differs is the arithmetic and the 2D reduction.  Every value is
exact, the 2D work happens on the two coordinates left after dropping the
normal's largest axis rather than in an orthonormal frame of the plane,
and orientation tests use unnormalised cross products.  Agreement between
the two routes is evidence that the float kernel's rounding and frame
leave the answer unchanged.

Tolerance policy mirrors the production contract: the eps thresholds for
plane coincidence, on-plane vertices and point merging are applied with
exact squared comparisons, while the one 2D window test, ``_window_span``,
is boundary-inclusive with a zero threshold.  Every result carries a
``slack`` value, the smallest nonzero margin encountered; a pair whose
slack is tiny sits near a classification boundary and a float
implementation may legitimately flip it.
"""

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .core import DEFAULT_TOLERANCE, Tolerance
from .errors import DegenerateTriangle
from .intersect import CaseLabel

RPoint2 = tuple[Fraction, Fraction]
RPoint3 = tuple[Fraction, Fraction, Fraction]


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _rp2(p) -> RPoint2:
    return (_fr(p[0]), _fr(p[1]))


def _rp3(p) -> RPoint3:
    return (_fr(p[0]), _fr(p[1]), _fr(p[2]))


def _sub3(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _lerp3(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]), a[2] + t * (b[2] - a[2]))


def _lerp2(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _dsq3(a, b):
    d = _sub3(a, b)
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2]


def _dsq2(a, b):
    du, dv = a[0] - b[0], a[1] - b[1]
    return du * du + dv * dv


def _orient(a, b, p) -> Fraction:
    """Twice the signed area of (a, b, p); positive when p is left of a->b."""
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _ccw(tri):
    a, b, c = tri
    o = _orient(a, b, c)
    if o == 0:
        raise DegenerateTriangle("oracle triangle is degenerate")
    return (a, b, c) if o > 0 else (a, c, b)


_FLOAT_MAX = Fraction(sys.float_info.max)


def _root(q: Fraction) -> float:
    """The square root of a rational q >= 0 as a float, saturating at inf.

    Past the float range, the root comes from the integer part of q, which
    is then at least 1e308, so the loss is far below a float's precision.
    """
    if q <= _FLOAT_MAX:
        return math.sqrt(q)
    root = math.isqrt(math.floor(q))
    return float(root) if root <= _FLOAT_MAX else math.inf


def _dist(num, densq) -> float:
    """``|num| / sqrt(densq)`` as a float, from the exact ratio, so it never overflows."""
    return _root(num * num / densq)


def as_floats(points):
    """Rational points converted to float tuples for comparisons."""
    return [tuple(float(x) for x in p) for p in points]


# --- 2D reference primitives -------------------------------------------------


def _window_span(p, q, w, margins=None):
    """Parameters (lo, hi) of segment pq inside the ccw triangle w (Liang & Barsky).

    None at the first side both ends lie strictly outside; otherwise the
    segment misses the window exactly when lo > hi.  Given a ``margins``
    list, each nonzero orientation seen is appended to it as a distance.
    """
    lo, hi = Fraction(0), Fraction(1)
    for e in range(3):
        a, b = w[e], w[(e + 1) % 3]
        dp = _orient(a, b, p)
        dq = _orient(a, b, q)
        if margins is not None:
            side_sq = _dsq2(a, b)
            margins.extend(_dist(d, side_sq) for d in (dp, dq) if d)
        if dp < 0 and dq < 0:
            return None
        if dp >= 0 and dq >= 0:
            continue
        t = dp / (dp - dq)
        if dp < 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    return lo, hi


def rational_point_in_triangle(p, tri) -> bool:
    """Boundary-inclusive containment, exact: p clipped as the segment (p, p)."""
    p = _rp2(p)
    return _window_span(p, p, _ccw([_rp2(v) for v in tri])) is not None


def rational_clip_segment(p, q, tri, tol: Tolerance = DEFAULT_TOLERANCE):
    """Clip segment pq to a triangle by half-plane parameter intervals.

    Returns ('empty' | 'point' | 'segment', exact points).  Segments whose
    clipped extent is within eps_dist collapse to a point, mirroring the
    production promotion rule.
    """
    p, q = _rp2(p), _rp2(q)
    span = _window_span(p, q, _ccw([_rp2(v) for v in tri]))
    if span is None or span[0] > span[1]:
        return "empty", []
    e = _lerp2(p, q, span[0])
    x = _lerp2(p, q, span[1])
    if _dsq2(e, x) <= _fr(tol.eps_dist) ** 2:
        return "point", [e]
    return "segment", [e, x]


def rational_polygon_intersection(subject, clip):
    """Sutherland-Hodgman intersection of two triangles, exact CCW polygon."""
    out = list(_ccw([_rp2(v) for v in subject]))
    cv = _ccw([_rp2(v) for v in clip])
    for i in range(3):
        a, b = cv[i], cv[(i + 1) % 3]
        if not out:
            break
        inp = out
        out = []
        for j, s in enumerate(inp):
            e = inp[(j + 1) % len(inp)]
            ds = _orient(a, b, s)
            de = _orient(a, b, e)
            if ds >= 0:
                out.append(s)
                if de < 0:
                    out.append(_lerp2(s, e, ds / (ds - de)))
            elif de >= 0:
                out.append(_lerp2(s, e, ds / (ds - de)))
    cleaned = []
    for pt in out:
        if not cleaned or pt != cleaned[-1]:
            cleaned.append(pt)
    if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    return cleaned if len(cleaned) >= 3 else []


def rational_polygon_area(pts) -> Fraction:
    """Shoelace area, positive for CCW input."""
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        total += a[0] * b[1] - a[1] * b[0]
    return total / 2


# --- 3D reference ------------------------------------------------------------


class OracleResult(NamedTuple):
    label: CaseLabel
    points: tuple[RPoint3, ...]
    slack: float


def _project_axes(n):
    k = max(range(3), key=lambda i: abs(n[i]))
    return k, (k + 1) % 3, (k + 2) % 3


def _lift(n, d, k, i, j, p2) -> RPoint3:
    # recover the dropped coordinate from n.x + d = 0
    out = [Fraction(0)] * 3
    out[i], out[j] = p2[0], p2[1]
    out[k] = -(d + n[i] * p2[0] + n[j] * p2[1]) / n[k]
    return tuple(out)


def oracle_intersect(t1, t2, tol: Tolerance = DEFAULT_TOLERANCE) -> OracleResult:
    """Exact classification and geometry for a triangle pair.

    The slack field is the smallest nonzero decision margin (in world
    units) seen while classifying; exact-zero margins are policy cases
    handled identically by both routes and do not reduce slack.
    """
    rt1 = [_rp3(v) for v in t1]
    rt2 = [_rp3(v) for v in t2]
    eps = _fr(tol.eps_dist)
    epsq = eps * eps
    areasq4 = 4 * _fr(tol.eps_area) ** 2

    n1 = _cross3(_sub3(rt1[1], rt1[0]), _sub3(rt1[2], rt1[0]))
    n2 = _cross3(_sub3(rt2[1], rt2[0]), _sub3(rt2[2], rt2[0]))
    n1sq = _dot3(n1, n1)
    n2sq = _dot3(n2, n2)
    if n1sq < areasq4 or n2sq < areasq4:
        raise DegenerateTriangle("oracle triangle area below tolerance")
    d1 = -_dot3(n1, rt1[0])

    scale = max(1.0, max(abs(float(x)) for v in rt1 + rt2 for x in v))
    margins: list[float] = []

    cr = _cross3(n1, n2)
    crsq = _dot3(cr, cr)
    if crsq:
        margins.append(math.sqrt(float(crsq / (n1sq * n2sq))) * scale)

    if crsq <= epsq * n1sq * n2sq:
        gap = _dot3(n1, rt2[0]) + d1
        if gap:
            margins.append(_dist(gap, n1sq))
        if gap * gap <= epsq * n1sq:
            return _oracle_coplanar(rt1, rt2, n1, d1, margins, tol)
        return OracleResult(CaseLabel.PARALLEL_PLANES, (), min(margins, default=math.inf))

    return _oracle_crossing(rt1, rt2, n1, n2, d1, margins, tol)


def _oracle_coplanar(rt1, rt2, n1, d1, margins, tol) -> OracleResult:
    k, i, j = _project_axes(n1)
    w2 = [(v[i], v[j]) for v in rt1]
    c2 = [(v[i], v[j]) for v in rt2]

    # margins: every vertex against every side line of the other triangle
    for tri, pts in ((_ccw(w2), c2), (_ccw(c2), w2)):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            lensq = _dsq2(a, b)
            for p in pts:
                o = _orient(a, b, p)
                if o:
                    margins.append(_dist(o, lensq))

    poly = rational_polygon_intersection(c2, w2)
    area = rational_polygon_area(poly) if poly else Fraction(0)
    if area > 0:
        margins.append(_root(area))
        lifted = tuple(_lift(n1, d1, k, i, j, p) for p in poly)
        return OracleResult(CaseLabel.COPLANAR_CONTOUR, lifted, min(margins, default=math.inf))
    return OracleResult(CaseLabel.COPLANAR_NO_CONTACT, (), min(margins, default=math.inf))


def _oracle_crossing(rt1, rt2, n1, n2, d1, margins, tol) -> OracleResult:
    eps = _fr(tol.eps_dist)
    epsq = eps * eps
    d2 = -_dot3(n2, rt2[0])
    n1sq, n2sq = _dot3(n1, n1), _dot3(n2, n2)

    sd = [_dot3(n1, v) + d1 for v in rt2]
    zero = [0 if s * s <= epsq * n1sq else (1 if s > 0 else -1) for s in sd]
    for s, z in zip(sd, zero):
        if z:
            margins.append(_dist(s, n1sq))
    for v in rt1:
        s = _dot3(n2, v) + d2
        if s * s > epsq * n2sq:
            margins.append(_dist(s, n2sq))

    if not any(zero):
        # every vertex effectively in the reference plane: coplanar after all
        return _oracle_coplanar(rt1, rt2, n1, d1, margins, tol)

    # a 0-coded vertex at its outgoing edge, a crossing where the codes are
    # opposite and non-zero; points within eps_dist merge
    points: list[RPoint3] = []
    for a in range(3):
        b = (a + 1) % 3
        if not zero[a]:
            pt = rt2[a]
        elif zero[a] == -zero[b]:
            pt = _lerp3(rt2[a], rt2[b], sd[a] / (sd[a] - sd[b]))
        else:
            continue
        if all(_dsq3(pt, seen) > epsq for seen in points):
            points.append(pt)

    label_empty = CaseLabel.CROSSING_PLANES_NO_CONTACT
    if not points:
        return OracleResult(label_empty, (), min(margins, default=math.inf))

    # a lone point is clipped as the segment from it to itself
    k, i, j = _project_axes(n1)
    w2 = _ccw([(v[i], v[j]) for v in rt1])
    p3, q3 = points[0], points[-1]
    span = _window_span((p3[i], p3[j]), (q3[i], q3[j]), w2, margins)
    if span is None or span[0] > span[1]:
        if span:
            margins.append(float(span[0] - span[1]) * _root(_dsq3(p3, q3)))
        return OracleResult(label_empty, (), min(margins, default=math.inf))

    e3 = _lerp3(p3, q3, span[0])
    x3 = _lerp3(p3, q3, span[1])
    extent = _dsq3(e3, x3)
    if extent:
        margins.append(_root(extent))
    slack = min(margins, default=math.inf)
    if extent <= epsq:
        return OracleResult(CaseLabel.TOUCH_POINT, (e3,), slack)
    return OracleResult(CaseLabel.CROSSING_SEGMENT, (e3, x3), slack)
