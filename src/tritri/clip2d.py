"""Clipping of 2D segments against a triangular window.

Every point gets a 3-bit region code, one bit per window side line, set
when the point lies strictly outside that line by more than ``eps_dist``:

    bit value 2 -- outside line AB
    bit value 4 -- outside line AC
    bit value 1 -- outside line BC

The three lines split the plane into 7 regions (code 7 cannot occur) and
the codes drive the usual outcode shortcuts: both zero accepts the whole
segment, a shared bit rejects it, anything else is suspicious and walks
only the candidate sides implied by the endpoint codes:

    code 010 -> AB        code 110 -> AB, AC
    code 100 -> AC        code 011 -> AB, BC
    code 001 -> BC        code 101 -> AC, BC
    code 000 -> AB, AC, BC

Points within ``eps_dist`` of a side line code as inside, so a segment
that merely grazes the boundary yields a Point result rather than Empty.
"""

import math
from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_TOLERANCE, Tolerance
from .errors import DegenerateTriangle, ZeroLengthSegment
from .frame import Point2

# 3-bit outside code; inside is 0, 7 is geometrically impossible.
RegionCode = int


class Side(Enum):
    """Window side lines; the enum value is the region-code bit."""

    AB = 2
    AC = 4
    BC = 1


SIDE_ORDER = (Side.AB, Side.AC, Side.BC)


class Triangle2:
    """2D triangle normalized to counter-clockwise vertex order.

    Raises DegenerateTriangle when the area is below ``tol.eps_area``.
    """

    __slots__ = ("a", "b", "c", "_lines")

    def __init__(self, a, b, c, tol: Tolerance = DEFAULT_TOLERANCE):
        a, b, c = Point2(*a), Point2(*b), Point2(*c)
        area2 = (b.u - a.u) * (c.v - a.v) - (b.v - a.v) * (c.u - a.u)
        if abs(area2) < 2.0 * tol.eps_area:
            raise DegenerateTriangle("2D triangle area below tolerance")
        if area2 < 0.0:
            b, c = c, b
        self.a = a
        self.b = b
        self.c = c
        self._lines = None

    def __repr__(self) -> str:
        return f"Triangle2({self.a!r}, {self.b!r}, {self.c!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Triangle2):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    @property
    def lines(self) -> tuple[tuple[float, float, float], ...]:
        """Normalized side lines in SIDE_ORDER, positive inside; computed on first use."""
        if self._lines is None:
            self._lines = _window_lines(self)
        return self._lines


class TrivialClassification(Enum):
    ACCEPT_INSIDE = "accept_inside"
    REJECT_OUTSIDE = "reject_outside"
    SUSPICIOUS = "suspicious"


class ClipKind(Enum):
    EMPTY = "empty"
    POINT = "point"
    SEGMENT = "segment"


class ClipResult2(NamedTuple):
    kind: ClipKind
    points: tuple[Point2, ...] = ()


class HomLine(NamedTuple):
    """Line l1*u + l2*v + l3 = 0 in homogeneous form."""

    l1: float
    l2: float
    l3: float


def side_points(w: Triangle2, side: Side) -> tuple[Point2, Point2]:
    if side is Side.AB:
        return w.a, w.b
    if side is Side.AC:
        return w.a, w.c
    return w.b, w.c


def _window_lines(w: Triangle2) -> tuple[tuple[float, float, float], ...]:
    """Normalized side lines in SIDE_ORDER, positive on the interior side."""
    opposite = (w.c, w.b, w.a)
    lines = []
    for side, opp in zip(SIDE_ORDER, opposite):
        p, q = side_points(w, side)
        l1 = p.v - q.v
        l2 = q.u - p.u
        l3 = p.u * q.v - p.v * q.u
        if l1 * opp.u + l2 * opp.v + l3 < 0.0:
            l1, l2, l3 = -l1, -l2, -l3
        ln = math.hypot(l1, l2)
        lines.append((l1 / ln, l2 / ln, l3 / ln))
    return tuple(lines)


def _code(p, lines, eps: float) -> int:
    code = 0
    for side, (l1, l2, l3) in zip(SIDE_ORDER, lines):
        if l1 * p[0] + l2 * p[1] + l3 < -eps:
            code |= side.value
    return code


def region_code(p, w: Triangle2, tol: Tolerance = DEFAULT_TOLERANCE) -> RegionCode:
    """3-bit outside code of a point; on-boundary within eps_dist codes inside."""
    return _code(p, w.lines, tol.eps_dist)


def point_in_triangle(p, w: Triangle2, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    return region_code(p, w, tol) == 0


def trivially_classify(c1: RegionCode, c2: RegionCode) -> TrivialClassification:
    if c1 == 0 and c2 == 0:
        return TrivialClassification.ACCEPT_INSIDE
    if c1 & c2:
        return TrivialClassification.REJECT_OUTSIDE
    return TrivialClassification.SUSPICIOUS


_CANDIDATES: dict[int, tuple[Side, ...]] = {
    0: (Side.AB, Side.AC, Side.BC),
    2: (Side.AB,),
    4: (Side.AC,),
    1: (Side.BC,),
    6: (Side.AB, Side.AC),
    3: (Side.AB, Side.BC),
    5: (Side.AC, Side.BC),
}


def candidate_entry_sides(code: RegionCode) -> tuple[Side, ...]:
    """Window sides a segment starting at this code can enter through."""
    try:
        return _CANDIDATES[code]
    except KeyError:
        raise ValueError(f"invalid region code {code}") from None


def candidate_exit_sides(entry_code: RegionCode, exit_code: RegionCode) -> tuple[Side, ...]:
    """Window sides a surviving segment can leave through.

    An exit code of 0 means the second endpoint is inside and there is no
    exit side.  Otherwise the candidates are exactly the sides whose
    outside bit is set in the exit code; the entry code cannot contribute
    because trivial rejection already removed any shared bit.
    """
    if entry_code & exit_code:
        raise ValueError("codes share an outside bit; segment was rejected")
    if exit_code == 0:
        return ()
    return candidate_entry_sides(exit_code)


def line_through(p, q, tol: Tolerance = DEFAULT_TOLERANCE) -> HomLine:
    """Homogeneous line through two points (cross product of (u, v, 1)).

    Raises ZeroLengthSegment when the points are within ``tol.eps_dist``.
    """
    if math.hypot(q[0] - p[0], q[1] - p[1]) <= tol.eps_dist:
        raise ZeroLengthSegment("need two distinct points for a line")
    return HomLine(p[1] - q[1], q[0] - p[0], p[0] * q[1] - p[1] * q[0])


def _param_along(a, b, x) -> float:
    du, dv = b[0] - a[0], b[1] - a[1]
    return ((x[0] - a[0]) * du + (x[1] - a[1]) * dv) / (du * du + dv * dv)


def segment_side_intersection(p, q, w: Triangle2, side: Side, tol: Tolerance = DEFAULT_TOLERANCE) -> Point2 | None:
    """Proper crossing of segment pq with one window side, else None.

    The crossing is the cross product of the two homogeneous lines; it
    counts only when both parametric coordinates lie in [0, 1] within
    eps_param.  Parallel or collinear configurations return None.
    """
    s1, s2 = side_points(w, side)
    la = line_through(p, q, tol)
    lb = line_through(s1, s2, tol)
    cu = la.l2 * lb.l3 - la.l3 * lb.l2
    cv = la.l3 * lb.l1 - la.l1 * lb.l3
    cw = la.l1 * lb.l2 - la.l2 * lb.l1
    if cw == 0.0:
        return None
    x = Point2(cu / cw, cv / cw)
    if not (math.isfinite(x.u) and math.isfinite(x.v)):
        return None
    t = _param_along(p, q, x)
    s = _param_along(s1, s2, x)
    lo, hi = -tol.eps_param, 1.0 + tol.eps_param
    if lo <= t <= hi and lo <= s <= hi:
        return x
    return None


def _dist2(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _lerp2(a, b, t: float) -> Point2:
    return Point2(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _scan_sides(p, q, w, sides, tol) -> list[tuple[float, Point2]]:
    """Crossings with the given sides, merged within eps_dist, sorted by t."""
    found: list[tuple[float, Point2]] = []
    for side in sides:
        x = segment_side_intersection(p, q, w, side, tol)
        if x is None:
            continue
        if any(_dist2(x, seen) <= tol.eps_dist for _, seen in found):
            continue
        found.append((_param_along(p, q, x), x))
    found.sort(key=lambda item: item[0])
    return found


def _interval_clip(p, q, lines, tol) -> ClipResult2:
    """Half-plane parameter clip used for segments collinear with a side.

    Side lines the segment lies on (both endpoints within eps_dist) do not
    constrain it; the others clip with half the boundary tolerance so the
    returned points still code as inside.
    """
    eps = tol.eps_dist
    lo, hi = 0.0, 1.0
    for l1, l2, l3 in lines:
        da = l1 * p[0] + l2 * p[1] + l3
        db = l1 * q[0] + l2 * q[1] + l3
        if abs(da) <= eps and abs(db) <= eps:
            continue
        a = da + 0.5 * eps
        b = db + 0.5 * eps
        if a < 0.0 and b < 0.0:
            return ClipResult2(ClipKind.EMPTY)
        if a >= 0.0 and b >= 0.0:
            continue
        t = a / (a - b)
        if a < 0.0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    if lo > hi:
        return ClipResult2(ClipKind.EMPTY)
    e = _lerp2(p, q, lo)
    x = _lerp2(p, q, hi)
    if _dist2(e, x) <= eps:
        return ClipResult2(ClipKind.POINT, (e,))
    return ClipResult2(ClipKind.SEGMENT, (e, x))


def clip_segment_to_triangle(p, q, w: Triangle2, tol: Tolerance = DEFAULT_TOLERANCE) -> ClipResult2:
    """Portion of segment pq inside the window triangle.

    Region codes give the trivial accept/reject answers; suspicious
    segments look for an entry crossing on the first endpoint's candidate
    sides and an exit crossing on the second endpoint's.  A segment
    collinear with a window side is clipped by the half-plane interval
    path instead, since it never crosses that side properly.
    """
    p = Point2(*p)
    q = Point2(*q)
    if _dist2(p, q) <= tol.eps_dist:
        raise ZeroLengthSegment("clip needs a segment with distinct endpoints")
    lines = w.lines
    eps = tol.eps_dist
    for l1, l2, l3 in lines:
        if abs(l1 * p.u + l2 * p.v + l3) <= eps and abs(l1 * q.u + l2 * q.v + l3) <= eps:
            return _interval_clip(p, q, lines, tol)
    c1 = _code(p, lines, eps)
    c2 = _code(q, lines, eps)
    verdict = trivially_classify(c1, c2)
    if verdict is TrivialClassification.ACCEPT_INSIDE:
        return ClipResult2(ClipKind.SEGMENT, (p, q))
    if verdict is TrivialClassification.REJECT_OUTSIDE:
        return ClipResult2(ClipKind.EMPTY)
    if c1:
        entries = _scan_sides(p, q, w, candidate_entry_sides(c1), tol)
        if not entries:
            return ClipResult2(ClipKind.EMPTY)
        entry = entries[0][1]
    else:
        entry = p
    if c2:
        exits = _scan_sides(p, q, w, candidate_exit_sides(c1, c2), tol)
        # a grazing contact can leave the exit coincident with the entry
        exit_ = exits[-1][1] if exits else entry
    else:
        exit_ = q
    if _dist2(entry, exit_) <= eps:
        return ClipResult2(ClipKind.POINT, (entry,))
    return ClipResult2(ClipKind.SEGMENT, (entry, exit_))
