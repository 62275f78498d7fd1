"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Coincident
planes switch to the coplanar contour path in the same frame.

The plane, the frame, the image (the window) and the window's side lines
belong to one triangle, not to a pair: ``prepare`` keeps them with the
triangle, so a triangle tested against many partners builds them once.
"""

import math
from enum import Enum
from typing import NamedTuple

from .clip2d import ClipKind, Triangle2, clip_segment_to_triangle, point_in_triangle
from .coplanar import ContourKind, intersect_coplanar
from .core import (
    DEFAULT_TOLERANCE,
    Plane,
    PlaneRelation,
    Point3,
    Tolerance,
    Triangle3,
    classify_planes,
    dist3,
    plane_from_triangle,
    vcross,
    vnorm,
    vsub,
)
from .errors import NonFiniteInput, PointOffPlane
from .frame import PlaneFrame, Point2, build_frame, from_plane
from .lineplane import project_triangle_edges


class CaseLabel(Enum):
    COPLANAR_NO_CONTACT = "coplanar_no_contact"
    COPLANAR_CONTOUR = "coplanar_contour"
    PARALLEL_PLANES = "parallel_planes"
    CROSSING_PLANES_NO_CONTACT = "crossing_planes_no_contact"
    TOUCH_POINT = "touch_point"
    CROSSING_SEGMENT = "crossing_segment"


class ResultKind(Enum):
    EMPTY = "empty"
    TOUCH = "touch"
    SEGMENT = "segment"
    CONTOUR = "contour"


class EmptyReason(Enum):
    PARALLEL_PLANES = "parallel_planes"
    COPLANAR_DISJOINT = "coplanar_disjoint"
    PLANES_CROSS_NO_CONTACT = "planes_cross_no_contact"
    SEGMENT_OUTSIDE_WINDOW = "segment_outside_window"


class IntersectionResult(NamedTuple):
    kind: ResultKind
    points: tuple[Point3, ...] = ()
    reason: EmptyReason | None = None


def _check_finite(t: Triangle3) -> None:
    for v in t:
        for x in v:
            if not math.isfinite(x):
                raise NonFiniteInput("triangle coordinates must be finite")


def _map_onto(frame: PlaneFrame, pl: Plane, p, tol: Tolerance) -> Point2:
    """Frame coordinates of ``p`` snapped onto the reference plane.

    The foot of ``p`` on the plane followed by ``frame.to_plane``, in the
    same arithmetic order, without building the 3D point.
    """
    q, w, u = pl.q, pl.w, pl.u
    d = q * p[0] + w * p[1] + u * p[2] + pl.r
    o, n = frame.origin, frame.n_axis
    rx = (p[0] - d * q) - o[0]
    ry = (p[1] - d * w) - o[1]
    rz = (p[2] - d * u) - o[2]
    if abs(rx * n[0] + ry * n[1] + rz * n[2]) > tol.eps_dist:
        raise PointOffPlane("point does not lie on the frame plane")
    ua, va = frame.u_axis, frame.v_axis
    return Point2(rx * ua[0] + ry * ua[1] + rz * ua[2], rx * va[0] + ry * va[1] + rz * va[2])


class PreparedTriangle:
    """A checked triangle with the work that depends on it alone.

    ``plane`` is computed by ``prepare``.  The 2D frame of that plane, the
    triangle's image in it (the window) and, through ``Triangle2.lines``,
    the window's side lines are built on the first call of
    ``frame_window`` and kept.  All of it is computed under ``tol``;
    ``intersect`` prepares the triangle again under any other tolerance.
    """

    __slots__ = ("tri", "plane", "tol", "_frame_window")

    def __init__(self, tri: Triangle3, plane: Plane, tol: Tolerance):
        self.tri = tri
        self.plane = plane
        self.tol = tol
        self._frame_window: tuple[PlaneFrame, Triangle2] | None = None

    def frame_window(self) -> tuple[PlaneFrame, Triangle2]:
        """The reference frame anchored at the first vertex, and the window in it."""
        if self._frame_window is None:
            tri, pl, tol = self.tri, self.plane, self.tol
            frame = build_frame(pl, tri.a, tol)
            window = Triangle2(*(_map_onto(frame, pl, v, tol) for v in tri), tol=tol)
            self._frame_window = (frame, window)
        return self._frame_window

    def release(self) -> None:
        """Drop the kept frame and window; the next ``frame_window`` builds them again."""
        self._frame_window = None


def prepare(t, tol: Tolerance = DEFAULT_TOLERANCE) -> PreparedTriangle:
    """``t`` ready for ``intersect`` under ``tol``; ``t`` itself if it already is.

    ``t`` is a triangle of three 3D points, or a PreparedTriangle.  Raises
    NonFiniteInput and DegenerateTriangle on the checks ``intersect`` makes.
    """
    if isinstance(t, PreparedTriangle):
        if t.tol is tol or t.tol == tol:
            return t
        t = t.tri
    if not (type(t) is Triangle3 and type(t[0]) is type(t[1]) is type(t[2]) is Point3):
        t = Triangle3(Point3(*t[0]), Point3(*t[1]), Point3(*t[2]))
    _check_finite(t)
    return PreparedTriangle(t, plane_from_triangle(t, tol), tol)


_EMPTY = {reason: IntersectionResult(ResultKind.EMPTY, reason=reason) for reason in EmptyReason}


def _empty(label: CaseLabel, reason: EmptyReason) -> tuple[CaseLabel, IntersectionResult]:
    return label, _EMPTY[reason]


def _coplanar_case(p1: PreparedTriangle, t2: Triangle3, tol) -> tuple[CaseLabel, IntersectionResult]:
    frame, window = p1.frame_window()
    clipped = Triangle2(*(_map_onto(frame, p1.plane, v, tol) for v in t2), tol=tol)
    res = intersect_coplanar(window, clipped, tol)
    if res.kind is ContourKind.DISJOINT:
        return _empty(CaseLabel.COPLANAR_NO_CONTACT, EmptyReason.COPLANAR_DISJOINT)
    lifted = tuple(from_plane(frame, v) for v in res.vertices)
    return CaseLabel.COPLANAR_CONTOUR, IntersectionResult(ResultKind.CONTOUR, lifted)


def intersect(t1, t2, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CaseLabel, IntersectionResult]:
    """Classify and construct the intersection of two triangles.

    Each argument is a triangle of three 3D points or a PreparedTriangle
    from ``prepare``; the result is the same either way.  Returns a
    (CaseLabel, IntersectionResult) pair.  The six labels cover coplanar
    contact and no-contact, parallel planes, crossing planes without
    contact, a single touch point, and a proper crossing segment.  The
    result geometry lies on both supporting planes within eps_dist; a
    clipped segment that degenerates to one point is reported as Touch.
    """
    p1 = prepare(t1, tol)
    p2 = prepare(t2, tol)
    pl1 = p1.plane
    relation = classify_planes(pl1, p2.plane, tol)
    if relation is PlaneRelation.PARALLEL:
        return _empty(CaseLabel.PARALLEL_PLANES, EmptyReason.PARALLEL_PLANES)
    if relation is PlaneRelation.COINCIDENT:
        return _coplanar_case(p1, p2.tri, tol)

    points = project_triangle_edges(p2.tri, pl1, tol)
    if points is None:
        # borderline coincidence: every vertex of t2 sits in the reference plane
        return _coplanar_case(p1, p2.tri, tol)
    if not points:
        return _empty(CaseLabel.CROSSING_PLANES_NO_CONTACT, EmptyReason.PLANES_CROSS_NO_CONTACT)

    frame, window = p1.frame_window()
    if len(points) == 1:
        p2d = _map_onto(frame, pl1, points[0], tol)
        if point_in_triangle(p2d, window, tol):
            return CaseLabel.TOUCH_POINT, IntersectionResult(ResultKind.TOUCH, (points[0],))
        return _empty(CaseLabel.CROSSING_PLANES_NO_CONTACT, EmptyReason.SEGMENT_OUTSIDE_WINDOW)

    clip = clip_segment_to_triangle(
        _map_onto(frame, pl1, points[0], tol),
        _map_onto(frame, pl1, points[1], tol),
        window,
        tol,
    )
    if clip.kind is ClipKind.EMPTY:
        return _empty(CaseLabel.CROSSING_PLANES_NO_CONTACT, EmptyReason.SEGMENT_OUTSIDE_WINDOW)
    if clip.kind is ClipKind.POINT:
        touch = from_plane(frame, clip.points[0])
        return CaseLabel.TOUCH_POINT, IntersectionResult(ResultKind.TOUCH, (touch,))
    lifted = tuple(from_plane(frame, p) for p in clip.points)
    return CaseLabel.CROSSING_SEGMENT, IntersectionResult(ResultKind.SEGMENT, lifted)


def contact_margin(t, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Distance from ``t`` within which ``intersect`` reports its contacts with ``t``.

    If ``intersect`` returns a contact label for ``(t, s)`` or ``(s, t)``,
    some reported point lies within ``contact_margin(t)`` of ``t`` and
    within ``contact_margin(s)`` of ``s``, so the bounding boxes of the two
    triangles, grown by their margins, overlap.  ``t`` may be prepared.
    Raises NonFiniteInput and DegenerateTriangle on the per-triangle checks
    ``intersect`` starts with.

    With R the largest vertex norm, L the longest edge and r the inradius,
    the terms cover, to first order in the tolerances:

    * ``eps_dist * L / r``: the window tests accept a point within eps_dist
      outside every side line.  That region is the triangle scaled about
      its incenter I by (r + eps_dist) / r, so a vertex v moves out by
      eps_dist * |v - I| / r <= eps_dist * L / r: about 3.5 eps_dist for an
      equilateral triangle, far more near the sharp tip of a sliver.
    * ``eps_dist * (1 + 2 R)``: a coplanar pair's normals may differ by a
      sine of eps_dist, so snapping a vertex v of the other triangle onto
      the reference plane moves it by up to eps_dist * (1 + sqrt(2) |v|);
      the 1 alone covers a vertex taken as lying in the plane.
    * ``1e-12 * (1 + R)``: rounding, for chains of a few dozen float
      operations on coordinates of size R.
    """
    a, b, c = prepare(t, tol).tri
    edges = (dist3(a, b), dist3(b, c), dist3(c, a))
    longest = max(edges)
    area = 0.5 * vnorm(vcross(vsub(b, a), vsub(c, a)))
    inradius = 2.0 * area / sum(edges)
    reach = max(vnorm(a), vnorm(b), vnorm(c))
    return tol.eps_dist * (1.0 + 2.0 * reach + longest / inradius) + 1e-12 * (1.0 + reach)


def classify_only(t1: Triangle3, t2: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> CaseLabel:
    """Case label alone; always equal to the label intersect() returns."""
    return intersect(t1, t2, tol)[0]
