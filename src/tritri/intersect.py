"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Coincident
planes switch to the coplanar contour path in the same frame.
"""

import math
from dataclasses import dataclass
from enum import Enum

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
    closest_point_on_plane,
    dist3,
    plane_from_triangle,
    vcross,
    vnorm,
    vsub,
)
from .errors import CoplanarEdges, NonFiniteInput
from .frame import PlaneFrame, build_frame, from_plane, to_plane
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


@dataclass(frozen=True)
class IntersectionResult:
    kind: ResultKind
    points: tuple[Point3, ...] = ()
    reason: EmptyReason | None = None


def _check_finite(t: Triangle3) -> None:
    for v in t:
        for x in v:
            if not math.isfinite(x):
                raise NonFiniteInput("triangle coordinates must be finite")


def _empty(label: CaseLabel, reason: EmptyReason) -> tuple[CaseLabel, IntersectionResult]:
    return label, IntersectionResult(ResultKind.EMPTY, reason=reason)


def _map_onto(frame: PlaneFrame, pl: Plane, p, tol: Tolerance):
    # snap onto the reference plane first so the frame check cannot trip
    return to_plane(frame, closest_point_on_plane(p, pl), tol)


def _coplanar_case(t1, t2, pl1, frame, tol) -> tuple[CaseLabel, IntersectionResult]:
    window = Triangle2(*(_map_onto(frame, pl1, v, tol) for v in t1))
    clipped = Triangle2(*(_map_onto(frame, pl1, v, tol) for v in t2))
    res = intersect_coplanar(window, clipped, tol)
    if res.kind is ContourKind.DISJOINT:
        return _empty(CaseLabel.COPLANAR_NO_CONTACT, EmptyReason.COPLANAR_DISJOINT)
    lifted = tuple(from_plane(frame, v) for v in res.vertices)
    return CaseLabel.COPLANAR_CONTOUR, IntersectionResult(ResultKind.CONTOUR, lifted)


def intersect(t1: Triangle3, t2: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CaseLabel, IntersectionResult]:
    """Classify and construct the intersection of two triangles.

    Returns a (CaseLabel, IntersectionResult) pair.  The six labels cover
    coplanar contact and no-contact, parallel planes, crossing planes
    without contact, a single touch point, and a proper crossing segment.
    The result geometry lies on both supporting planes within eps_dist;
    a clipped segment that degenerates to one point is reported as Touch.
    """
    t1 = Triangle3(Point3(*t1[0]), Point3(*t1[1]), Point3(*t1[2]))
    t2 = Triangle3(Point3(*t2[0]), Point3(*t2[1]), Point3(*t2[2]))
    _check_finite(t1)
    _check_finite(t2)
    pl1 = plane_from_triangle(t1, tol)
    pl2 = plane_from_triangle(t2, tol)
    relation = classify_planes(pl1, pl2, tol)
    if relation is PlaneRelation.PARALLEL:
        return _empty(CaseLabel.PARALLEL_PLANES, EmptyReason.PARALLEL_PLANES)

    frame = build_frame(pl1, t1.a, tol)
    if relation is PlaneRelation.COINCIDENT:
        return _coplanar_case(t1, t2, pl1, frame, tol)

    try:
        points = project_triangle_edges(t2, pl1, tol)
    except CoplanarEdges:
        # borderline coincidence: every edge of t2 sits in the reference plane
        return _coplanar_case(t1, t2, pl1, frame, tol)
    if not points:
        return _empty(CaseLabel.CROSSING_PLANES_NO_CONTACT, EmptyReason.PLANES_CROSS_NO_CONTACT)

    window = Triangle2(*(_map_onto(frame, pl1, v, tol) for v in t1))
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


def contact_margin(t: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Distance from ``t`` within which ``intersect`` reports its contacts with ``t``.

    If ``intersect`` returns a contact label for ``(t, s)`` or ``(s, t)``,
    some reported point lies within ``contact_margin(t)`` of ``t`` and
    within ``contact_margin(s)`` of ``s``, so the bounding boxes of the two
    triangles, grown by their margins, overlap.  Raises NonFiniteInput and
    DegenerateTriangle on the per-triangle checks ``intersect`` starts with.

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
    * ``2 * eps_param * L``: an edge parameter may overshoot [0, 1] by
      eps_param, once along an edge meeting the other plane and once along
      the segment between two such points.
    * ``1e-12 * (1 + R)``: rounding, for chains of a few dozen float
      operations on coordinates of size R.
    """
    _check_finite(t)
    plane_from_triangle(t, tol)
    a, b, c = t
    edges = (dist3(a, b), dist3(b, c), dist3(c, a))
    longest = max(edges)
    area = 0.5 * vnorm(vcross(vsub(b, a), vsub(c, a)))
    inradius = 2.0 * area / sum(edges)
    reach = max(vnorm(a), vnorm(b), vnorm(c))
    return (tol.eps_dist * (1.0 + 2.0 * reach + longest / inradius)
            + 2.0 * tol.eps_param * longest + 1e-12 * (1.0 + reach))


def classify_only(t1: Triangle3, t2: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> CaseLabel:
    """Case label alone; always equal to the label intersect() returns."""
    return intersect(t1, t2, tol)[0]
