"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Coincident
planes switch to the coplanar contour path in the same frame.  The plane
and the frame share one origin, the first triangle's first vertex, and
``frame.to_plane`` is the one map from 3D into the frame.

The plane, the frame and the image (the window, kept as its three side
lines) belong to one triangle, not to a pair: ``prepare`` keeps them with the
triangle, so a triangle tested against many partners builds them once.
"""

from enum import Enum
from typing import NamedTuple

from .clip2d import Window, ccw_vertices, clip_segment_to_triangle, window_lines
from .coplanar import intersect_coplanar
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
from .frame import PlaneFrame, build_frame, from_plane, to_plane
from .lineplane import project_triangle_edges

_new = tuple.__new__  # builds a named tuple without its Python-level __new__


class CaseLabel(Enum):
    COPLANAR_NO_CONTACT = "coplanar_no_contact"
    COPLANAR_CONTOUR = "coplanar_contour"
    PARALLEL_PLANES = "parallel_planes"
    CROSSING_PLANES_NO_CONTACT = "crossing_planes_no_contact"
    TOUCH_POINT = "touch_point"
    CROSSING_SEGMENT = "crossing_segment"


class EmptyReason(Enum):
    PARALLEL_PLANES = "parallel_planes"
    COPLANAR_DISJOINT = "coplanar_disjoint"
    PLANES_CROSS_NO_CONTACT = "planes_cross_no_contact"
    SEGMENT_OUTSIDE_WINDOW = "segment_outside_window"


class IntersectionResult(NamedTuple):
    points: tuple[Point3, ...] = ()
    reason: EmptyReason | None = None


class PreparedTriangle:
    """A checked triangle with the work that depends on it alone.

    ``plane`` is computed by ``prepare``.  The 2D frame of that plane and
    the triangle's image in it (the window, as the side lines that
    ``window_lines`` builds) are made on the first call of
    ``frame_window`` and kept.  All of it is computed under ``tol``;
    ``intersect`` prepares the triangle again under any other tolerance.
    """

    __slots__ = ("tri", "plane", "tol", "_frame_window")

    def __init__(self, tri: Triangle3, plane: Plane, tol: Tolerance):
        self.tri = tri
        self.plane = plane
        self.tol = tol
        self._frame_window: tuple[PlaneFrame, Window] | None = None

    def frame_window(self) -> tuple[PlaneFrame, Window]:
        """The reference frame anchored at the first vertex, and the window's side lines in it."""
        if self._frame_window is None:
            frame = build_frame(self.plane)
            a, b, c = self.tri
            lines = window_lines(to_plane(frame, a), to_plane(frame, b), to_plane(frame, c), self.tol)
            self._frame_window = (frame, lines)
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
    return PreparedTriangle(t, plane_from_triangle(t, tol), tol)


# one shared empty result per EmptyReason, in the enum's order
_PARALLEL, _DISJOINT, _NO_CROSSING, _OUTSIDE = (IntersectionResult(reason=r) for r in EmptyReason)


def _coplanar_case(p1: PreparedTriangle, t2: Triangle3, tol) -> tuple[CaseLabel, IntersectionResult]:
    frame, window = p1.frame_window()
    a, b, c = t2
    clipped = ccw_vertices(to_plane(frame, a), to_plane(frame, b), to_plane(frame, c), tol)
    contour = intersect_coplanar(window, clipped, tol)
    if not contour:
        return CaseLabel.COPLANAR_NO_CONTACT, _DISJOINT
    lifted = tuple(map(from_plane, (frame,) * len(contour), contour))
    return CaseLabel.COPLANAR_CONTOUR, _new(IntersectionResult, (lifted, None))


def intersect(t1, t2, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CaseLabel, IntersectionResult]:
    """Classify and construct the intersection of two triangles.

    Each argument is a triangle of three 3D points or a PreparedTriangle
    from ``prepare``; the result is the same either way.  Returns a
    (CaseLabel, IntersectionResult) pair.  The six labels cover coplanar
    contact and no-contact, parallel planes, crossing planes without
    contact, a single touch point, and a proper crossing segment.  The
    result geometry lies on both supporting planes within eps_dist; a
    clipped segment that degenerates to one point is a touch point.
    """
    p1 = prepare(t1, tol)
    p2 = prepare(t2, tol)
    pl1 = p1.plane
    relation = classify_planes(pl1, p2.plane, tol)
    if relation is PlaneRelation.PARALLEL:
        return CaseLabel.PARALLEL_PLANES, _PARALLEL
    if relation is PlaneRelation.COINCIDENT:
        return _coplanar_case(p1, p2.tri, tol)

    points = project_triangle_edges(p2.tri, pl1, tol)
    if points is None:
        # borderline coincidence: every vertex of t2 sits in the reference plane
        return _coplanar_case(p1, p2.tri, tol)
    if not points:
        return CaseLabel.CROSSING_PLANES_NO_CONTACT, _NO_CROSSING

    frame, window = p1.frame_window()
    e = to_plane(frame, points[0])
    x = e if len(points) == 1 else to_plane(frame, points[1])
    clip = clip_segment_to_triangle(e, x, window, tol)
    if not clip:
        return CaseLabel.CROSSING_PLANES_NO_CONTACT, _OUTSIDE
    if len(points) == 1:
        # clipped as the segment (e, e); reported as itself, not its round trip
        return CaseLabel.TOUCH_POINT, _new(IntersectionResult, ((points[0],), None))
    lifted = tuple(map(from_plane, (frame,) * len(clip), clip))
    if len(lifted) == 1:
        return CaseLabel.TOUCH_POINT, _new(IntersectionResult, (lifted, None))
    return CaseLabel.CROSSING_SEGMENT, _new(IntersectionResult, (lifted, None))


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
    * ``eps_dist * (1 + L)``: the coplanar path projects the vertices of
      ``t``, as the second triangle, onto the reference plane along its
      normal.  The planes count as coincident when their normals differ by
      a sine of at most eps_dist and the first vertex o of ``t`` lies within
      eps_dist of the reference plane, so a vertex v moves by at most
      eps_dist * (1 + |v - o|) <= eps_dist * (1 + L); the 1 alone covers a
      vertex taken as lying in the plane.
    * ``1e-12 * (1 + R)``: rounding, for chains of a few dozen float
      operations on coordinates of size R.
    """
    a, b, c = prepare(t, tol).tri
    edges = (dist3(a, b), dist3(b, c), dist3(c, a))
    longest = max(edges)
    area = 0.5 * vnorm(vcross(vsub(b, a), vsub(c, a)))
    inradius = 2.0 * area / sum(edges)
    reach = max(vnorm(a), vnorm(b), vnorm(c))
    return tol.eps_dist * (1.0 + longest + longest / inradius) + 1e-12 * (1.0 + reach)
