"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Before the clip,
the first triangle's vertices are coded against the second triangle's
plane (Moeller's first test, from the other side): a first triangle that
clears that plane by more than the clip's reach is rejected before its
frame is needed, with the reason PLANES_CROSS_NO_CONTACT, which otherwise
means that the second triangle misses the reference plane.  Coincident
planes switch to the coplanar contour path in the same frame.  The plane
and the frame share one origin, the first triangle's first vertex, and
``frame.to_plane`` is the one map from 3D into the frame; the window's
build repeats its expressions inline.

The plane, the frame and the image (the window, kept as its three side
lines) belong to one triangle, not to a pair: ``prepare`` keeps them with the
triangle, so a triangle tested against many partners builds them once.
"""

import math
from enum import Enum
from typing import NamedTuple

from .clip2d import Window, _side_lines, ccw_vertices, clip_segment_to_triangle
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
    under any other tolerance ``intersect`` computes it again and keeps
    nothing.
    """

    __slots__ = ("tri", "plane", "tol", "_frame_window")

    def __init__(self, tri: Triangle3, plane: Plane, tol: Tolerance):
        self.tri = tri
        self.plane = plane
        self.tol = tol
        self._frame_window: tuple[PlaneFrame, Window] | None = None

    def frame_window(self) -> tuple[PlaneFrame, Window]:
        """The reference frame anchored at the first vertex, and the window's side lines in it.

        Built on the first call, in one pass: the frame, the three corners'
        frame coordinates as plain floats (no ``Point2``), and the side lines
        from those six floats, bit for bit what ``build_frame``, ``to_plane``
        and ``window_lines`` give.
        """
        if self._frame_window is None:
            self._frame_window = _frame_window(self.tri, self.plane, self.tol)
        return self._frame_window

    def release(self) -> None:
        """Drop the kept frame and window; the next ``frame_window`` builds them again."""
        self._frame_window = None


def _frame_window(tri: Triangle3, plane: Plane, tol: Tolerance) -> tuple[PlaneFrame, Window]:
    """The frame of ``plane`` and the side lines of ``tri``'s image in it; see ``frame_window``."""
    frame = build_frame(plane)
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = frame
    _, b, c = tri
    # to_plane's expressions; the first vertex is the origin, so each of its
    # offsets is +0.0, and only its products keep the axes' signs of zero
    x, y, z = b[0] - ox, b[1] - oy, b[2] - oz
    bu, bv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
    x, y, z = c[0] - ox, c[1] - oy, c[2] - oz
    cu, cv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
    au, av = 0.0 * ux + 0.0 * uy + 0.0 * uz, 0.0 * vx + 0.0 * vy + 0.0 * vz
    return frame, _side_lines(au, av, bu, bv, cu, cv, tol)


def _tri_plane(t, tol: Tolerance) -> tuple[Triangle3, Plane]:
    """The triangle of ``t`` and its plane under ``tol``, taken from ``t`` if prepared under ``tol``.

    Raises NonFiniteInput and DegenerateTriangle on the checks ``intersect`` makes.
    """
    if isinstance(t, PreparedTriangle):
        if t.tol is tol or t.tol == tol:
            return t.tri, t.plane
        t = t.tri
    if not (type(t) is Triangle3 and type(t[0]) is type(t[1]) is type(t[2]) is Point3):
        t = Triangle3(Point3(*t[0]), Point3(*t[1]), Point3(*t[2]))
    return t, plane_from_triangle(t, tol)


def prepare(t, tol: Tolerance = DEFAULT_TOLERANCE) -> PreparedTriangle:
    """``t`` ready for ``intersect`` under ``tol``; ``t`` itself if it already is.

    ``t`` is a triangle of three 3D points, or a PreparedTriangle.  Raises
    NonFiniteInput and DegenerateTriangle on the checks ``intersect`` makes.
    """
    tri, plane = _tri_plane(t, tol)
    if isinstance(t, PreparedTriangle) and t.plane is plane:
        return t
    return PreparedTriangle(tri, plane, tol)


# one shared empty result per EmptyReason, in the enum's order
_PARALLEL, _DISJOINT, _NO_CROSSING, _OUTSIDE = (IntersectionResult(reason=r) for r in EmptyReason)


def _first_frame_window(t1, tri1: Triangle3, pl1: Plane, tol: Tolerance) -> tuple[PlaneFrame, Window]:
    """The first triangle's frame and window: kept with ``t1`` if it is prepared under ``tol``."""
    if isinstance(t1, PreparedTriangle) and t1.plane is pl1:
        return t1.frame_window()
    return _frame_window(tri1, pl1, tol)


def _coplanar_case(frame: PlaneFrame, window: Window, t2: Triangle3,
                   tol: Tolerance) -> tuple[CaseLabel, IntersectionResult]:
    a, b, c = t2
    clipped = ccw_vertices(to_plane(frame, a), to_plane(frame, b), to_plane(frame, c), tol)
    contour = intersect_coplanar(window, clipped, tol)
    if not contour:
        return CaseLabel.COPLANAR_NO_CONTACT, _DISJOINT
    lifted = tuple(map(from_plane, (frame,) * len(contour), contour))
    return CaseLabel.COPLANAR_CONTOUR, _new(IntersectionResult, (lifted, None))


def _clear_of_plane(t1: Triangle3, t2: Triangle3, pl2: Plane, tol: Tolerance) -> bool:
    """Whether ``t1`` lies on one side of ``t2``'s plane, out of the clip's reach.

    Moeller's first test, from the second triangle's side: the three
    vertices of ``t1`` are coded against ``pl2`` as ``project_triangle_edges``
    codes those of ``t2`` against ``t1``'s plane.  The clip accepts points
    up to eps_dist * L / r outside ``t1`` (L its longest edge, r its
    inradius; see ``contact_margin``), and a vertex of ``t2`` within
    eps_dist of ``t1``'s plane is taken as lying in it, so a contact is ruled
    out only when every vertex clears ``pl2`` by more than
    eps_dist * (1 + L / r) plus rounding.  That margin is computed only when
    the three codes agree, with L / r <= 3 L^2 / |e x f| (e, f the edges
    from the first vertex).
    """
    a, b, c = t1
    q, w, u, (ox, oy, oz) = pl2
    da = q * (a[0] - ox) + w * (a[1] - oy) + u * (a[2] - oz)
    db = q * (b[0] - ox) + w * (b[1] - oy) + u * (b[2] - oz)
    dc = q * (c[0] - ox) + w * (c[1] - oy) + u * (c[2] - oz)
    eps = tol.eps_dist
    if da > eps and db > eps and dc > eps:
        clearance = min(da, db, dc)
    elif da < -eps and db < -eps and dc < -eps:
        clearance = -max(da, db, dc)
    else:
        return False
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    fx, fy, fz = c[0] - ax, c[1] - ay, c[2] - az
    gx, gy, gz = fx - ex, fy - ey, fz - ez
    nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    # not 0: plane_from_triangle took the norm of this same cross product
    twice_area = math.hypot(nx, ny, nz)
    longest2 = max(ex * ex + ey * ey + ez * ez, fx * fx + fy * fy + fz * fz,
                   gx * gx + gy * gy + gz * gz)
    reach = max(map(abs, (*a, *b, *c, *t2[0], *t2[1], *t2[2])))
    # with edges past about 1e154 the squares overflow: the margin is NaN, and nothing is rejected
    return clearance > eps * (1.0 + 3.0 * longest2 / twice_area) + 1e-12 * (1.0 + reach)


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
    tri1, pl1 = _tri_plane(t1, tol)
    tri2, pl2 = _tri_plane(t2, tol)
    relation = classify_planes(pl1, pl2, tol)
    if relation is PlaneRelation.PARALLEL:
        return CaseLabel.PARALLEL_PLANES, _PARALLEL
    if relation is PlaneRelation.COINCIDENT:
        return _coplanar_case(*_first_frame_window(t1, tri1, pl1, tol), tri2, tol)

    points = project_triangle_edges(tri2, pl1, tol)
    if points is None:
        # borderline coincidence: every vertex of t2 sits in the reference plane
        return _coplanar_case(*_first_frame_window(t1, tri1, pl1, tol), tri2, tol)
    if not points or _clear_of_plane(tri1, tri2, pl2, tol):
        return CaseLabel.CROSSING_PLANES_NO_CONTACT, _NO_CROSSING

    frame, window = _first_frame_window(t1, tri1, pl1, tol)
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
