"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Coincident planes
switch to the coplanar contour path in the same frame.  The plane and the
frame share one origin, the first triangle's first vertex.  A point maps
into the frame by projection along the normal, so a point near the plane
lands where its foot on the plane does; on the plane the map preserves
distances both ways, so what is clipped in the frame lifts back isometrically.

The plane, the frame and the image (the window, kept as its three side
lines) belong to one triangle, not to a pair: ``prepare`` keeps them with the
triangle, so a triangle tested against many partners builds them once.

``intersect`` is one straight-line body on floats for raw, plain-sequence
and prepared triangles: it builds the normals, the plane relation, the
frame and the maps into and out of the frame inline.  A norm that is not
finite or below the area gate takes ``core.plane_from_triangle``, which
raises NonFiniteInput before DegenerateTriangle.  The edge crossings
(``lineplane.project_triangle_edges``), the segment clip
(``clip2d.clip_segment_to_triangle``) and the coplanar contour
(``coplanar.intersect_coplanar``) are calls.  ``tests/test_kernel_reference.py``
holds a reference kernel composed of separate plane, frame and map
functions, and requires the same label, reason, error and point bits on
every pair it draws.
"""

import math
from enum import Enum
from typing import NamedTuple

from .clip2d import Point2, Window, _clockwise, _side_lines, clip_segment_to_triangle
from .coplanar import intersect_coplanar
from .core import DEFAULT_TOLERANCE, Plane, Point3, Tolerance, Triangle3, plane_from_triangle
from .lineplane import project_triangle_edges

_new = tuple.__new__  # builds a named tuple without its Python-level __new__
_sqrt = math.sqrt
_INF = math.inf

Vec3 = tuple[float, float, float]


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


class PlaneFrame(NamedTuple):
    """Right-handed orthonormal frame (u, v, n) of a plane, u x v = n, anchored at ``origin``."""

    origin: Point3
    u_axis: Vec3
    v_axis: Vec3
    n_axis: Vec3


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
        from those six floats, as ``window_lines`` builds them.
        """
        if self._frame_window is None:
            q, w, u, _ = self.plane
            self._frame_window = _frame_window(self.tri, q, w, u, self.tol)
        return self._frame_window

    def release(self) -> None:
        """Drop the kept frame and window; the next ``frame_window`` builds them again."""
        self._frame_window = None


def _frame_window(tri, nx: float, ny: float, nz: float, tol: Tolerance) -> tuple[PlaneFrame, Window]:
    """The frame of the plane through ``tri`` with unit normal (nx, ny, nz), and the window in it.

    See ``PreparedTriangle.frame_window``.
    """
    a, b, c = tri
    # the u axis is seeded from the first axis of least |component|;
    # d = seed . n, whose sign of zero never reaches u, since a zero d makes u the seed itself
    if abs(nx) <= abs(ny) and abs(nx) <= abs(nz):
        sx, sy, sz, d = 1.0, 0.0, 0.0, nx
    elif abs(ny) <= abs(nz):
        sx, sy, sz, d = 0.0, 1.0, 0.0, ny
    else:
        sx, sy, sz, d = 0.0, 0.0, 1.0, nz
    ux, uy, uz = sx - d * nx, sy - d * ny, sz - d * nz
    un = _sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / un, uy / un, uz / un
    vx, vy, vz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
    # the corners in the frame; the first vertex is the origin, so each of its
    # offsets is +0.0, and only its products keep the axes' signs of zero
    ox, oy, oz = a
    x, y, z = b[0] - ox, b[1] - oy, b[2] - oz
    bu, bv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
    x, y, z = c[0] - ox, c[1] - oy, c[2] - oz
    cu, cv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
    au, av = 0.0 * ux + 0.0 * uy + 0.0 * uz, 0.0 * vx + 0.0 * vy + 0.0 * vz
    frame = _new(PlaneFrame, (a, (ux, uy, uz), (vx, vy, vz), (nx, ny, nz)))
    return frame, _side_lines(au, av, bu, bv, cu, cv, tol.eps_area)


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


# one shared empty result per EmptyReason, in the enum's order, and the
# labels as module names: a global read costs less than a class attribute's
_PARALLEL, _DISJOINT, _NO_CROSSING, _OUTSIDE = (IntersectionResult(reason=r) for r in EmptyReason)
(_COPLANAR_NO_CONTACT, _COPLANAR_CONTOUR, _PARALLEL_PLANES, _CROSSING_NO_CONTACT, _TOUCH_POINT,
 _CROSSING_SEGMENT) = CaseLabel


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
    eps = tol.eps_dist
    # each unit normal, or the plane kept by prepare under tol; a norm that is
    # not finite, or below the area gate, takes plane_from_triangle, which
    # raises or takes the normal again from rescaled coordinates
    kept = None  # t1 prepared under tol: its frame and window are kept with it
    if isinstance(t1, PreparedTriangle):
        if t1.tol is tol or t1.tol == tol:
            kept = t1
        t1 = t1.tri
    a1, b1, c1 = t1
    ax, ay, az = a1
    if kept is None:
        ex, ey, ez = b1[0] - ax, b1[1] - ay, b1[2] - az
        fx, fy, fz = c1[0] - ax, c1[1] - ay, c1[2] - az
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        nn = _sqrt(nx * nx + ny * ny + nz * nz)
        if tol.eps_area <= 0.5 * nn < _INF:
            q1, w1, u1 = nx / nn, ny / nn, nz / nn
        else:
            q1, w1, u1, _ = plane_from_triangle(t1, tol)
    else:
        q1, w1, u1, _ = kept.plane

    plane2 = None
    if isinstance(t2, PreparedTriangle):
        if t2.tol is tol or t2.tol == tol:
            plane2 = t2.plane
        t2 = t2.tri
    a2, b2, c2 = t2
    gx, gy, gz = a2
    if plane2 is None:
        ex, ey, ez = b2[0] - gx, b2[1] - gy, b2[2] - gz
        fx, fy, fz = c2[0] - gx, c2[1] - gy, c2[2] - gz
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        nn = _sqrt(nx * nx + ny * ny + nz * nz)
        if tol.eps_area <= 0.5 * nn < _INF:
            q2, w2, u2 = nx / nn, ny / nn, nz / nn
        else:
            q2, w2, u2, _ = plane_from_triangle(t2, tol)
    else:
        q2, w2, u2, _ = plane2

    # the normals' cross product is the sine of the dihedral angle; coincidence is
    # the distance of t2's first vertex from t1's plane, whichever way the normals point
    cq, cw, cu = w1 * u2 - u1 * w2, u1 * q2 - q1 * u2, q1 * w2 - w1 * q2
    if _sqrt(cq * cq + cw * cw + cu * cu) > eps:
        points = project_triangle_edges(t2, (q1, w1, u1, a1), tol)
        # None is a borderline coincidence: every vertex of t2 sits in t1's plane
        coplanar = points is None
        if not (coplanar or points):
            return _CROSSING_NO_CONTACT, _NO_CROSSING
    elif abs(q1 * (gx - ax) + w1 * (gy - ay) + u1 * (gz - az)) <= eps:
        coplanar = True
    else:
        return _PARALLEL_PLANES, _PARALLEL

    frame, window = _frame_window(t1, q1, w1, u1, tol) if kept is None else kept.frame_window()
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = frame
    if coplanar:
        # t2 in the frame, counter-clockwise as ccw_vertices orders it
        mapped = []
        for px, py, pz in t2:
            x, y, z = px - ox, py - oy, pz - oz
            mapped.append((x * ux + y * uy + z * uz, x * vx + y * vy + z * vz))
        (pu, pv), (qu, qv), (su, sv) = mapped
        if _clockwise(pu, pv, qu, qv, su, sv, tol.eps_area):
            mapped[1], mapped[2] = mapped[2], mapped[1]
        clip = intersect_coplanar(window, mapped, tol)
        if not clip:
            return _COPLANAR_NO_CONTACT, _DISJOINT
        label = _COPLANAR_CONTOUR
    else:
        # the crossing points in the frame
        px, py, pz = points[0]
        x, y, z = px - ox, py - oy, pz - oz
        e = end = _new(Point2, (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz))
        if len(points) == 2:
            px, py, pz = points[1]
            x, y, z = px - ox, py - oy, pz - oz
            end = _new(Point2, (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz))
        clip = clip_segment_to_triangle(e, end, window, tol)
        if not clip:
            return _CROSSING_NO_CONTACT, _OUTSIDE
        if len(points) == 1:
            # clipped as the segment (e, e); reported as itself, not its round trip
            return _TOUCH_POINT, _new(IntersectionResult, ((points[0],), None))
        label = _TOUCH_POINT if len(clip) == 1 else _CROSSING_SEGMENT
    lifted = tuple([_new(Point3, (ox + u * ux + v * vx, oy + u * uy + v * vy, oz + u * uz + v * vz))
                    for u, v in clip])
    return label, _new(IntersectionResult, (lifted, None))


def contact_margin(t, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Distance from ``t`` within which ``intersect`` reports its contacts with ``t``.

    If ``intersect`` returns a contact label for ``(t, s)`` or ``(s, t)``,
    some reported point lies within ``contact_margin(t)`` of ``t`` and
    within ``contact_margin(s)`` of ``s``, so the bounding boxes of the two
    triangles, grown by their margins, overlap.  ``t`` may be prepared.
    Raises NonFiniteInput and DegenerateTriangle on the per-triangle checks
    ``intersect`` starts with.  It is +inf where its terms overflow.

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
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = prepare(t, tol).tri
    return _margin(ax, ay, az, bx, by, bz, cx, cy, cz, tol.eps_dist)


def _margin(ax: float, ay: float, az: float, bx: float, by: float, bz: float,
            cx: float, cy: float, cz: float, eps: float) -> float:
    """``contact_margin`` of a checked triangle with these corners, under ``eps_dist`` ``eps``."""
    # each edge, the cross product and each vertex as sqrt(x * x + y * y + z * z), flat
    x, y, z = ax - bx, ay - by, az - bz
    ab = _sqrt(x * x + y * y + z * z)
    x, y, z = bx - cx, by - cy, bz - cz
    bc = _sqrt(x * x + y * y + z * z)
    x, y, z = cx - ax, cy - ay, cz - az
    ca = _sqrt(x * x + y * y + z * z)
    longest = max(ab, bc, ca)
    ex, ey, ez = bx - ax, by - ay, bz - az
    fx, fy, fz = cx - ax, cy - ay, cz - az
    nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    area = 0.5 * _sqrt(nx * nx + ny * ny + nz * nz)
    inradius = 2.0 * area / (ab + bc + ca)
    reach = max(_sqrt(ax * ax + ay * ay + az * az), _sqrt(bx * bx + by * by + bz * bz),
                _sqrt(cx * cx + cy * cy + cz * cz))
    m = eps * (1.0 + longest + longest / inradius) + 1e-12 * (1.0 + reach)
    # overflowed squares can make it NaN: +inf instead grows a box over
    # everything, where a NaN would poison the hull of a mesh's boxes
    return m if m < _INF else _INF
