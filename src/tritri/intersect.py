"""Triangle-triangle intersection in 3D.

The first triangle's plane is the reference: the second triangle's edges
are intersected with it, and the resulting points are clipped in a 2D
frame of that plane against the first triangle's image.  Coincident planes
switch to the coplanar contour path in the same frame.  The plane and the
frame share one origin, the first triangle's first vertex.  A point maps
into the frame by projection along the normal, so a point near the plane
lands where its foot on the plane does; on the plane the map preserves
distances both ways, so what is clipped in the frame lifts back isometrically.

The normal, the frame's axes and the image (the window, kept as its three
side lines) belong to one triangle, not to a pair: ``prepare`` keeps them with
the triangle, so a triangle tested against many partners builds them once.

``intersect`` is one straight-line body on floats for raw, plain-sequence
and prepared triangles: it builds the normals, the plane relation, the
frame's maps and the lift inline.  It calls the frame and window build
(``_frame_window``), the orientation of a coplanar partner, and three
steps looked up in this module's globals, the boundaries that
``bench/tracing.py`` wraps: the edge crossings, the segment clip and the
coplanar contour.  A norm that is not finite or below the area gate takes
``_cold``: ``core.plane_from_triangle`` raises NonFiniteInput before
DegenerateTriangle, or the norm overflowed, and the same body runs on the
pair scaled by one power of two.  ``tests/test_kernel_reference.py`` holds
a reference kernel composed of one function per step, and requires the
same label, reason, error and point bits on every pair it draws.
"""

import math
from enum import Enum
from typing import NamedTuple

from .clip2d import Window, _clockwise, _window, clip_segment_to_triangle
from .coplanar import intersect_coplanar
from .core import DEFAULT_TOLERANCE, Point3, Tolerance, _scaled, plane_from_triangle
from .errors import DegenerateTriangle
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


class PreparedTriangle:
    """A checked triangle with the work that depends on it alone.

    ``normal`` is its unit normal ``(q, w, u)``.  The u and v axes of its
    plane's frame, anchored at ``tri[0]``, and its image in that frame (the
    window, as the side lines ``window_lines`` builds) are made on the first
    call of ``frame_window`` and kept.  All of it holds under ``tol``, under
    which ``intersect`` reads it; ``tol`` is None for a triangle whose norm
    may overflow, which ``intersect`` reads raw, as an unprepared one.
    """

    __slots__ = ("tri", "normal", "tol", "_frame_window")

    def __init__(self, tri: tuple, normal: Vec3, tol: Tolerance | None):
        self.tri = tri
        self.normal = normal
        self.tol = tol
        self._frame_window: tuple[tuple[Vec3, Vec3], Window] | None = None

    def frame_window(self) -> tuple[tuple[Vec3, Vec3], Window]:
        """The frame's ``(u_axis, v_axis)`` and the window's side lines in the frame.

        Built on the first call, in one pass: the axes, the three corners'
        frame coordinates as plain floats (no ``Point2``), and the side lines
        from those six floats by ``clip2d._window``.  Raises ValueError for a
        triangle prepared past 2**254 (the ``math.hypot`` of its nine
        coordinates), whose ``tol`` is None: it keeps no frame, and
        ``intersect`` reads it as a raw triangle.
        """
        if self._frame_window is None:
            if self.tol is None:
                raise ValueError("a triangle prepared past 2**254 keeps no frame (its tol is None)")
            q, w, u = self.normal
            self._frame_window = _frame_window(self.tri, q, w, u, self.tol)
        return self._frame_window

    def release(self) -> None:
        """Drop the kept frame and window; the next ``frame_window`` builds them again."""
        self._frame_window = None


def _frame_window(tri, nx: float, ny: float, nz: float, tol: Tolerance) -> tuple[tuple, Window]:
    """The frame axes of the plane through ``tri`` with unit normal (nx, ny, nz), and the window.

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
    return ((ux, uy, uz), (vx, vy, vz)), _window(au, av, bu, bv, cu, cv, tol)


def prepare(t, tol: Tolerance = DEFAULT_TOLERANCE) -> PreparedTriangle:
    """``t`` ready for ``intersect`` under ``tol``; ``t`` itself if it is prepared under ``tol``.

    ``t`` is a triangle of three 3D points, or a PreparedTriangle.  Its
    ``tri`` is a tuple of three exact ``(x, y, z)`` tuples: ``t`` itself
    if it is one, else a copy.  Raises NonFiniteInput and DegenerateTriangle
    on the checks ``intersect`` makes.
    """
    if isinstance(t, PreparedTriangle):
        if t.tol is tol or t.tol == tol:
            return t
        t = t.tri
    if not (type(t) is tuple and type(t[0]) is type(t[1]) is type(t[2]) is tuple):
        t = tuple(map(tuple, t))
    normal = plane_from_triangle(t, tol)[:3]
    # the norm, at most sqrt(192) M**2 for M the largest |coordinate|, may overflow: such
    # a triangle keeps no tolerance, so intersect reads it raw, and _cold takes it
    far = math.hypot(*t[0], *t[1], *t[2]) >= 2.0 ** 254
    return PreparedTriangle(t, normal, None if far else tol)


# one shared empty result per EmptyReason, in the enum's order, and the
# labels as module names: a global read costs less than a class attribute's
_PARALLEL, _DISJOINT, _NO_CROSSING, _OUTSIDE = (IntersectionResult(reason=r) for r in EmptyReason)
(_COPLANAR_NO_CONTACT, _COPLANAR_CONTOUR, _PARALLEL_PLANES, _CROSSING_NO_CONTACT, _TOUCH_POINT,
 _CROSSING_SEGMENT) = CaseLabel


def intersect(t1, t2, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CaseLabel, IntersectionResult]:
    """Classify and construct the intersection of two triangles.

    Each argument is a triangle of three 3D points or a PreparedTriangle
    from ``prepare``; the result is the same either way, and its kept work
    is read only when it holds under ``tol``.  Returns a
    (CaseLabel, IntersectionResult) pair.  The six labels cover coplanar
    contact and no-contact, parallel planes, crossing planes without
    contact, a single touch point, and a proper crossing segment.  The
    result geometry lies on both supporting planes within eps_dist; a
    clipped segment that degenerates to one point is a touch point.
    """
    return _intersect(t1, t2, tol, tol.eps_dist)


def _intersect(t1, t2, tol: Tolerance, sine: float) -> tuple[CaseLabel, IntersectionResult]:
    """``intersect``, ``sine`` bounding parallel planes' dihedral sine, which ``_cold`` does not scale."""
    # each unit normal, or the normal kept by prepare under tol; a norm that is
    # not finite, or below the area gate, takes _cold
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
            return _cold(t1, t2, tol, sine)
    else:
        q1, w1, u1 = kept.normal

    normal2 = None
    if isinstance(t2, PreparedTriangle):
        if t2.tol is tol or t2.tol == tol:
            normal2 = t2.normal
        t2 = t2.tri
    a2, b2, c2 = t2
    gx, gy, gz = a2
    if normal2 is None:
        ex, ey, ez = b2[0] - gx, b2[1] - gy, b2[2] - gz
        fx, fy, fz = c2[0] - gx, c2[1] - gy, c2[2] - gz
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        nn = _sqrt(nx * nx + ny * ny + nz * nz)
        if tol.eps_area <= 0.5 * nn < _INF:
            q2, w2, u2 = nx / nn, ny / nn, nz / nn
        else:
            return _cold(t1, t2, tol, sine)
    else:
        q2, w2, u2 = normal2

    # the normals' cross product is the sine of the dihedral angle; coincidence is
    # the distance of t2's first vertex from t1's plane, whichever way the normals point
    cq, cw, cu = w1 * u2 - u1 * w2, u1 * q2 - q1 * u2, q1 * w2 - w1 * q2
    if _sqrt(cq * cq + cw * cw + cu * cu) > sine:
        points = project_triangle_edges(t2, (q1, w1, u1, a1), tol)
        # None is a borderline coincidence: every vertex of t2 sits in t1's plane
        coplanar = points is None
        if not (coplanar or points):
            return _CROSSING_NO_CONTACT, _NO_CROSSING
    elif abs(q1 * (gx - ax) + w1 * (gy - ay) + u1 * (gz - az)) <= tol.eps_dist:
        coplanar = True
    else:
        return _PARALLEL_PLANES, _PARALLEL

    # the frame's origin is t1's first vertex (ax, ay, az), its axes u, v and the normal
    axes, window = _frame_window(t1, q1, w1, u1, tol) if kept is None else kept.frame_window()
    (ux, uy, uz), (vx, vy, vz) = axes
    if coplanar:
        # t2 in the frame, counter-clockwise as ccw_vertices orders it
        x, y, z = gx - ax, gy - ay, gz - az
        pu, pv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
        x, y, z = b2[0] - ax, b2[1] - ay, b2[2] - az
        qu, qv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
        x, y, z = c2[0] - ax, c2[1] - ay, c2[2] - az
        su, sv = x * ux + y * uy + z * uz, x * vx + y * vy + z * vz
        if _clockwise(pu, pv, qu, qv, su, sv, tol.eps_area):
            qu, qv, su, sv = su, sv, qu, qv
        clip = intersect_coplanar(window, [(pu, pv), (qu, qv), (su, sv)], tol)
        if not clip:
            return _COPLANAR_NO_CONTACT, _DISJOINT
        label = _COPLANAR_CONTOUR
    else:
        # the crossing points in the frame
        px, py, pz = points[0]
        x, y, z = px - ax, py - ay, pz - az
        e = end = (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz)
        if len(points) == 2:
            px, py, pz = points[1]
            x, y, z = px - ax, py - ay, pz - az
            end = (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz)
        clip = clip_segment_to_triangle(e, end, window, tol)
        if not clip:
            return _CROSSING_NO_CONTACT, _OUTSIDE
        if len(points) == 1:
            # clipped as the segment (e, e); reported as itself, not its round trip
            return _TOUCH_POINT, _new(IntersectionResult, ((_new(Point3, points[0]),), None))
        label = _TOUCH_POINT if len(clip) == 1 else _CROSSING_SEGMENT
    lifted = []  # a loop, not a comprehension, which would be one more call
    for u, v in clip:
        lifted.append(_new(Point3, (ax + u * ux + v * vx, ay + u * uy + v * vy, az + u * uz + v * vz)))
    return label, _new(IntersectionResult, (tuple(lifted), None))


def _cold(t1, t2, tol: Tolerance, sine: float) -> tuple[CaseLabel, IntersectionResult]:
    """``_intersect`` of a pair with a norm that is not finite or below the area gate.

    ``plane_from_triangle`` raises the first triangle's error, then the
    second's.  Otherwise a norm overflowed: the body runs on the normals,
    which do not scale, and on the pair scaled by 2**-k with its length
    tolerances (``core._scaled``); its points are scaled back.  Where the
    scale flushes the area of a partner some 2**1000 times smaller, which
    passed the gate unscaled, the body runs unscaled.
    """
    t2 = t2.tri if isinstance(t2, PreparedTriangle) else t2
    normals = plane_from_triangle(t1, tol)[:3], plane_from_triangle(t2, tol)[:3]
    k, scaled, small = _scaled((t1, t2), tol)
    try:
        label, result = _intersect(*[PreparedTriangle(s, n, small) for s, n in zip(scaled, normals)],
                                   small, sine)
    except DegenerateTriangle:
        return _intersect(PreparedTriangle(t1, normals[0], tol), PreparedTriangle(t2, normals[1], tol),
                          tol, sine)
    s = 2.0 ** k  # a product, not ldexp, so that a point past the float range is inf
    return label, result._replace(points=tuple([_new(Point3, (x * s, y * s, z * s))
                                                for x, y, z in result.points]))


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
    ex, ey, ez = bx - ax, by - ay, bz - az
    fx, fy, fz = cx - ax, cy - ay, cz - az
    nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    nn = _sqrt(nx * nx + ny * ny + nz * nz)
    return _margin(ax, ay, az, bx, by, bz, cx, cy, cz, nn, tol.eps_dist)


def _margin(ax: float, ay: float, az: float, bx: float, by: float, bz: float,
            cx: float, cy: float, cz: float, nn: float, eps: float) -> float:
    """``contact_margin`` of a checked triangle with these corners, under ``eps_dist`` ``eps``.

    ``nn`` is the norm of the cross product of the edges from the first
    corner, twice the area, as ``plane_from_triangle``'s area gate takes it:
    each caller has it already.
    """
    # each edge and each vertex as sqrt(x * x + y * y + z * z), flat
    x, y, z = ax - bx, ay - by, az - bz
    ab = _sqrt(x * x + y * y + z * z)
    x, y, z = bx - cx, by - cy, bz - cz
    bc = _sqrt(x * x + y * y + z * z)
    x, y, z = cx - ax, cy - ay, cz - az
    ca = _sqrt(x * x + y * y + z * z)
    longest = max(ab, bc, ca)
    area = 0.5 * nn
    inradius = 2.0 * area / (ab + bc + ca)
    reach = max(_sqrt(ax * ax + ay * ay + az * az), _sqrt(bx * bx + by * by + bz * bz),
                _sqrt(cx * cx + cy * cy + cz * cz))
    m = eps * (1.0 + longest + longest / inradius) + 1e-12 * (1.0 + reach)
    # overflowed squares can make it NaN: +inf instead grows a box over
    # everything, where a NaN would poison the hull of a mesh's boxes
    return m if m < _INF else _INF
