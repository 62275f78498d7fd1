"""Scalar geometric primitives: points, triangles, planes and tolerances.

A plane is its unit normal and one point on it, the defining triangle's
first vertex.  Every signed distance is measured from that vertex, so its
rounding grows with the distance from the triangle, not from the world
origin.  Plane orientation follows the right-hand rule on the vertex order
of the defining triangle.
"""

import math
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateTriangle, NonFiniteInput

Vec3 = tuple[float, float, float]


class Point3(NamedTuple):
    x: float
    y: float
    z: float


class Triangle3(NamedTuple):
    a: Point3
    b: Point3
    c: Point3


class Plane(NamedTuple):
    """Plane through ``o`` with unit normal ``(q, w, u)``."""

    q: float
    w: float
    u: float
    o: Point3


class _ToleranceFields(NamedTuple):
    eps_dist: float = 1e-9
    eps_area: float = 1e-12
    eps_param: float = 1e-9


class Tolerance(_ToleranceFields):
    """Tolerances used by every predicate in the kernel; each positive and finite.

    eps_dist  -- absolute distances (point on plane, point merging)
    eps_area  -- degenerate-triangle gate on the triangle area
    eps_param -- not read by the kernel; kept for callers that still pass it

    A named tuple, so that importing the package loads neither
    ``dataclasses`` nor ``inspect``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0.0 < eps < math.inf for eps in self):
            raise ValueError("tolerances must be positive and finite")
        return self

    @classmethod
    def _make(cls, iterable):
        # the route of ``_replace``, which would otherwise skip the check
        return cls(*iterable)


DEFAULT_TOLERANCE = Tolerance()


class PlaneRelation(Enum):
    COINCIDENT = "coincident"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"


def plane_from_triangle(t: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> Plane:
    """Supporting plane of a triangle, normal by the right-hand rule.

    Raises NonFiniteInput when a coordinate is NaN or infinite, then
    DegenerateTriangle when the area is below ``tol.eps_area``.  Such a
    coordinate makes an edge, hence the normal, hence its norm non-finite,
    so the coordinates are scanned only when the norm is.  When they are
    finite, the squares overflowed (legs above about 1e77), and the norm is
    taken again with ``math.hypot``, which does not square.
    """
    a, b, c = t
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    fx, fy, fz = c[0] - ax, c[1] - ay, c[2] - az
    nx = ey * fz - ez * fy
    ny = ez * fx - ex * fz
    nz = ex * fy - ey * fx
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not math.isfinite(nn):
        if not all(math.isfinite(x) for v in t for x in v):
            raise NonFiniteInput("triangle coordinates must be finite")
        nn = math.hypot(nx, ny, nz)
    if 0.5 * nn < tol.eps_area:
        raise DegenerateTriangle(f"triangle area {0.5 * nn:g} below tolerance")
    return tuple.__new__(Plane, (nx / nn, ny / nn, nz / nn, a))


def signed_distance(p, pl: Plane) -> float:
    """Metric signed distance of a point to a plane (normal side positive)."""
    o = pl.o
    return pl.q * (p[0] - o[0]) + pl.w * (p[1] - o[1]) + pl.u * (p[2] - o[2])


def classify_planes(p1: Plane, p2: Plane, tol: Tolerance = DEFAULT_TOLERANCE) -> PlaneRelation:
    """Coincident, parallel or intersecting.

    Normals are unit length, so the cross-product norm is the sine of the
    dihedral angle.  Coincidence is tested by the distance of p2's point
    from p1, as the oracle tests it, and tolerates opposite normal
    orientation.
    """
    q1, w1, u1, _ = p1
    q2, w2, u2, o2 = p2
    cq, cw, cu = w1 * u2 - u1 * w2, u1 * q2 - q1 * u2, q1 * w2 - w1 * q2
    if math.sqrt(cq * cq + cw * cw + cu * cu) > tol.eps_dist:
        return PlaneRelation.INTERSECTING
    if abs(signed_distance(o2, p1)) <= tol.eps_dist:
        return PlaneRelation.COINCIDENT
    return PlaneRelation.PARALLEL
