"""Scalar geometric primitives: points, triangles, planes and tolerances.

Planes are stored with a unit normal, so ``signed_distance`` is a metric
distance.  Plane orientation follows the right-hand rule on the vertex
order of the defining triangle.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateTriangle

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
    """Plane ``q*x + w*y + u*z + r = 0`` with ``(q, w, u)`` unit length."""

    q: float
    w: float
    u: float
    r: float


@dataclass(frozen=True)
class Tolerance:
    """Tolerances used by every predicate in the kernel.

    eps_dist  -- absolute distances (point on plane, point merging)
    eps_area  -- degenerate-triangle gate on the triangle area
    eps_param -- not read by the kernel; kept for callers that still pass it
    """

    eps_dist: float = 1e-9
    eps_area: float = 1e-12
    eps_param: float = 1e-9

    def __post_init__(self):
        if not (self.eps_dist > 0.0 and self.eps_area > 0.0 and self.eps_param > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOLERANCE = Tolerance()


class PlaneRelation(Enum):
    COINCIDENT = "coincident"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"


def vsub(a, b) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vdot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a, b) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vnorm(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def dist3(a, b) -> float:
    return vnorm(vsub(a, b))


def plane_from_triangle(t: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> Plane:
    """Supporting plane of a triangle, normal by the right-hand rule.

    Raises DegenerateTriangle when the area is below ``tol.eps_area``.
    """
    n = vcross(vsub(t[1], t[0]), vsub(t[2], t[0]))
    nn = vnorm(n)
    if 0.5 * nn < tol.eps_area:
        raise DegenerateTriangle(f"triangle area {0.5 * nn:g} below tolerance")
    q, w, u = n[0] / nn, n[1] / nn, n[2] / nn
    a = t[0]
    return Plane(q, w, u, -(q * a[0] + w * a[1] + u * a[2]))


def signed_distance(p, pl: Plane) -> float:
    """Metric signed distance of a point to a plane (normal side positive)."""
    return pl.q * p[0] + pl.w * p[1] + pl.u * p[2] + pl.r


def classify_planes(p1: Plane, p2: Plane, tol: Tolerance = DEFAULT_TOLERANCE) -> PlaneRelation:
    """Coincident, parallel or intersecting.

    Normals are unit length, so the cross-product norm is the sine of the
    dihedral angle.  Coincidence is tested by distance and tolerates
    opposite normal orientation.
    """
    c = vcross((p1.q, p1.w, p1.u), (p2.q, p2.w, p2.u))
    if vnorm(c) > tol.eps_dist:
        return PlaneRelation.INTERSECTING
    # foot of p2 closest to the origin, measured against p1
    foot = (-p2.r * p2.q, -p2.r * p2.w, -p2.r * p2.u)
    if abs(signed_distance(foot, p1)) <= tol.eps_dist:
        return PlaneRelation.COINCIDENT
    return PlaneRelation.PARALLEL
