"""Scalar geometric primitives: points, triangles, planes and tolerances.

A plane is its unit normal and one point on it, the defining triangle's
first vertex.  Every signed distance is measured from that vertex, so its
rounding grows with the distance from the triangle, not from the world
origin.  Plane orientation follows the right-hand rule on the vertex order
of the defining triangle.
"""

import math
from typing import NamedTuple

from .errors import DegenerateTriangle, NonFiniteInput


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


def _scaled(shapes, tol: Tolerance):
    """``(k, shapes, tol)`` scaled by 2**-k: points and eps_dist by 2**-k, eps_area by 2**-2k.

    The one magnitude rule: k >= 0 puts the largest |coordinate| M below
    2**501, so that the kernel's products of two lengths, a cross product, a
    side line's offset, a 2D area or a doubled contour area, each at most
    2**19 M**2 < 2**1021, are finite.  The scale is exact but where a
    coordinate below 2**(k - 1022) turns subnormal; each tolerance is
    floored at the least subnormal.
    """
    k = max(math.frexp(max(abs(x) for shape in shapes for p in shape for x in p))[1] - 501, 0)
    s, tiny = math.ldexp(1.0, -k), math.ulp(0.0)
    small = tol._replace(eps_dist=max(math.ldexp(tol.eps_dist, -k), tiny),
                         eps_area=max(math.ldexp(tol.eps_area, -2 * k), tiny))
    return k, [[[x * s for x in p] for p in shape] for shape in shapes], small


def plane_from_triangle(t: Triangle3, tol: Tolerance = DEFAULT_TOLERANCE) -> Plane:
    """Supporting plane of a triangle, normal by the right-hand rule.

    Raises NonFiniteInput when a coordinate is NaN or infinite, then
    DegenerateTriangle when the area is below ``tol.eps_area``.  Such a
    coordinate makes an edge, hence the normal, hence its norm non-finite,
    so the coordinates are scanned only when the norm is.  When they are
    finite, the squares or the cross product overflowed (legs above about
    1e77), and the normal is taken again, with ``math.hypot``, from the
    triangle scaled by a power of two (``_scaled``).
    """
    a, b, c = t
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    fx, fy, fz = c[0] - ax, c[1] - ay, c[2] - az
    nx = ey * fz - ez * fy
    ny = ez * fx - ex * fz
    nz = ex * fy - ey * fx
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    k = 0
    if not math.isfinite(nn):
        if not all(math.isfinite(x) for v in t for x in v):
            raise NonFiniteInput("triangle coordinates must be finite")
        k, (((ax, ay, az), b, c),), tol = _scaled((t,), tol)
        ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
        fx, fy, fz = c[0] - ax, c[1] - ay, c[2] - az
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        nn = math.hypot(nx, ny, nz)
    if 0.5 * nn < tol.eps_area:
        raise DegenerateTriangle(f"triangle area {math.ldexp(0.5 * nn, 2 * k):g} below tolerance")
    return tuple.__new__(Plane, (nx / nn, ny / nn, nz / nn, a))
