"""Orthonormal 2D coordinate frames embedded in a 3D plane.

The frame is anchored at the plane's point, its defining triangle's first
vertex, and maps it to the 2D origin.  ``to_plane`` projects a 3D point
along the normal, so a point near the plane lands where its foot on the
plane does; on the plane, the map preserves distances both ways, so
clipping done in frame coordinates lifts back isometrically.
"""

import math
from typing import NamedTuple

from .core import Plane, Point3, Vec3, vcross, vdot


class Point2(NamedTuple):
    u: float
    v: float


class PlaneFrame(NamedTuple):
    origin: Point3
    u_axis: Vec3
    v_axis: Vec3
    n_axis: Vec3


def build_frame(pl: Plane) -> PlaneFrame:
    """Right-handed orthonormal frame (u, v, n) with u x v = n, anchored at ``pl.o``.

    The u axis is seeded from the global axis least aligned with the
    normal and Gram-Schmidt projected into the plane.
    """
    n = (pl.q, pl.w, pl.u)
    comps = (abs(n[0]), abs(n[1]), abs(n[2]))
    k = comps.index(min(comps))
    seed = [0.0, 0.0, 0.0]
    seed[k] = 1.0
    d = vdot(seed, n)
    u = (seed[0] - d * n[0], seed[1] - d * n[1], seed[2] - d * n[2])
    un = math.sqrt(vdot(u, u))
    u = (u[0] / un, u[1] / un, u[2] / un)
    v = vcross(n, u)
    return PlaneFrame(pl.o, u, v, n)


def to_plane(f: PlaneFrame, p) -> Point2:
    """Frame coordinates of the foot of a 3D point on the frame's plane."""
    o, ua, va = f.origin, f.u_axis, f.v_axis
    x, y, z = p[0] - o[0], p[1] - o[1], p[2] - o[2]
    return Point2(x * ua[0] + y * ua[1] + z * ua[2], x * va[0] + y * va[1] + z * va[2])


def from_plane(f: PlaneFrame, q) -> Point3:
    """Lift frame coordinates back to 3D."""
    u, v = q
    o, ua, va = f.origin, f.u_axis, f.v_axis
    return Point3(
        o[0] + u * ua[0] + v * va[0],
        o[1] + u * ua[1] + v * va[1],
        o[2] + u * ua[2] + v * va[2],
    )
