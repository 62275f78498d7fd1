"""Orthonormal 2D coordinate frames embedded in a 3D plane.

The frame is anchored at the plane's point, its defining triangle's first
vertex, and maps it to the 2D origin.  ``to_plane`` projects a 3D point
along the normal, so a point near the plane lands where its foot on the
plane does; on the plane, the map preserves distances both ways, so
clipping done in frame coordinates lifts back isometrically.
"""

import math
from typing import NamedTuple

from .core import Plane, Point3, Vec3

_new = tuple.__new__  # builds a named tuple without its Python-level __new__


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
    nx, ny, nz, o = pl
    # the first axis of least |component|; d = seed . n, whose sign of zero
    # never reaches u, since a zero d makes u the seed itself
    if abs(nx) <= abs(ny) and abs(nx) <= abs(nz):
        sx, sy, sz, d = 1.0, 0.0, 0.0, nx
    elif abs(ny) <= abs(nz):
        sx, sy, sz, d = 0.0, 1.0, 0.0, ny
    else:
        sx, sy, sz, d = 0.0, 0.0, 1.0, nz
    ux, uy, uz = sx - d * nx, sy - d * ny, sz - d * nz
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / un, uy / un, uz / un
    v = (ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux)
    return _new(PlaneFrame, (o, (ux, uy, uz), v, (nx, ny, nz)))


def to_plane(f: PlaneFrame, p) -> Point2:
    """Frame coordinates of the foot of a 3D point on the frame's plane."""
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = f
    x, y, z = p[0] - ox, p[1] - oy, p[2] - oz
    return _new(Point2, (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz))


def from_plane(f: PlaneFrame, q) -> Point3:
    """Lift frame coordinates back to 3D."""
    u, v = q
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = f
    return _new(Point3, (ox + u * ux + v * vx, oy + u * uy + v * vy, oz + u * uz + v * vz))
