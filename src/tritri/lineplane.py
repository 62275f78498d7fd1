"""Intersection of a triangle's edges with a plane, by a vertex code.

Each vertex is coded -1, 0 or +1 by its signed distance to the plane,
taken from the plane's point, 0 meaning within eps_dist.  A 0-coded
vertex lies on the plane and is kept as it is; an edge whose ends carry
opposite non-zero codes crosses the plane, and its crossing is kept.
This is the rule of the exact oracle, applied to float distances.

The three codes are spelled inline.  Three equal codes answer at once:
all 0 is a triangle in the plane (None), all +1 or all -1 one wholly on
one side, which meets it nowhere (an empty list).
"""

import math

from .core import DEFAULT_TOLERANCE, Plane, Tolerance, Triangle3


def project_triangle_edges(tri: Triangle3, pl: Plane,
                           tol: Tolerance = DEFAULT_TOLERANCE) -> list[tuple] | None:
    """Distinct points where the triangle's boundary meets the plane.

    None when every vertex is 0-coded: the triangle lies in the plane.
    Otherwise 0, 1 or 2 points, each an exact ``(x, y, z)`` tuple, in the
    order the edges a-b, b-c, c-a reach them, with points within eps_dist
    of an earlier one merged.
    """
    a, b, c = tri
    q, w, u, (ox, oy, oz) = pl
    eps = tol.eps_dist
    da = q * (a[0] - ox) + w * (a[1] - oy) + u * (a[2] - oz)
    db = q * (b[0] - ox) + w * (b[1] - oy) + u * (b[2] - oz)
    dc = q * (c[0] - ox) + w * (c[1] - oy) + u * (c[2] - oz)
    sa = 0 if -eps <= da <= eps else (1 if da > 0.0 else -1)
    sb = 0 if -eps <= db <= eps else (1 if db > 0.0 else -1)
    sc = 0 if -eps <= dc <= eps else (1 if dc > 0.0 else -1)
    if sa == sb == sc:
        return [] if sa else None
    points: list[tuple] = []
    # a 0-coded vertex is added at its outgoing edge, as the oracle adds it
    for p1, d1, s1, p2, s2 in ((a, da, sa, b, sb), (b, db, sb, c, sc), (c, dc, sc, a, sa)):
        if not s1:
            pt = tuple(p1)
        elif s1 == -s2:
            m, n, o = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
            denom = q * m + w * n + u * o
            if abs(denom) <= eps:
                # exactly, opposite codes put |denom| above 2 eps_dist; where the
                # distances' rounding exceeds eps_dist (a pair whose own extent
                # is near 1e8) the crossing would fall off the edge, or denom be 0
                continue
            t = -d1 / denom
            pt = (p1[0] + t * m, p1[1] + t * n, p1[2] + t * o)
        else:
            continue
        # at most two edges yield a point, so a point has at most one earlier to merge with
        if points:
            x, y, z = pt[0] - points[0][0], pt[1] - points[0][1], pt[2] - points[0][2]
            if math.sqrt(x * x + y * y + z * z) <= eps:
                continue
        points.append(pt)
    return points
