"""Intersection of a triangle's edges with a plane, by a vertex code.

Each vertex is coded -1, 0 or +1 by its signed distance to the plane,
0 meaning within eps_dist.  A 0-coded vertex lies on the plane and is kept
as it is; an edge whose ends carry opposite non-zero codes crosses the
plane, and its crossing is kept.  This is the rule of the exact oracle,
applied to float distances.
"""

import math

from .core import DEFAULT_TOLERANCE, Plane, Point3, Tolerance, Triangle3


def _code(d: float, eps: float) -> int:
    return 0 if -eps <= d <= eps else (1 if d > 0.0 else -1)


def project_triangle_edges(tri: Triangle3, pl: Plane,
                           tol: Tolerance = DEFAULT_TOLERANCE) -> list[Point3] | None:
    """Distinct points where the triangle's boundary meets the plane.

    None when every vertex is 0-coded: the triangle lies in the plane.
    Otherwise 0, 1 or 2 points, in the order the edges a-b, b-c, c-a
    reach them, with points within eps_dist of an earlier one merged.
    """
    a, b, c = tri
    q, w, u, r = pl
    eps = tol.eps_dist
    da = q * a[0] + w * a[1] + u * a[2] + r
    db = q * b[0] + w * b[1] + u * b[2] + r
    dc = q * c[0] + w * c[1] + u * c[2] + r
    sa, sb, sc = _code(da, eps), _code(db, eps), _code(dc, eps)
    if not (sa or sb or sc):
        return None
    points: list[Point3] = []
    # a 0-coded vertex is added at its outgoing edge; the oracle also adds it
    # at its incoming edge, which carries no crossing, so the order agrees
    for p1, d1, s1, p2, s2 in ((a, da, sa, b, sb), (b, db, sb, c, sc), (c, dc, sc, a, sa)):
        if not s1:
            pt = Point3(*p1)
        elif s1 == -s2:
            m, n, o = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
            denom = q * m + w * n + u * o
            if abs(denom) <= eps:
                # exactly, opposite codes put |denom| above 2 eps_dist; where the
                # distances' rounding exceeds eps_dist (coordinates near 1e8) the
                # crossing would fall off the edge, or denom be 0
                continue
            t = -d1 / denom
            pt = Point3(p1[0] + t * m, p1[1] + t * n, p1[2] + t * o)
        else:
            continue
        for seen in points:
            x, y, z = pt[0] - seen[0], pt[1] - seen[1], pt[2] - seen[2]
            if math.sqrt(x * x + y * y + z * z) <= eps:
                break
        else:
            points.append(pt)
    return points
