"""Intersection of a triangle's edges with a plane.

An edge (p1, p2) is handled as ``p(t) = p1 + t * (p2 - p1)``; a hit counts
only when ``t`` stays within [0, 1] (up to ``eps_param``), so membership on
the edge is decided by the parameter alone.  Each vertex's signed distance
to the plane is computed once and shared by the two edges that meet there.
"""

import math

from .core import DEFAULT_TOLERANCE, Plane, Point3, Tolerance, Triangle3
from .errors import CoplanarEdges, ZeroLengthSegment


def project_triangle_edges(tri: Triangle3, pl: Plane, tol: Tolerance = DEFAULT_TOLERANCE) -> list[Point3]:
    """Distinct points where the triangle's edges meet the plane.

    ``tri`` must be non-degenerate (area at least eps_area), which
    ``prepare`` checks through ``plane_from_triangle``.  For a triangle
    whose plane properly intersects ``pl`` this is 0, 1 or 2 points
    (duplicates within eps_dist merged, edge order a-b, b-c, c-a).
    An edge lies in the plane when both its endpoints are within eps_dist
    of it, and then contributes both endpoints; an edge whose direction
    changes the signed distance by at most eps_dist per unit of t runs
    parallel to the plane and contributes nothing.  When two or more edges
    lie in the plane the triangle is coplanar with it and CoplanarEdges is
    raised.  An edge shorter than eps_dist that does not lie in the plane
    raises ZeroLengthSegment.
    """
    a, b, c = tri
    q, w, u, r = pl
    eps = tol.eps_dist
    da = q * a[0] + w * a[1] + u * a[2] + r
    db = q * b[0] + w * b[1] + u * b[2] + r
    dc = q * c[0] + w * c[1] + u * c[2] + r
    if abs(da) <= eps and abs(db) <= eps and abs(dc) <= eps:
        # all three vertices on the plane: every edge lies in it
        raise CoplanarEdges("triangle lies in the plane")
    lo, hi = -tol.eps_param, 1.0 + tol.eps_param
    points: list[Point3] = []
    for p1, d1, p2, d2 in ((a, da, b, db), (b, db, c, dc), (c, dc, a, da)):
        if abs(d1) <= eps and abs(d2) <= eps:
            candidates = (Point3(*p1), Point3(*p2))
        else:
            m, n, o = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
            if math.sqrt(m * m + n * n + o * o) <= eps:
                raise ZeroLengthSegment("segment endpoints coincide")
            # change of signed distance over one unit of t: a world-unit parallel test
            denom = q * m + w * n + u * o
            if abs(denom) <= eps:
                continue
            t = -d1 / denom
            if not lo <= t <= hi:
                continue
            candidates = (Point3(p1[0] + t * m, p1[1] + t * n, p1[2] + t * o),)
        for pt in candidates:
            for seen in points:
                x, y, z = pt[0] - seen[0], pt[1] - seen[1], pt[2] - seen[2]
                if math.sqrt(x * x + y * y + z * z) <= eps:
                    break
            else:
                points.append(pt)
    return points
