"""Contour of two coplanar triangles by half-plane clipping.

The clipped triangle is clipped in turn against the window's three inside
half-planes (Sutherland & Hodgman, CACM 1974).  Each pass keeps the part
of the polygon on the interior side of one window side line, so after
three passes what is left is the overlap of the two triangles: a convex
polygon with 3 to 6 vertices, or nothing.  A triangle contained in the
other comes back as a 3-vertex contour.

Touching contacts are not overlap: a shared edge, a shared vertex or a
corner graze leaves a polygon whose area is below ``eps_area``, and the
pair has no contour.
"""

from .clip2d import Window, _dist2, _lerp2
from .core import DEFAULT_TOLERANCE, Tolerance
from .frame import Point2


def intersect_coplanar(window: Window, clipped, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[Point2, ...]:
    """Overlap of two coplanar triangles given in one 2D frame: () or 3 to 6 vertices.

    Consecutive vertices within ``eps_dist`` of each other are merged, and
    an overlap of area at most ``eps_area`` counts as none.  The contour
    is counter-clockwise, since the window's side lines are built from
    corners in that order and ``clipped`` holds three points ordered by
    ``ccw_vertices``.
    """
    poly = list(clipped)
    for l1, l2, l3 in window:
        if not poly:
            break
        kept: list[Point2] = []
        for k, s in enumerate(poly):
            e = poly[(k + 1) % len(poly)]
            ds = l1 * s.u + l2 * s.v + l3
            de = l1 * e.u + l2 * e.v + l3
            if ds >= 0.0:
                kept.append(s)
                if de < 0.0:
                    kept.append(_lerp2(s, e, ds / (ds - de)))
            elif de >= 0.0:
                kept.append(_lerp2(s, e, ds / (ds - de)))
        poly = kept

    cleaned: list[Point2] = []
    for pt in poly:
        if not cleaned or _dist2(cleaned[-1], pt) > tol.eps_dist:
            cleaned.append(pt)
    while len(cleaned) > 1 and _dist2(cleaned[0], cleaned[-1]) <= tol.eps_dist:
        cleaned.pop()
    if len(cleaned) < 3:
        return ()
    ring = zip(cleaned, cleaned[1:] + cleaned[:1])
    doubled = sum(au * bv - av * bu for (au, av), (bu, bv) in ring)
    if abs(doubled) / 2.0 <= tol.eps_area:
        return ()
    return tuple(cleaned)
