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

Each pass walks the edges from the polygon's first vertex and carries an
edge's end, with its distance to the line, over as the next edge's start,
so every vertex is unpacked and measured once per pass.
"""

import math

from .clip2d import Window
from .core import DEFAULT_TOLERANCE, Tolerance


def intersect_coplanar(window: Window, clipped, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[tuple, ...]:
    """Overlap of two coplanar triangles given in one 2D frame: () or 3 to 6 vertices.

    Consecutive vertices within ``eps_dist`` of each other are merged, and
    an overlap of area at most ``eps_area`` counts as none.  The contour
    is counter-clockwise, since the window's side lines are built from
    corners in that order and ``clipped`` holds three points ordered by
    ``ccw_vertices``.
    """
    poly = list(map(tuple, clipped))  # exact tuples are taken as they are
    for l1, l2, l3 in window:
        if not poly:
            break
        kept: list[tuple] = []
        s = poly[0]
        su, sv = s
        ds = l1 * su + l2 * sv + l3
        poly.append(s)  # the closing edge ends where the first one starts
        for e in poly[1:]:
            eu, ev = e
            de = l1 * eu + l2 * ev + l3
            if ds >= 0.0:
                kept.append(s)
                if de < 0.0:
                    t = ds / (ds - de)
                    kept.append((su + t * (eu - su), sv + t * (ev - sv)))
            elif de >= 0.0:
                t = ds / (ds - de)
                kept.append((su + t * (eu - su), sv + t * (ev - sv)))
            s, su, sv, ds = e, eu, ev, de
        poly = kept

    eps = tol.eps_dist
    cleaned: list[tuple] = []
    for pt in poly:
        if not cleaned or math.dist(cleaned[-1], pt) > eps:
            cleaned.append(pt)
    while len(cleaned) > 1 and math.dist(cleaned[0], cleaned[-1]) <= eps:
        cleaned.pop()
    if len(cleaned) < 3:
        return ()
    # left to right from the edge (first, second), so the rounding does not hang on sum()
    doubled = 0.0
    for (au, av), (bu, bv) in zip(cleaned, cleaned[1:] + cleaned[:1]):
        doubled += au * bv - av * bu
    if abs(doubled) / 2.0 <= tol.eps_area:
        return ()
    return tuple(cleaned)
