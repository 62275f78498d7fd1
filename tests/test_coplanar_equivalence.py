"""Coplanar pairs through ``intersect`` against the exact oracle.

Each family builds the second triangle from exact dyadic combinations
a + al (b - a) + be (c - a) of the first triangle's vertices, so the pair
is coplanar as a rational statement, and the (al, be) coordinates place
it against the first triangle's corners (0, 0), (1, 0) and (0, 1):
touching along an edge or at a vertex, grazing a corner, containing or
contained, or with a vertex exactly on a side.
"""

import math
import random
from fractions import Fraction

import pytest

from tritri import CaseLabel, Point3, Triangle3, intersect
from tritri.clip2d import window_lines
from tritri.core import DEFAULT_TOLERANCE, plane_from_triangle
from tritri.coplanar import intersect_coplanar
from tritri.oracle import as_floats, oracle_intersect

from conftest import (GRID, build_frame, ccw_vertices, contours_match, from_plane, grid_triangle,
                      result_matches_oracle, to_plane)

SLACK_FLOOR = 1e-8  # as in acceptance criterion 2
PAIRS_PER_FAMILY = 150


def _dyadic(rng, lo, hi):
    return rng.randint(round(lo * GRID), round(hi * GRID)) / GRID


def _shared_edge(rng):
    # edge (0, 0)-(1, 0) shared, the third vertex below it
    return (0.0, 0.0), (1.0, 0.0), (_dyadic(rng, -2.0, 2.0), -_dyadic(rng, 0.25, 2.0))


def _shared_vertex(rng):
    # corner (0, 0) shared, the other two vertices anywhere
    return (0.0, 0.0), (_dyadic(rng, -2.0, 2.0), _dyadic(rng, -2.0, 2.0)), \
        (_dyadic(rng, -2.0, 2.0), _dyadic(rng, -2.0, 2.0))


def _corner_graze(rng):
    # an edge on the line be = al - 1 through the corner (1, 0), which meets
    # the first triangle only there; the third vertex on the far side of it
    s, t = _dyadic(rng, 0.25, 2.0), _dyadic(rng, 0.25, 2.0)
    return (1.0 - s, -s), (1.0 + t, t), (_dyadic(rng, 1.5, 3.0), -_dyadic(rng, 0.25, 2.0))


def _clipped_inside(rng):
    # strictly inside, at least 1/GRID from every side in (al, be) units
    lo, hi = 1.0 / GRID, 1.0 - 1.0 / GRID
    while True:
        pts = [(_dyadic(rng, lo, hi), _dyadic(rng, lo, hi)) for _ in range(3)]
        if all(al + be <= hi for al, be in pts) and _area2(pts) > 0.01:
            return tuple(pts)


def _window_inside(rng):
    s = [_dyadic(rng, 0.0, 1.0) for _ in range(3)]
    return (-s[0], -s[0]), (2.0 + s[1] + s[0], -s[0]), (-s[0], 2.0 + s[2] + s[0])


def _vertex_on_side(rng):
    # one vertex exactly on the side (0, 0)-(1, 0), the others anywhere
    return (_dyadic(rng, 0.0, 1.0), 0.0), (_dyadic(rng, -2.0, 2.0), _dyadic(rng, -2.0, 2.0)), \
        (_dyadic(rng, -2.0, 2.0), _dyadic(rng, -2.0, 2.0))


FAMILIES = {
    "shared_edge": _shared_edge,
    "shared_vertex": _shared_vertex,
    "corner_graze": _corner_graze,
    "clipped_inside": _clipped_inside,
    "window_inside": _window_inside,
    "vertex_on_side": _vertex_on_side,
}


def _area2(pts):
    (a, b), (c, d), (e, f) = pts
    return abs((c - a) * (f - b) - (d - b) * (e - a)) / 2.0


def _in_plane(t1, params):
    a, b, c = t1
    return Triangle3(*(Point3(*(a[i] + al * (b[i] - a[i]) + be * (c[i] - a[i]) for i in range(3)))
                       for al, be in params))


def _pairs(family, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < PAIRS_PER_FAMILY:
        t1 = grid_triangle(rng)
        params = FAMILIES[family](rng)
        if _area2(params) > 0.0:
            pairs.append((t1, _in_plane(t1, params)))
    return pairs


def _vector_area(points):
    """Length of the polygon's vector area; exact up to the final square root."""
    sx = sy = sz = 0
    for p, q in zip(points, points[1:] + points[:1]):
        sx += p[1] * q[2] - p[2] * q[1]
        sy += p[2] * q[0] - p[0] * q[2]
        sz += p[0] * q[1] - p[1] * q[0]
    return math.sqrt(float(sx * sx + sy * sy + sz * sz)) / 2.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coplanar_family_matches_oracle(family):
    labels = set()
    checked = 0
    for t1, t2 in _pairs(family, seed=sorted(FAMILIES).index(family) + 3030):
        for a, b in ((t1, t2), (t2, t1)):
            ref = oracle_intersect(a, b)
            if 0.0 < ref.slack < SLACK_FLOOR:
                continue
            label, res = intersect(a, b)
            assert label is ref.label, (a, b)
            assert result_matches_oracle(res.points, as_floats(ref.points)), (a, b)
            want = _vector_area([tuple(Fraction(x) for x in p) for p in ref.points]) \
                if ref.points else 0.0
            got = _vector_area([tuple(Fraction(x) for x in p) for p in res.points]) \
                if label is CaseLabel.COPLANAR_CONTOUR else 0.0
            assert abs(got - want) <= 1e-9 * max(1.0, want), (a, b)
            labels.add(label)
            checked += 1
    assert checked >= PAIRS_PER_FAMILY
    if family in ("shared_edge", "corner_graze"):  # touching only
        assert labels == {CaseLabel.COPLANAR_NO_CONTACT}
    else:
        assert labels <= {CaseLabel.COPLANAR_CONTOUR, CaseLabel.COPLANAR_NO_CONTACT}


def test_contained_triangle_comes_back_as_its_own_vertices():
    # the kernel's own 2D images of t2 pass the clipper untouched
    for t1, t2 in _pairs("clipped_inside", seed=45):
        frame = build_frame(plane_from_triangle(t1))
        window = window_lines(*(to_plane(frame, v) for v in t1), DEFAULT_TOLERANCE)
        clipped = ccw_vertices(*(to_plane(frame, v) for v in t2))
        res = intersect_coplanar(window, clipped)
        own = [tuple(v) for v in clipped]
        assert contours_match([tuple(v) for v in res], own, tol=0.0)
        label, result = intersect(t1, t2)
        assert label is CaseLabel.COPLANAR_CONTOUR
        lifted = [tuple(from_plane(frame, v)) for v in own]
        assert contours_match([tuple(p) for p in result.points], lifted, tol=0.0)
        assert contours_match([tuple(p) for p in result.points], [tuple(v) for v in t2])


# a long second triangle whose overlap with the first is a small triangle
# spanned by one corner of the first and two vertices of the second
LONG_CLIPPED = [
    (((8.421875, -5.6875, 0.828125), (5.3125, 7.4375, -2.59375), (3.890625, 5.09375, 0.375)),
     ((4.52783203125, 3.57763671875, 0.438720703125), (8.033203125, -4.046875, 0.400390625),
      (21.11962890625, -46.63720703125, 7.930908203125))),
    (((8.921875, 6.796875, 4.0625), (7.453125, -7.734375, -8.578125),
      (6.578125, -6.828125, -7.984375)),
     ((7.4990234375, -7.2802734375, -8.18310546875), (6.724609375, -5.9765625, -7.2314453125),
      (15.35205078125, 56.06982421875, 47.216552734375))),
]


@pytest.mark.parametrize("t1, t2", LONG_CLIPPED)
def test_corner_of_window_inside_long_clipped_triangle(t1, t2):
    for a, b in ((t1, t2), (t2, t1)):
        ref = oracle_intersect(a, b)
        assert ref.label is CaseLabel.COPLANAR_CONTOUR and ref.slack > SLACK_FLOOR
        label, res = intersect(a, b)
        assert label is CaseLabel.COPLANAR_CONTOUR
        assert result_matches_oracle(res.points, as_floats(ref.points))
