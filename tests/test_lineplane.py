import random

import pytest

from tritri.core import (
    DEFAULT_TOLERANCE,
    Point3,
    Triangle3,
    dist3,
    plane_from_triangle,
    signed_distance,
    vnorm,
    vsub,
)
from tritri.errors import CoplanarEdges, DegenerateTriangle, GeometryError, ZeroLengthSegment
from tritri.intersect import CaseLabel, intersect, prepare
from tritri.lineplane import project_triangle_edges

from conftest import mixed_pairs

PLANE = plane_from_triangle(Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0)))


# Reference: the edge-by-edge form project_triangle_edges had before it
# became one pass over the vertices' signed distances.  Kept only here.

def _lerp3(a, b, t):
    return Point3(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]), a[2] + t * (b[2] - a[2]))


def _reference_edge_hit(p1, p2, pl, tol):
    """("in_plane", None), ("at_point", point) or ("none", None)."""
    d1 = signed_distance(p1, pl)
    d2 = signed_distance(p2, pl)
    if abs(d1) <= tol.eps_dist and abs(d2) <= tol.eps_dist:
        return "in_plane", None
    d = vsub(p2, p1)
    if vnorm(d) <= tol.eps_dist:
        raise ZeroLengthSegment("segment endpoints coincide")
    origin = Point3(*p1)
    m, n, p = d
    denom = pl.q * m + pl.w * n + pl.u * p
    if abs(denom) <= tol.eps_dist:
        return "none", None
    t = -signed_distance(origin, pl) / denom
    if -tol.eps_param <= t <= 1.0 + tol.eps_param:
        return "at_point", _lerp3(p1, p2, t)
    return "none", None


def reference_project_triangle_edges(tri, pl, tol=DEFAULT_TOLERANCE):
    edges = ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
    hits = [_reference_edge_hit(a, b, pl, tol) for a, b in edges]
    if sum(1 for kind, _ in hits if kind == "in_plane") >= 2:
        raise CoplanarEdges("triangle lies in the plane")
    points = []
    for (kind, point), (a, b) in zip(hits, edges):
        if kind == "in_plane":
            candidates = (Point3(*a), Point3(*b))
        elif kind == "at_point":
            candidates = (point,)
        else:
            continue
        for c in candidates:
            if all(dist3(c, seen) > tol.eps_dist for seen in points):
                points.append(c)
    return points


def _outcome(f, tri, pl):
    try:
        return repr(f(tri, pl))
    except GeometryError as exc:
        return type(exc).__name__


def project_checked(tri, pl=PLANE):
    """project_triangle_edges, after checking it against the reference by repr."""
    want = _outcome(reference_project_triangle_edges, tri, pl)
    assert _outcome(project_triangle_edges, tri, pl) == want
    return project_triangle_edges(tri, pl)


def test_equals_reference_on_mixed_pairs():
    outcomes = set()
    for t1, t2 in mixed_pairs(random.Random(59), 2000):
        for a, b in ((t1, t2), (t2, t1)):
            pl = plane_from_triangle(a)
            got = _outcome(project_triangle_edges, b, pl)
            assert got == _outcome(reference_project_triangle_edges, b, pl)
            outcomes.add(got if got == "CoplanarEdges" else got.count("Point3("))
    assert outcomes == {0, 1, 2, "CoplanarEdges"}


def test_edge_crossing_at_quarter():
    # edge (0,0,-1)->(0,0,3) meets the plane at t = 0.25
    pts = project_checked(Triangle3(Point3(0, 0, -1), Point3(0, 0, 3), Point3(2, 0, 3)))
    assert pts[0] == Point3(0.0, 0.0, 0.0)


def test_edge_hit_at_point():
    pts = project_checked(Triangle3(Point3(1, 1, -2), Point3(1, 1, 2), Point3(3, 1, 2)))
    assert pts == [Point3(1.0, 1.0, 0.0), Point3(2.0, 1.0, 0.0)]


def test_edge_hit_outside_span():
    # the line through (1,1,1) and (1,1,3) meets the plane at t = -0.5
    tri = Triangle3(Point3(1, 1, 1), Point3(1, 1, 3), Point3(3, 1, 2))
    assert project_checked(tri) == []


def _check_parallel_edge_adds_nothing(p1, p2):
    # the parallel edge adds nothing; the two others meet the plane
    pts = project_checked(Triangle3(p1, p2, Point3(1, 1, -1)))
    assert pts == [_lerp3(p2, Point3(1, 1, -1), 0.5), _lerp3(Point3(1, 1, -1), p1, 0.5)]


def test_edge_parallel_off_plane():
    _check_parallel_edge_adds_nothing(Point3(0, 0, 1), Point3(2, 2, 1))


def test_edge_parallel_skew_off_plane():
    # edge (0,0,1)->(5,3,1) is parallel to the plane, not along a diagonal
    _check_parallel_edge_adds_nothing(Point3(0, 0, 1), Point3(5, 3, 1))


def test_edge_in_plane():
    pts = project_checked(Triangle3(Point3(0, 0, 0), Point3(2, 2, 0), Point3(1, 0, 3)))
    assert pts == [Point3(0.0, 0.0, 0.0), Point3(2.0, 2.0, 0.0)]


def test_edge_shorter_than_eps_dist_raises():
    tri = Triangle3(Point3(0, 0, 1), Point3(0, 0, 1 + 5e-10), Point3(3, 0, 2))
    assert dist3(tri[0], tri[1]) <= DEFAULT_TOLERANCE.eps_dist
    with pytest.raises(ZeroLengthSegment):
        project_checked(tri)


def test_slack_hit_just_outside_the_edge_is_kept():
    # the lowest vertex is 1.5e-9 above the plane, so the triangle misses it
    # exactly; the edges leaving that vertex meet the plane at t ~ -5e-10
    # and t ~ 1 + 7.5e-10, inside the eps_param slack, 1.5e-9 apart.  This
    # pins today's behaviour, a crossing segment 1.5e-9 long.
    tri = Triangle3(Point3(1, 1, 1.5e-9), Point3(1, 1, 3.0), Point3(3, 1, 2.0))
    pts = project_checked(tri)
    assert len(pts) == 2 and 1e-9 < dist3(*pts) < 2e-9
    window = ((0, 0, 0), (4, 0, 0), (0, 4, 0))
    assert intersect(window, tri)[0] is CaseLabel.CROSSING_SEGMENT


def test_project_two_crossings():
    tri = Triangle3(Point3(1, 1, -1), Point3(1, 1, 2), Point3(3, 3, 2))
    pts = project_checked(tri)
    assert len(pts) == 2
    got = sorted((p.x, p.y, p.z) for p in pts)
    want = [(1.0, 1.0, 0.0), (5 / 3, 5 / 3, 0.0)]
    for g, w in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g, w)) < 1e-12


def test_project_single_vertex_touch():
    # one vertex on the plane, the rest on one side: adjacent edges meet
    # the plane at the same point and dedupe to a single hit
    tri = Triangle3(Point3(1, 1, 0), Point3(2, 2, 3), Point3(3, 1, 3))
    pts = project_checked(tri)
    assert len(pts) == 1
    assert pts[0] == Point3(1.0, 1.0, 0.0)


def test_project_no_contact():
    tri = Triangle3(Point3(0, 0, 1), Point3(1, 0, 2), Point3(0, 1, 2))
    assert project_checked(tri) == []


def test_project_edge_in_plane_gives_endpoints():
    tri = Triangle3(Point3(0, 0, 0), Point3(2, 0, 0), Point3(1, 1, 5))
    pts = project_checked(tri)
    assert len(pts) == 2
    got = sorted((p.x, p.y, p.z) for p in pts)
    assert got == [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)]


def test_project_coplanar_triangle_raises():
    tri = Triangle3(Point3(1, 1, 0), Point3(3, 1, 0), Point3(1, 3, 0))
    with pytest.raises(CoplanarEdges):
        project_checked(tri)


def test_project_degenerate_triangle_raises():
    # non-degenerate is project_triangle_edges' precondition: a collinear
    # triangle is refused by the plane fit, before its edges are projected
    tri = Triangle3(Point3(0, 0, -1), Point3(0, 0, 1), Point3(0, 0, 3))
    plane_tri = Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0))
    with pytest.raises(DegenerateTriangle):
        plane_from_triangle(tri)
    with pytest.raises(DegenerateTriangle):
        prepare(tri)
    with pytest.raises(DegenerateTriangle):
        intersect(plane_tri, tri)
    with pytest.raises(DegenerateTriangle):
        intersect(tri, plane_tri)
