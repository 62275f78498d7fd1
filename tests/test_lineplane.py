import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tritri.core import (
    DEFAULT_TOLERANCE,
    Point3,
    Triangle3,
    dist3,
    plane_from_triangle,
    signed_distance,
    vsub,
)
from tritri.errors import DegenerateTriangle
from tritri.intersect import CaseLabel, intersect, prepare
from tritri.lineplane import project_triangle_edges
from tritri.oracle import as_floats, oracle_intersect

from conftest import crossing_pair, mixed_pairs

PLANE = plane_from_triangle(Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0)))
WINDOW = ((0, 0, 0), (4, 0, 0), (0, 4, 0))


# Reference: the exact oracle's vertex-code rule (``oracle._oracle_crossing``)
# in floats, edge by edge, with the kernel's crossing arithmetic.

def _lerp3(a, b, t):
    return Point3(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]), a[2] + t * (b[2] - a[2]))


def _vertex_code(p, pl, tol):
    d = signed_distance(p, pl)
    return 0 if abs(d) <= tol.eps_dist else (1 if d > 0 else -1)


def reference_project_triangle_edges(tri, pl, tol=DEFAULT_TOLERANCE):
    codes = [_vertex_code(v, pl, tol) for v in tri]
    if codes == [0, 0, 0]:
        return None
    points = []

    def add(pt):
        if all(dist3(pt, seen) > tol.eps_dist for seen in points):
            points.append(Point3(*pt))

    for i in range(3):
        j = (i + 1) % 3
        if codes[i] == 0:
            add(tri[i])
        if codes[j] == 0:
            add(tri[j])
        if codes[i] * codes[j] < 0:
            m, n, o = vsub(tri[j], tri[i])
            t = -signed_distance(tri[i], pl) / (pl.q * m + pl.w * n + pl.u * o)
            add(_lerp3(tri[i], tri[j], t))
    return points


def project_checked(tri, pl=PLANE):
    """project_triangle_edges, after checking it against the reference by repr."""
    got = project_triangle_edges(tri, pl)
    assert repr(got) == repr(reference_project_triangle_edges(tri, pl))
    return got


def _distance_to_span(p, points):
    """Distance from p to the point or segment that ``points`` spans."""
    a = points[0]
    b = points[-1]
    ab = vsub(b, a)
    lensq = ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2]
    ap = vsub(p, a)
    t = 0.0 if lensq == 0 else min(1.0, max(0.0, sum(x * y for x, y in zip(ap, ab)) / lensq))
    return dist3(p, _lerp3(a, b, t))


def test_equals_reference_on_mixed_pairs():
    outcomes = set()
    near_oracle = 0
    for t1, t2 in mixed_pairs(random.Random(59), 2000):
        for a, b in ((t1, t2), (t2, t1)):
            pl = plane_from_triangle(a)
            got = project_triangle_edges(b, pl)
            assert repr(got) == repr(reference_project_triangle_edges(b, pl))
            outcomes.add(None if got is None else len(got))
            exact = oracle_intersect(a, b)
            if exact.label in (CaseLabel.TOUCH_POINT, CaseLabel.CROSSING_SEGMENT):
                # the oracle's points lie on the exact segment, clipped to the window
                assert got
                for p in as_floats(exact.points):
                    assert _distance_to_span(p, got) <= 1e-12
                near_oracle += 1
    assert outcomes == {0, 1, 2, None}
    assert near_oracle > 500


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


def _check_no_contact_either_order(tri):
    for x, y in ((WINDOW, tri), (tri, WINDOW)):
        assert intersect(x, y)[0] is CaseLabel.CROSSING_PLANES_NO_CONTACT
        assert oracle_intersect(x, y).label is CaseLabel.CROSSING_PLANES_NO_CONTACT


def test_edge_shorter_than_eps_dist_raises():
    # an edge shorter than eps_dist, a whole unit above the plane: every
    # vertex is coded +1, so nothing is projected and nothing raises
    tri = Triangle3(Point3(0, 0, 1), Point3(0, 0, 1 + 5e-10), Point3(3, 0, 2))
    assert dist3(tri[0], tri[1]) <= DEFAULT_TOLERANCE.eps_dist
    assert project_checked(tri) == []
    _check_no_contact_either_order(tri)


def test_slack_hit_just_outside_the_edge_is_kept():
    # the lowest vertex is 1.5e-9 above the plane, beyond eps_dist: coded +1
    # like the others, so the triangle misses the plane, as it does exactly
    tri = Triangle3(Point3(1, 1, 1.5e-9), Point3(1, 1, 3.0), Point3(3, 1, 2.0))
    assert project_checked(tri) == []
    _check_no_contact_either_order(tri)


def test_sign_change_within_rounding_noise_adds_nothing():
    # near 1e8 the distances round to multiples of 7.45e-9.  The edge a-b runs
    # parallel to the plane in floats too (its direction times the normal is
    # 0.0), yet its ends are coded -1 and +1: its crossing would divide by
    # zero, so it adds nothing, and the crossing of b-c is the only point
    base = (100000045.0, 100000058.0, 100000028.0)
    pl = plane_from_triangle(Triangle3(Point3(*base), Point3(base[0], base[1], base[2] + 1),
                                       Point3(base[0] + 1, base[1] + 2, base[2])))
    a = Point3(100000484.0, 100000936.0, 100000033.0)
    b = Point3(100000485.0, 100000938.0, 100000034.0)
    tri = Triangle3(a, b, Point3(a.x + 3, a.y - 7, a.z + 2))
    assert signed_distance(a, pl) == -signed_distance(b, pl) < -DEFAULT_TOLERANCE.eps_dist
    m, n, o = vsub(b, a)
    assert pl.q * m + pl.w * n + pl.u * o == 0.0
    pts = project_triangle_edges(tri, pl)
    assert len(pts) == 1 and dist3(pts[0], b) < 1.0


@st.composite
def near_plane_pairs(draw):
    """Crossing grid pairs, one vertex of the second moved to a signed distance
    of 0.5, 1.5 or 3 eps_dist, either side, from the first one's plane."""
    t1, t2 = crossing_pair(random.Random(draw(st.integers(0, 2 ** 32))))
    i = draw(st.integers(0, 2))
    k = draw(st.sampled_from((0.5, 1.5, 3.0))) * draw(st.sampled_from((-1, 1)))
    pl = plane_from_triangle(t1)
    v = t2[i]
    shift = k * DEFAULT_TOLERANCE.eps_dist - signed_distance(v, pl)
    moved = Point3(v.x + shift * pl.q, v.y + shift * pl.w, v.z + shift * pl.u)
    return t1, Triangle3(*(moved if j == i else t2[j] for j in range(3)))


@seed(90210)
@settings(max_examples=300, deadline=None)
@given(near_plane_pairs())
def test_vertex_near_the_plane_labels_as_the_oracle(pair):
    # below the oracle's 1e-8 slack floor, yet the float kernel and the
    # oracle code the moved vertex alike, so their labels agree
    t1, t2 = pair
    for a, b in ((t1, t2), (t2, t1)):
        assert intersect(a, b)[0] is oracle_intersect(a, b).label


def test_project_two_crossings():
    tri = Triangle3(Point3(1, 1, -1), Point3(1, 1, 2), Point3(3, 3, 2))
    pts = project_checked(tri)
    assert len(pts) == 2
    got = sorted((p.x, p.y, p.z) for p in pts)
    want = [(1.0, 1.0, 0.0), (5 / 3, 5 / 3, 0.0)]
    for g, w in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g, w)) < 1e-12


def test_project_single_vertex_touch():
    # one vertex within eps_dist of the plane, the rest on one side: that
    # vertex is the only point, as given, not moved onto the plane
    tri = Triangle3(Point3(0.1, 0.7, 4e-10), Point3(2, 2, 3), Point3(3, 1, 3))
    assert project_checked(tri) == [tri.a]


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
    # every vertex within eps_dist of the plane: None, for the coplanar path
    tri = Triangle3(Point3(1, 1, 0), Point3(3, 1, 5e-10), Point3(1, 3, -5e-10))
    assert project_checked(tri) is None


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
