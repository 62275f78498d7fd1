import random

from tritri.clip2d import ccw_vertices, region_code, window_lines
from tritri.coplanar import intersect_coplanar
from tritri.core import DEFAULT_TOLERANCE, Tolerance
from tritri.frame import Point2
from tritri.oracle import rational_polygon_area, rational_polygon_intersection

from conftest import contours_match, polygon_area2, random_triangle2

def _window(*pts):
    return window_lines(*(Point2(*p) for p in pts), DEFAULT_TOLERANCE)


def _tri(*pts):
    return ccw_vertices(*(Point2(*p) for p in pts))


C4 = _tri((0, 0), (4, 0), (0, 4))
W4 = window_lines(*C4, DEFAULT_TOLERANCE)


def _vertices(t):
    return [tuple(v) for v in t]


def _contour_area(res):
    if res:
        return abs(polygon_area2([tuple(v) for v in res]))
    return 0.0


def test_identical_triangles_are_their_own_contour():
    res = intersect_coplanar(W4, C4)
    assert contours_match([tuple(v) for v in res], _vertices(C4), tol=0.0)


def test_contained_triangle_is_its_own_contour():
    clipped = _tri((1, 1), (2, 1), (1, 2))
    res = intersect_coplanar(W4, clipped)
    assert contours_match([tuple(v) for v in res], _vertices(clipped), tol=0.0)


def test_two_node_entry_exit_fixture():
    # the clipped triangle enters the window at (0, 1) and leaves at (0, 3)
    res = intersect_coplanar(W4, _tri((-1, 1), (2, 1), (-1, 4)))
    assert contours_match([tuple(v) for v in res], [(0, 1), (2, 1), (0, 3)])


def test_far_disjoint():
    res = intersect_coplanar(W4, _tri((10, 10), (11, 10), (10, 11)))
    assert res == ()


def test_window_inside_clipped():
    res = intersect_coplanar(W4, _tri((-10, -10), (20, -10), (0, 30)))
    assert contours_match([tuple(v) for v in res], _vertices(C4), tol=1e-12)


def test_five_vertex_contour_with_window_vertex():
    window = _window((0, 0), (6, 0), (0, 6))
    clipped = _tri((3, -2), (6, 7), (-3, 8))
    res = intersect_coplanar(window, clipped)
    assert len(res) == 5
    want = [(11 / 3, 0.0), (17 / 4, 7 / 4), (0.0, 6.0), (0.0, 3.0), (9 / 5, 0.0)]
    assert contours_match([tuple(v) for v in res], want, tol=1e-12)
    window_vertices = {(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)}
    passed = [v for v in res if tuple(v) in window_vertices]
    assert len(passed) == 1


def test_shared_edge_opposite_interiors_is_disjoint():
    res = intersect_coplanar(W4, _tri((0, 0), (4, 0), (2, -3)))
    assert res == ()


def test_corner_graze_is_disjoint():
    res = intersect_coplanar(W4, _tri((5, -2), (3, 2), (7, 3)))
    assert res == ()


def test_overlap_below_eps_area_is_disjoint():
    # a sliver 2e-13 high along side AB: its three corners lie far apart,
    # but its area (about 4e-13) is below the default eps_area of 1e-12
    clipped = _tri((-100, -1e-11), (100, -1e-11), (2, 2e-13))
    assert intersect_coplanar(W4, clipped) == ()
    res = intersect_coplanar(W4, clipped, Tolerance(eps_area=1e-15))
    assert len(res) == 3


def test_vertex_exactly_on_window_side():
    # vertex (3, 0) sits exactly on side AB; clipping must not duplicate it
    window = _window((0, 0), (6, 0), (0, 6))
    clipped = _tri((1, 1), (0, -3), (3, 0))
    res = intersect_coplanar(window, clipped)
    assert contours_match([tuple(v) for v in res], [(1, 1), (0.75, 0), (3, 0)])


def test_contour_shape_properties():
    rng = random.Random(555)
    seen = 0
    while seen < 200:
        w, c = random_triangle2(rng), random_triangle2(rng)
        windows = [window_lines(*t, DEFAULT_TOLERANCE) for t in (w, c)]
        vs = intersect_coplanar(windows[0], c)
        if not vs:
            continue
        seen += 1
        assert 3 <= len(vs) <= 6
        area = polygon_area2([tuple(v) for v in vs])
        assert area > 0  # counter-clockwise
        n = len(vs)
        for i in range(n):  # convexity: every turn is a left turn
            a, b, cpt = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            cross = (b.u - a.u) * (cpt.v - b.v) - (b.v - a.v) * (cpt.u - b.u)
            assert cross > -1e-9
        for v in vs:
            assert all(region_code(v, lines) == 0 for lines in windows)


def test_area_matches_rational_clipping():
    rng = random.Random(808)
    for _ in range(300):
        w, c = random_triangle2(rng), random_triangle2(rng)
        res = intersect_coplanar(window_lines(*w, DEFAULT_TOLERANCE), c)
        poly = rational_polygon_intersection(_vertices(c), _vertices(w))
        want = float(rational_polygon_area(poly)) if poly else 0.0
        got = _contour_area(res)
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_area_symmetry():
    rng = random.Random(909)
    for _ in range(200):
        w, c = random_triangle2(rng), random_triangle2(rng)
        a1 = _contour_area(intersect_coplanar(window_lines(*w, DEFAULT_TOLERANCE), c))
        a2 = _contour_area(intersect_coplanar(window_lines(*c, DEFAULT_TOLERANCE), w))
        assert abs(a1 - a2) <= 1e-9 * max(1.0, a1, a2)
