import math
import random

from tritri.clip2d import Point2, ccw_vertices, region_code, window_lines
from tritri.coplanar import intersect_coplanar
from tritri.core import DEFAULT_TOLERANCE, Tolerance
from tritri.errors import DegenerateTriangle
from tritri.oracle import rational_polygon_area, rational_polygon_intersection

from conftest import contours_match, polygon_area2, random_point2, random_triangle2

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
            cross = (b[0] - a[0]) * (cpt[1] - b[1]) - (b[1] - a[1]) * (cpt[0] - b[0])
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


# --- the list-based contour, kept as the reference for the unpacked one ----------

def _reference_lerp2(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _reference_dist2(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _reference_intersect_coplanar(window, clipped, tol=DEFAULT_TOLERANCE):
    poly = [tuple(v) for v in clipped]  # the contour's vertices are exact tuples
    for l1, l2, l3 in window:
        if not poly:
            break
        kept = []
        for k, s in enumerate(poly):
            e = poly[(k + 1) % len(poly)]
            ds = l1 * s[0] + l2 * s[1] + l3
            de = l1 * e[0] + l2 * e[1] + l3
            if ds >= 0.0:
                kept.append(s)
                if de < 0.0:
                    kept.append(_reference_lerp2(s, e, ds / (ds - de)))
            elif de >= 0.0:
                kept.append(_reference_lerp2(s, e, ds / (ds - de)))
        poly = kept
    cleaned = []
    for pt in poly:
        if not cleaned or _reference_dist2(cleaned[-1], pt) > tol.eps_dist:
            cleaned.append(pt)
    while len(cleaned) > 1 and _reference_dist2(cleaned[0], cleaned[-1]) <= tol.eps_dist:
        cleaned.pop()
    if len(cleaned) < 3:
        return ()
    ring = zip(cleaned, cleaned[1:] + cleaned[:1])
    doubled = sum(au * bv - av * bu for (au, av), (bu, bv) in ring)
    if abs(doubled) / 2.0 <= tol.eps_area:
        return ()
    return tuple(cleaned)


def _near(rng, p, eps):
    return Point2(p.u + rng.uniform(-2 * eps, 2 * eps), p.v + rng.uniform(-2 * eps, 2 * eps))


def _on_side(rng, a, b, eps):
    t = rng.uniform(-0.2, 1.2)
    return _near(rng, Point2(a.u + t * (b.u - a.u), a.v + t * (b.v - a.v)), eps)


def _coplanar_case(rng, eps):
    """Window corners and the clipped triangle's three points, from the contour's edge cases."""
    w = random_triangle2(rng)
    a, b, c = w
    kind = rng.randrange(6)
    if kind == 0:  # anywhere
        pts = random_triangle2(rng)
    elif kind == 1:  # identical, or each corner moved by up to 2 eps_dist
        pts = w if rng.random() < 0.5 else [_near(rng, v, eps) for v in w]
    elif kind == 2:  # one holds the other, scaled about the centroid
        cu, cv = (a.u + b.u + c.u) / 3.0, (a.v + b.v + c.v) / 3.0
        f = rng.choice([rng.uniform(0.05, 0.999), rng.uniform(1.001, 4.0), 1.0 - 1e-12])
        pts = [Point2(cu + f * (v.u - cu), cv + f * (v.v - cv)) for v in w]
    elif kind == 3:  # a sliver along a side, inside, outside or across it
        p, q = rng.sample(list(w), 2)
        length = math.hypot(q.u - p.u, q.v - p.v)
        h = length * 10.0 ** rng.uniform(-14, -2) * rng.choice([-1.0, 1.0])
        t = rng.uniform(-0.5, 1.5)
        tip = Point2(p.u + t * (q.u - p.u) - h * (q.v - p.v) / length,
                     p.v + t * (q.v - p.v) + h * (q.u - p.u) / length)
        pts = [_on_side(rng, p, q, eps), _on_side(rng, p, q, eps), tip]
    elif kind == 4:  # sharing an edge or a vertex, the rest on either side
        p, q = rng.sample(list(w), 2)
        pts = [p, q if rng.random() < 0.5 else random_point2(rng), random_point2(rng)]
    else:  # corners on the window's sides, within a few eps_dist
        sides = [(a, b), (b, c), (c, a)]
        pts = [_on_side(rng, *rng.choice(sides), eps) for _ in range(3)]
    return w, pts


def test_unpacked_contour_equals_the_list_based_contour_bit_for_bit():
    rng = random.Random(1974)
    cases = contours = 0
    sizes = set()
    while cases < 12_000:
        eps = rng.choice([1e-9, 1e-6, 1e-3])
        tol = Tolerance(eps_dist=eps, eps_area=rng.choice([1e-12, eps * eps, eps]))
        w, pts = _coplanar_case(rng, eps)
        try:
            clipped = ccw_vertices(*pts, tol)
        except DegenerateTriangle:
            continue
        window = window_lines(*w, tol)
        got = intersect_coplanar(window, clipped, tol)
        want = _reference_intersect_coplanar(window, clipped, tol)
        assert [(type(v), v[0].hex(), v[1].hex()) for v in got] == \
            [(type(v), v[0].hex(), v[1].hex()) for v in want], (w, pts, tol)
        cases += 1
        contours += bool(got)
        sizes.add(len(got))
    assert sizes == {0, 3, 4, 5, 6} and 2000 < contours < 10_000, (sizes, contours)
