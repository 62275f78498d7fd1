import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tritri.clip2d import (
    clip_segment_to_triangle,
    region_code,
    window_lines,
)
from tritri.core import DEFAULT_TOLERANCE, Tolerance
from tritri.errors import DegenerateTriangle
from tritri.oracle import rational_clip_segment

from conftest import Point2, ccw_vertices, points_match_unordered, random_point2, random_triangle2

# canonical right-triangle window: AB along y=0, AC along x=0, BC on x+y=4
CORNERS = (Point2(0, 0), Point2(4, 0), Point2(0, 4))
W = window_lines(*CORNERS, DEFAULT_TOLERANCE)

# representative point for every region code
REP = {
    0: Point2(1, 1),
    1: Point2(3, 3),
    2: Point2(1, -2),
    3: Point2(6, -1),
    4: Point2(-2, 1),
    5: Point2(-1, 6),
    6: Point2(-2, -2),
}

# every (start, end) code pair with no shared outside bit: 25 in total
CODE_PAIRS = [(a, b) for a in range(7) for b in range(7) if a & b == 0]


def test_representative_codes():
    for code, pt in REP.items():
        assert region_code(pt, W) == code


def test_code_pair_table_is_complete():
    assert len(CODE_PAIRS) == 25


@pytest.mark.parametrize("c1,c2", CODE_PAIRS)
def test_clip_matches_oracle_for_code_pair(c1, c2):
    p, q = REP[c1], REP[c2]
    if c1 == c2:  # same representative: shift the end, keeping its code
        q = Point2(q.u + 0.5, q.v + 0.25)
        assert region_code(q, W) == c2
    got = clip_segment_to_triangle(p, q, W)
    kind, pts = rational_clip_segment(tuple(p), tuple(q), CORNERS)
    if kind == "empty":
        assert got == ()
    elif kind == "point":
        assert len(got) == 1
        assert points_match_unordered([tuple(got[0])], [(float(pts[0][0]), float(pts[0][1]))])
    else:
        assert len(got) == 2
        want = [(float(a), float(b)) for a, b in pts]
        assert points_match_unordered([tuple(x) for x in got], want)


def test_interior_start_exit_through_hypotenuse():
    res = clip_segment_to_triangle(Point2(1, 1), Point2(5, 1), W)
    assert len(res) == 2
    assert points_match_unordered([tuple(p) for p in res], [(1, 1), (3, 1)])


def test_pass_through_two_sides():
    res = clip_segment_to_triangle(Point2(1, -2), Point2(1, 6), W)
    assert len(res) == 2
    assert points_match_unordered([tuple(p) for p in res], [(1, 0), (1, 3)])


def test_suspicious_miss():
    res = clip_segment_to_triangle(Point2(1, -2), Point2(-2, 1), W)
    assert res == ()


def test_corner_graze_is_point():
    res = clip_segment_to_triangle(Point2(3, -1), Point2(5, 1), W)
    assert len(res) == 1
    assert points_match_unordered([tuple(res[0])], [(4, 0)])


def test_entry_through_vertex():
    res = clip_segment_to_triangle(Point2(-1, -1), Point2(1, 1), W)
    assert len(res) == 2
    assert points_match_unordered([tuple(p) for p in res], [(0, 0), (1, 1)])


def test_collinear_overlap_along_side():
    res = clip_segment_to_triangle(Point2(5, -1), Point2(-1, 5), W)
    assert len(res) == 2
    assert points_match_unordered([tuple(p) for p in res], [(4, 0), (0, 4)])


def test_collinear_leaving_through_a_sharp_vertex_is_a_point():
    # along line AB away from A; the angle at A is about 14 degrees, so a
    # half-eps shift of the distances to AC would move the cut about 2e-9
    sharp = window_lines(Point2(0, 0), Point2(4, 0), Point2(4, 1), DEFAULT_TOLERANCE)
    res = clip_segment_to_triangle(Point2(0, 0), Point2(-3, 0), sharp)
    assert res == (Point2(0.0, 0.0),)


def test_collinear_outside_side_line():
    res = clip_segment_to_triangle(Point2(5, 0), Point2(8, 0), W)
    assert res == ()


def test_zero_length_segment_raises():
    # a segment of length zero is a point: kept inside the window, dropped outside
    p = Point2(1, 1)
    assert clip_segment_to_triangle(p, p, W) == (p,)
    far = Point2(5, 5)
    assert clip_segment_to_triangle(far, far, W) == ()


def test_clip_uses_the_callers_tolerance():
    # 5e-10 apart: one point at the default eps_dist of 1e-9, a proper
    # segment at 1e-10, entering the window through AB at (1, 0)
    p, q = Point2(1, -2.5e-10), Point2(1, 2.5e-10)
    fine = Tolerance(eps_dist=1e-10)
    assert clip_segment_to_triangle(p, q, W) == (p,)
    res = clip_segment_to_triangle(p, q, W, fine)
    assert len(res) == 2
    e, x = res
    assert math.isclose(e[0], 1.0) and abs(e[1]) <= 1e-12 and x == q
    assert clip_segment_to_triangle(Point2(0, 0), Point2(0.5, 0), W, Tolerance(eps_dist=1.0)) == (Point2(0, 0),)


def test_degenerate_window_raises():
    with pytest.raises(DegenerateTriangle):
        window_lines(Point2(0, 0), Point2(1, 1), Point2(2, 2), DEFAULT_TOLERANCE)


def test_window_area_gate_uses_the_callers_tolerance():
    small = (Point2(0, 0), Point2(0.02, 0), Point2(0, 0.01))  # area 1e-4
    window_lines(*small, DEFAULT_TOLERANCE)
    with pytest.raises(DegenerateTriangle):
        window_lines(*small, Tolerance(eps_area=1e-3))


def test_clockwise_window_normalized():
    a, b, c = Point2(0, 0), Point2(0, 4), Point2(4, 0)
    assert window_lines(a, b, c, DEFAULT_TOLERANCE) == window_lines(a, c, b, DEFAULT_TOLERANCE) == W


def test_window_side_lines_are_unit_normals_pointing_inside():
    # AB, AC, BC: unit normals pointing inside, offsets from the origin
    r = 1 / math.sqrt(2)
    want = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-r, -r, 4 * r)]
    assert [pytest.approx(line) for line in want] == list(W)


def test_window_past_the_offset_overflow_is_the_unit_window_scaled():
    # at 2**600 the BC offset's products pass the float range, and a
    # collinear window's area is inf - inf
    s = 2.0 ** 600
    big = window_lines(Point2(0, 0), Point2(s, 0), Point2(0, s), DEFAULT_TOLERANCE)
    unit = window_lines(Point2(0, 0), Point2(1, 0), Point2(0, 1), DEFAULT_TOLERANCE)
    assert big == tuple((l1, l2, l3 * s) for l1, l2, l3 in unit)
    assert region_code(Point2(s, s), big) == 1 and region_code(Point2(s / 4, s / 4), big) == 0
    with pytest.raises(DegenerateTriangle):
        window_lines(Point2(0, 0), Point2(s, s), Point2(2 * s, 2 * s), DEFAULT_TOLERANCE)


def test_boundary_points_code_inside():
    # on a side line (even beyond the segment) the side's bit stays clear
    assert region_code(Point2(2, 0), W) == 0
    assert region_code(Point2(-1, 0), W) == 4  # AB bit clear, AC bit set
    assert region_code(Point2(2, 2), W) == 0  # exactly on the hypotenuse
    assert region_code(Point2(0, 0), W) == 0


coord = st.floats(min_value=-12, max_value=12, allow_nan=False, allow_infinity=False)


@st.composite
def window_and_segment(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    return random_triangle2(rng), random_point2(rng), random_point2(rng)


@given(window_and_segment())
@settings(max_examples=300, deadline=None)
def test_clip_equals_interval_oracle(case):
    corners, p, q = case
    got = clip_segment_to_triangle(p, q, window_lines(*corners, DEFAULT_TOLERANCE))
    kind, pts = rational_clip_segment(tuple(p), tuple(q), corners)
    if kind == "empty":
        assert got == ()
    elif kind == "point":
        assert len(got) == 1
        want = [(float(a), float(b)) for a, b in pts]
        assert points_match_unordered([tuple(got[0])], want)
    else:
        assert len(got) == 2
        want = [(float(a), float(b)) for a, b in pts]
        assert points_match_unordered([tuple(x) for x in got], want)


@given(window_and_segment())
@settings(max_examples=200, deadline=None)
def test_clipped_output_is_inside(case):
    corners, p, q = case
    w = window_lines(*corners, DEFAULT_TOLERANCE)
    res = clip_segment_to_triangle(p, q, w)
    for pt in res:
        assert region_code(pt, w) == 0


@given(window_and_segment())
@settings(max_examples=200, deadline=None)
def test_trivial_accept_and_reject_soundness(case):
    corners, p, q = case
    w = window_lines(*corners, DEFAULT_TOLERANCE)
    c1, c2 = region_code(p, w), region_code(q, w)
    res = clip_segment_to_triangle(p, q, w)
    if c1 == 0 and c2 == 0:
        assert res == (p, q)
    if c1 & c2:
        assert res == ()


@st.composite
def window_and_short_segment(draw):
    """A window's corners, p anywhere or on a side line, and q within eps_dist of p (often q == p)."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    w = random_triangle2(rng)
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    if draw(st.booleans()):
        p = random_point2(rng)
    else:
        a, b = rng.sample(list(w), 2)
        t = draw(st.floats(min_value=-0.5, max_value=1.5))
        du = draw(st.floats(min_value=-3 * eps, max_value=3 * eps))
        dv = draw(st.floats(min_value=-3 * eps, max_value=3 * eps))
        p = Point2(a.u + t * (b.u - a.u) + du, a.v + t * (b.v - a.v) + dv)
    if draw(st.booleans()):
        return w, p, p, eps
    du = draw(st.floats(min_value=-eps, max_value=eps))
    dv = draw(st.floats(min_value=-eps, max_value=eps))
    return w, p, Point2(p.u + du, p.v + dv), eps


@given(window_and_short_segment())
@settings(max_examples=400, deadline=None)
def test_short_segment_is_at_most_one_point(case):
    corners, p, q, eps = case
    assume(math.hypot(q.u - p.u, q.v - p.v) <= eps)
    tol = Tolerance(eps_dist=eps)
    w = window_lines(*corners, tol)
    res = clip_segment_to_triangle(p, q, w, tol)
    assert len(res) <= 1
    if res:
        # 1e-14: rounding of the clip parameter's lerp at coordinates below 20
        assert math.hypot(res[0][0] - p.u, res[0][1] - p.v) <= eps + 1e-14
    if p == q:
        assert res == ((p,) if region_code(p, w, tol) == 0 else ())


def _param_interval(p, q, res):
    d2 = (q.u - p.u) ** 2 + (q.v - p.v) ** 2
    ts = sorted(((pt[0] - p.u) * (q.u - p.u) + (pt[1] - p.v) * (q.v - p.v)) / d2 for pt in res)
    if not ts:
        return None
    return ts[0], ts[-1]


@given(window_and_segment())
@settings(max_examples=200, deadline=None)
def test_window_growth_monotonicity(case):
    corners, p, q = case
    cx = sum(v.u for v in corners) / 3.0
    cy = sum(v.v for v in corners) / 3.0
    w = window_lines(*corners, DEFAULT_TOLERANCE)
    grown_corners = [Point2(cx + 2 * (v.u - cx), cy + 2 * (v.v - cy)) for v in corners]
    grown = window_lines(*grown_corners, DEFAULT_TOLERANCE)
    small = _param_interval(p, q, clip_segment_to_triangle(p, q, w))
    big = _param_interval(p, q, clip_segment_to_triangle(p, q, grown))
    if small is None:
        return
    assert big is not None
    slop = 1e-9 / math.sqrt((q.u - p.u) ** 2 + (q.v - p.v) ** 2)
    assert big[0] <= small[0] + slop
    assert big[1] >= small[1] - slop


# --- the list-based clipper, kept as the reference for the unpacked one ----------

def _reference_code(dists, eps):
    ab, ac, bc = dists
    return 2 * (ab < -eps) | 4 * (ac < -eps) | (bc < -eps)


def _reference_dist2(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _reference_lerp2(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _reference_clip(p, q, window, tol=DEFAULT_TOLERANCE):
    p, q = tuple(p), tuple(q)  # the clipper's points are exact tuples
    eps = tol.eps_dist
    (pu, pv), (qu, qv) = p, q
    dp = [l1 * pu + l2 * pv + l3 for l1, l2, l3 in window]
    dq = [l1 * qu + l2 * qv + l3 for l1, l2, l3 in window]
    c1, c2 = _reference_code(dp, eps), _reference_code(dq, eps)
    if not (c1 or c2):
        return (p,) if _reference_dist2(p, q) <= eps else (p, q)
    if c1 & c2:
        return ()
    half = 0.5 * eps
    lo, hi = 0.0, 1.0
    for da, db in zip(dp, dq):
        if abs(da) <= eps and abs(db) <= eps:
            continue
        if da < -half:
            if db < -half:
                return ()
            lo = max(lo, min(da / (da - db), 1.0))
        elif db < -half:
            hi = min(hi, max(da / (da - db), 0.0))
    if lo > hi:
        return ()
    e = p if lo == 0.0 else _reference_lerp2(p, q, lo)
    x = q if hi == 1.0 else _reference_lerp2(p, q, hi)
    if _reference_dist2(e, x) <= eps:
        return (e,)
    return (e, x)


def _hex_points(points):
    return [(type(pt), pt[0].hex(), pt[1].hex()) for pt in points]


def _sliver_triangle2(rng):
    """A window about 1 to 20 long whose height is 1e-5 to 1e-1 of its length."""
    while True:
        a, b = random_point2(rng, -10.0, 10.0), random_point2(rng, -10.0, 10.0)
        if math.hypot(b.u - a.u, b.v - a.v) >= 1.0:
            break
    h = math.hypot(b.u - a.u, b.v - a.v) * 10.0 ** rng.uniform(-5, -1)
    return ccw_vertices(a, b, _on_line(a, b, rng.uniform(-0.2, 1.2), h))


def _on_line(a, b, t, d):
    """The point at parameter t along ab, moved d off the line ab."""
    length = math.hypot(b.u - a.u, b.v - a.v)
    return Point2(a.u + t * (b.u - a.u) - d * (b.v - a.v) / length,
                  a.v + t * (b.v - a.v) + d * (b.u - a.u) / length)


def _near_side(rng, corners, eps):
    """Two corners and an offset from their line of 0 to 2 eps_dist, either side."""
    a, b = rng.sample(list(corners), 2)
    return a, b, eps * rng.choice([0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0]) * rng.choice([-1.0, 1.0])


def _clip_case(rng):
    """A window, a segment and a tolerance, drawn from the clipper's edge cases."""
    eps = rng.choice([1e-9, 1e-6, 1e-3])
    corners = _sliver_triangle2(rng) if rng.random() < 0.3 else random_triangle2(rng)
    kind = rng.randrange(5)
    if kind == 0:  # anywhere
        p, q = random_point2(rng), random_point2(rng)
    elif kind == 1:  # one or both ends within a few eps_dist of a side line
        a, b, d = _near_side(rng, corners, eps)
        p = _on_line(a, b, rng.uniform(-0.5, 1.5), d)
        a, b, d = _near_side(rng, corners, eps)
        q = _on_line(a, b, rng.uniform(-0.5, 1.5), d) if rng.random() < 0.5 else random_point2(rng)
    elif kind == 2:  # collinear with a side, on it or just off it
        a, b, d = _near_side(rng, corners, eps)
        p, q = _on_line(a, b, rng.uniform(-0.5, 1.5), d), _on_line(a, b, rng.uniform(-0.5, 1.5), d)
    elif kind == 3:  # zero-length, or shorter than eps_dist
        a, b, d = _near_side(rng, corners, eps)
        p = _on_line(a, b, rng.uniform(-0.5, 1.5), d) if rng.random() < 0.5 else random_point2(rng)
        q = p if rng.random() < 0.5 else Point2(p.u + rng.uniform(-eps, eps), p.v + rng.uniform(-eps, eps))
    else:  # from near a corner
        c = rng.choice(corners)
        p = Point2(c.u + rng.uniform(-2 * eps, 2 * eps), c.v + rng.uniform(-2 * eps, 2 * eps))
        q = random_point2(rng)
    if rng.random() < 0.5:
        p, q = q, p
    return corners, p, q, Tolerance(eps_dist=eps)


def test_unpacked_clip_equals_the_list_based_clip_bit_for_bit():
    rng = random.Random(1984)
    sizes = {0: 0, 1: 0, 2: 0}
    for _ in range(12_000):
        corners, p, q, tol = _clip_case(rng)
        w = window_lines(*corners, tol)
        got = clip_segment_to_triangle(p, q, w, tol)
        assert _hex_points(got) == _hex_points(_reference_clip(p, q, w, tol)), (corners, p, q, tol)
        sizes[len(got)] += 1
        for pt in (p, q):
            assert region_code(pt, w, tol) == _reference_code(
                [l1 * pt.u + l2 * pt.v + l3 for l1, l2, l3 in w], tol.eps_dist)
    assert min(sizes.values()) > 1000, sizes
