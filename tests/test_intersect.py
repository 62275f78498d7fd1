import contextlib
import io
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from tritri import (
    DEFAULT_TOLERANCE,
    CaseLabel,
    DegenerateTriangle,
    EmptyReason,
    NonFiniteInput,
    Point2,
    Point3,
    Triangle3,
    ccw_vertices,
    clip_segment_to_triangle,
    intersect,
    intersect_coplanar,
    plane_from_triangle,
    window_lines,
)
from tritri.fileio import read_off, read_pairs
from tritri.intersect import contact_margin, prepare
from tritri.lineplane import project_triangle_edges
from tritri.oracle import as_floats, oracle_intersect

from conftest import (
    contours_match,
    coplanar_pair,
    crossing_pair,
    generic_pair,
    height_field,
    mixed_pairs,
    points_match_unordered,
    result_matches_oracle,
    scaled,
    shared_feature_pair,
    signed_distance,
)

T1 = Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0))


def _tri(*pts):
    return Triangle3(*(Point3(*p) for p in pts))


def _area3(points):
    ax, ay, az = points[0]
    sx = sy = sz = 0.0
    for (bx, by, bz), (cx, cy, cz) in zip(points[1:], points[2:]):
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        sx += uy * vz - uz * vy
        sy += uz * vx - ux * vz
        sz += ux * vy - uy * vx
    return 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)


def test_parallel_planes():
    label, res = intersect(T1, _tri((0, 0, 1), (4, 0, 1), (0, 4, 1)))
    assert label is CaseLabel.PARALLEL_PLANES
    assert res.points == ()
    assert res.reason is EmptyReason.PARALLEL_PLANES


def test_crossing_segment():
    label, res = intersect(T1, _tri((1, 1, -1), (1, 1, 2), (3, 3, 2)))
    assert label is CaseLabel.CROSSING_SEGMENT
    assert points_match_unordered(res.points, [(1, 1, 0), (5 / 3, 5 / 3, 0)])


def test_touch_point():
    label, res = intersect(T1, _tri((1, 1, 0), (2, 2, 3), (3, 1, 3)))
    assert label is CaseLabel.TOUCH_POINT
    assert points_match_unordered(res.points, [(1, 1, 0)])


def test_identical_triangles_contour():
    label, res = intersect(T1, T1)
    assert label is CaseLabel.COPLANAR_CONTOUR
    assert contours_match(res.points, list(T1))


def test_coplanar_disjoint():
    label, res = intersect(T1, _tri((10, 10, 0), (14, 10, 0), (10, 14, 0)))
    assert label is CaseLabel.COPLANAR_NO_CONTACT
    assert res.points == ()
    assert res.reason is EmptyReason.COPLANAR_DISJOINT


def test_crossing_planes_triangle_above():
    label, res = intersect(T1, _tri((0, 0, 1), (4, 0, 2), (0, 4, 3)))
    assert label is CaseLabel.CROSSING_PLANES_NO_CONTACT
    assert res.reason is EmptyReason.PLANES_CROSS_NO_CONTACT


def test_crossing_planes_segment_misses_window():
    label, res = intersect(T1, _tri((10, 10, -1), (10, 10, 2), (12, 12, 2)))
    assert label is CaseLabel.CROSSING_PLANES_NO_CONTACT
    assert res.reason is EmptyReason.SEGMENT_OUTSIDE_WINDOW


def test_triangle_beside_the_other_misses_its_window_in_one_order_and_its_plane_in_the_other():
    # t2 crosses T1's plane along x = 6, beside T1, so its segment is clipped
    # away; every vertex of T1 lies on one side of t2's plane x = 6
    t2 = _tri((6, -1, -1), (6, 1, -1), (6, 0, 1))
    for a, b, reason in ((T1, t2, EmptyReason.SEGMENT_OUTSIDE_WINDOW),
                         (t2, T1, EmptyReason.PLANES_CROSS_NO_CONTACT)):
        label, res = intersect(a, b)
        assert label is CaseLabel.CROSSING_PLANES_NO_CONTACT
        assert res.points == ()
        assert res.reason is reason


def test_sliver_tip_within_the_window_slack_of_the_other_plane_stays_a_touch():
    # the window accepts points up to about eps_dist * L / r beyond a corner
    # (contact_margin); near this sliver's tip L / r is about 65, so t2,
    # whose vertex lies in the sliver's plane 2**-25 (about 30 eps_dist)
    # beyond the tip, touches it, although the whole sliver lies on one
    # side of t2's plane x = -2**-25 by more than eps_dist
    sliver = _tri((0, 0, 0), (64, 1, 0), (64, -1, 0))
    d = 2.0 ** -25
    t2 = _tri((-d, 0, 0), (-d, -1, 1), (-d, 1, 1))
    eps = DEFAULT_TOLERANCE.eps_dist
    assert 20 * eps < d < 40 * eps
    longest = math.hypot(64, 1)
    assert longest / (128 / (2 * longest + 2)) >= 50  # L / r, with r = 2 area / perimeter
    label, res = intersect(sliver, t2)
    assert label is CaseLabel.TOUCH_POINT
    assert res.points == ((-d, 0.0, 0.0),)


def test_segment_collapsing_to_corner_is_touch():
    # t2 lives in the plane x=4, which meets the window only at vertex (4,0,0)
    label, res = intersect(T1, _tri((4, -1, -1), (4, 1, -1), (4, 0, 2)))
    assert label is CaseLabel.TOUCH_POINT
    assert points_match_unordered(res.points, [(4, 0, 0)])


def test_shared_edge_tilted_out_of_plane():
    label, res = intersect(T1, _tri((0, 0, 0), (4, 0, 0), (2, -1, 3)))
    assert label is CaseLabel.CROSSING_SEGMENT
    assert points_match_unordered(res.points, [(0, 0, 0), (4, 0, 0)])


def test_near_parallel_within_tolerance():
    label, _ = intersect(T1, _tri((0, 0, 1), (4, 0, 1 + 4e-13), (0, 4, 1)))
    assert label is CaseLabel.PARALLEL_PLANES


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteInput):
        intersect(T1, _tri((math.nan, 0, 0), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(NonFiniteInput):
        intersect(_tri((0, 0, math.inf), (1, 0, 0), (0, 1, 0)), T1)
    with pytest.raises(NonFiniteInput):
        contact_margin(_tri((0, 0, math.inf), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(NonFiniteInput):
        prepare(_tri((math.nan, 0, 0), (1, 0, 0), (0, 1, 0)))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_vertex = st.tuples(_finite, _finite, _finite)


@st.composite
def _one_non_finite_coordinate(draw):
    """Any triangle, three equal vertices half the time, with one coordinate NaN or ±inf."""
    a = draw(_vertex)
    verts = [a, a, a] if draw(st.booleans()) else [a, draw(_vertex), draw(_vertex)]
    i, k = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    bad = list(verts[i])
    bad[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    verts[i] = tuple(bad)
    return tuple(verts)


@seed(20263)
@settings(max_examples=300, deadline=None)
@given(_one_non_finite_coordinate())
@example(((math.inf, 0.0, 0.0),) * 3)
@example(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, math.nan, 0.0)))
@example(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -math.inf)))
def test_a_non_finite_coordinate_raises_non_finite_input_first(t):
    # NonFiniteInput, never DegenerateTriangle, also for a degenerate triangle
    checks = (plane_from_triangle, prepare, contact_margin,
              lambda t: intersect(t, T1), lambda t: intersect(T1, t))
    for check in checks:
        with pytest.raises(NonFiniteInput):
            check(t)


def test_degenerate_triangle_rejected():
    line = _tri((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(DegenerateTriangle):
        intersect(line, T1)
    with pytest.raises(DegenerateTriangle):
        intersect(T1, _tri((3, 3, 3), (3, 3, 3), (5, 1, 0)))
    with pytest.raises(DegenerateTriangle):
        contact_margin(line)
    with pytest.raises(DegenerateTriangle):
        prepare(line)
    with pytest.raises(DegenerateTriangle):
        prepare(_tri((3, 3, 3), (3, 3, 3), (5, 1, 0)))


def test_segment_lies_on_both_planes():
    # distances are taken from each triangle's first vertex, so the bound is
    # eps_dist plus the spacing of floats at the point, 1.86e-9 near 1e7
    for shift in (0.0, 1e7):
        checked = 0
        for t1, t2 in mixed_pairs(random.Random(4242), 400):
            t1, t2 = ([[c + shift for c in v] for v in t] for t in (t1, t2))
            label, res = intersect(t1, t2)
            if label is not CaseLabel.CROSSING_SEGMENT:
                continue
            checked += 1
            for pl_tri in (t1, t2):
                pl = plane_from_triangle(pl_tri)
                for p in res.points:
                    assert abs(signed_distance(p, pl)) <= 1e-9 + max(math.ulp(c) for c in p)
        assert checked >= 30


def test_swap_symmetry():
    rng = random.Random(777)
    for t1, t2 in mixed_pairs(rng, 300):
        l1, r1 = intersect(t1, t2)
        l2, r2 = intersect(t2, t1)
        assert l1 is l2
        if l1 in (CaseLabel.TOUCH_POINT, CaseLabel.CROSSING_SEGMENT):
            assert points_match_unordered(r1.points, r2.points, tol=1e-7)
        elif l1 is CaseLabel.COPLANAR_CONTOUR:
            a1, a2 = _area3(r1.points), _area3(r2.points)
            assert abs(a1 - a2) <= 1e-9 * max(1.0, a1)


def _rigid(p):
    cz, sz = math.cos(0.7), math.sin(0.7)
    cx, sx = math.cos(0.4), math.sin(0.4)
    x, y, z = p
    x, y = cz * x - sz * y, sz * x + cz * y
    y, z = cx * y - sx * z, sx * y + cx * z
    return (x + 0.3, y - 1.2, z + 2.5)


def test_rigid_motion_invariance():
    fixtures = [
        _tri((0, 0, 1), (4, 0, 1), (0, 4, 1)),
        _tri((1, 1, -1), (1, 1, 2), (3, 3, 2)),
        _tri((1, 1, 0), (2, 2, 3), (3, 1, 3)),
        T1,
        _tri((10, 10, 0), (14, 10, 0), (10, 14, 0)),
        _tri((0, 0, 1), (4, 0, 2), (0, 4, 3)),
    ]
    for t2 in fixtures:
        label, res = intersect(T1, t2)
        m1 = Triangle3(*(Point3(*_rigid(v)) for v in T1))
        m2 = Triangle3(*(Point3(*_rigid(v)) for v in t2))
        mlabel, mres = intersect(m1, m2)
        assert mlabel is label
        moved = [_rigid(p) for p in res.points]
        if label in (CaseLabel.TOUCH_POINT, CaseLabel.CROSSING_SEGMENT):
            assert points_match_unordered(mres.points, moved, tol=1e-9)
        elif label is CaseLabel.COPLANAR_CONTOUR:
            assert contours_match(mres.points, moved, tol=1e-9)


# Faces of a terraced height field that share a vertex, where an edge of the
# second face runs on in the first face's plane past that vertex, along a
# window side.  The clip of that collinear segment must stop at the vertex.
# Literal coordinates of one such pair, faces 80 and 111 of the benchmark's
# seed-1 terraced field (spacing 1/3, terraces of 0.3).
SHARED_VERTEX = (1.0, 4.333333333333333, 0.6)
TERRACE_80 = _tri((0.6666666666666666, 4.0, 1.5), (1.0, 4.0, 1.2), SHARED_VERTEX)
TERRACE_111 = _tri(SHARED_VERTEX, (1.3333333333333333, 4.666666666666666, -0.3),
                   (1.0, 4.666666666666666, 0.3))


def test_shared_vertex_touch_in_both_orders():
    for t1, t2 in ((TERRACE_80, TERRACE_111), (TERRACE_111, TERRACE_80)):
        label, res = intersect(t1, t2)
        assert label is CaseLabel.TOUCH_POINT
        assert math.dist(res.points[0], SHARED_VERTEX) <= 1e-9
    assert oracle_intersect(TERRACE_80, TERRACE_111).label is CaseLabel.TOUCH_POINT


# The second triangle's edges meet the first one's plane at (1, 1, 0) and
# (1 + 0.7e-9, 1, 0): 0.7e-9 apart in the plane's frame, under eps_dist, so
# the clipper merges the two ends into one touch point.
SHORT_HIT_WINDOW = _tri((0, 0, 0), (4, 0, 0), (0, 4, 0))
SHORT_HIT_BLADE = _tri((1, 1, 0.9e-9), (1 + 0.7e-9, 1, 1), (1 + 0.7e-9, 1, -1))


def test_segment_shorter_than_eps_dist_is_a_touch_in_both_orders():
    for t1, t2 in ((SHORT_HIT_WINDOW, SHORT_HIT_BLADE), (SHORT_HIT_BLADE, SHORT_HIT_WINDOW)):
        label, res = intersect(t1, t2)
        assert label is CaseLabel.TOUCH_POINT
        # the oracle says crossing_segment (slack 1.1e-9, under the 1e-8
        # floor) in the first order and touch_point in the second
        ref = oracle_intersect(t1, t2)
        for p in as_floats(ref.points):
            assert math.dist(res.points[0], p) <= 1e-9


def _steep_field(rng, rows=4, cols=4):
    """Integer heights up to 4 on the unit grid: faces steep enough that the
    window angle at a shared vertex is often sharp."""
    return height_field([[float(rng.randint(0, 4)) for _ in range(cols)] for _ in range(rows)])


steep_fields = st.integers(0, 2**32 - 1).map(lambda k: _steep_field(random.Random(k)))


@seed(20261)
@settings(max_examples=60, deadline=None)
@given(steep_fields)
def test_height_field_labels_are_swap_symmetric(faces):
    for t1, t2 in itertools.combinations(faces, 2):
        assert intersect(t1, t2)[0] is intersect(t2, t1)[0]


def test_height_field_agrees_with_oracle():
    rng = random.Random(2026)
    checked = 0
    for _ in range(4):
        faces = _steep_field(rng)
        for a, b in itertools.combinations(faces, 2):
            for t1, t2 in ((a, b), (b, a)):
                ref = oracle_intersect(t1, t2)
                if 0.0 < ref.slack < 1e-8:  # the acceptance suite's slack floor
                    continue
                label, res = intersect(t1, t2)
                assert label is ref.label, (t1, t2)
                assert result_matches_oracle(res.points, as_floats(ref.points)), (t1, t2)
                checked += 1
    assert checked >= 1000


# A pair far from the origin is placed by its own vertices: every distance
# is taken from a triangle's first vertex, so at any offset or magnitude the
# kernel raises only its two documented errors.

FAMILIES = (generic_pair, coplanar_pair, shared_feature_pair, crossing_pair)


@st.composite
def far_pairs(draw):
    """Grid pairs of every family, scaled by 2**k (k from -20 to 1020) and shifted by up to 1e8."""
    family = draw(st.sampled_from(FAMILIES))
    pair = family(random.Random(draw(st.integers(0, 2**32 - 1))))
    scale = 2.0 ** draw(st.integers(-20, 26) | st.integers(27, 1020))
    shift = [draw(st.floats(-1e8, 1e8)) for _ in range(3)]
    return tuple([[c * scale + s for c, s in zip(v, shift)] for v in t] for t in pair)


@seed(20262)
@settings(max_examples=800, deadline=None)
@given(far_pairs())
def test_only_documented_errors_at_any_magnitude(pair):
    # a finite triangle gets a finite unit normal, or DegenerateTriangle
    assume(all(math.isfinite(c) for t in pair for v in t for c in v))
    t1, t2 = pair
    for a, b in ((t1, t2), (t2, t1)):
        with contextlib.suppress(DegenerateTriangle):
            n = plane_from_triangle(a)[:3]
            assert all(map(math.isfinite, n)) and abs(math.hypot(*n) - 1.0) <= 1e-15, a
        with contextlib.suppress(DegenerateTriangle):
            intersect(a, b)


def test_labels_survive_power_of_two_translation():
    # a dyadic grid translated by 2**k stays exact, so the exact answer does
    # not change, and neither may the label, in either order
    rng = random.Random(2027)
    pairs = mixed_pairs(rng, 200)
    labels = [(intersect(a, b)[0], intersect(b, a)[0]) for a, b in pairs]
    for k in range(27):
        for (t1, t2), want in zip(pairs, labels):
            shift = [rng.choice((-1, 1)) * 2.0 ** k for _ in range(3)]
            a, b = ([[c + s for c, s in zip(v, shift)] for v in t] for t in (t1, t2))
            assert (intersect(a, b)[0], intersect(b, a)[0]) == want, (k, t1, t2)


def _finite(*triangles):
    return all(math.isfinite(c) for t in triangles for v in t for c in v)


def test_labels_survive_power_of_two_scaling():
    # scaling by 2**k is exact, so the exact answer does not change, and
    # neither may the label, in either order; past about 2**254 a normal's
    # norm overflows, and the pair is evaluated scaled back by a power of two
    pairs = mixed_pairs(random.Random(2027), 200)
    want = {pair: (intersect(*scaled(pair, 500))[0], intersect(*scaled(pair[::-1], 500))[0])
            for pair in pairs}
    for k in (520, 600, 800, 1000, 1017, 1018, 1019, 1020):
        evaluated = 0
        for pair in pairs:
            for order, (a, b) in enumerate((scaled(pair, k), scaled(pair[::-1], k))):
                if _finite(a, b):  # from 2**1019 some grid coordinates pass the float range
                    assert intersect(a, b)[0] is want[pair][order], (k, a, b)
                    evaluated += 1
        assert evaluated >= 300, k


def test_prepared_pairs_equal_raw_pairs_past_the_norm_overflow():
    # a prepared triangle whose norm may overflow is read raw, so that the
    # pair is scaled as a raw one is: labels and points agree bit for bit
    for k in (600, 1018):
        for pair in mixed_pairs(random.Random(2029), 200):
            for a, b in (scaled(pair, k), scaled(pair[::-1], k)):
                if _finite(a, b):
                    assert repr(intersect(prepare(a), prepare(b))) == repr(intersect(a, b)), (k, a, b)


@pytest.mark.parametrize("far", [0.9 * 2.0 ** 1023, 1.8 * 2.0 ** 1023])
def test_small_triangles_a_float_range_apart_keep_the_oracle_labels(far):
    # each normal's norm is finite, so the pair is not scaled; at 1.8 * 2**1023
    # the differences between the two x-planes pass the float range
    plus = _tri((far, 0, -1), (far, 1, 1), (far, -1, 1))
    minus = _tri((-far, 0, -1), (-far, 1, 1), (-far, -1, 1))
    crossing = _tri((0, -1, 0), (2, 1, 0), (-2, 1, 0))  # meets the x-planes' lines far from them
    for a, b in ((plus, minus), (plus, crossing), (minus, crossing)):
        for x, y in ((a, b), (b, a)):
            want = oracle_intersect(x, y).label
            assert want in (CaseLabel.PARALLEL_PLANES, CaseLabel.CROSSING_PLANES_NO_CONTACT)
            assert intersect(x, y)[0] is intersect(prepare(x), prepare(y))[0] is want, (x, y)


@pytest.mark.parametrize("k", [256, 300, 400, 500, 532, 1000])
def test_crossing_scaled_past_the_squared_norm_overflow(k):
    # legs of 2**k square past the float range in the normal's norm, and from
    # k = 511 the cross product overflows too; the points must still be
    # exactly 2**k times the unit-scale ones
    t2 = _tri((1, 1, -1), (1, 1, 2), (3, 3, 2))
    s = 2.0 ** k
    big1, big2 = (_tri(*([c * s for c in v] for v in t)) for t in (T1, t2))
    for (a, b), (x, y) in (((T1, t2), (big1, big2)), ((t2, T1), (big2, big1))):
        label, res = intersect(x, y)
        assert label is CaseLabel.CROSSING_SEGMENT
        assert res.points == tuple(tuple(c * s for c in p) for p in intersect(a, b)[1].points)


def test_legs_past_the_cross_product_overflow_get_a_unit_normal():
    # legs of 1e160 overflow the cross product itself, not only its squares
    huge, line = _tri((0, 0, 0), (1e160, 0, 0), (0, 1e160, 0)), _tri((0, 0, 0), (1e160,) * 3, (2e160,) * 3)
    small = _tri((1, 1, -1), (1, 1, 1), (2, 1, 1))
    assert plane_from_triangle(huge)[:3] == prepare(huge).normal == (0.0, 0.0, 1.0)
    for a, b in ((huge, small), (small, huge)):
        assert intersect(a, b)[0] is oracle_intersect(a, b).label is CaseLabel.CROSSING_SEGMENT
        assert intersect(prepare(a), prepare(b))[0] is CaseLabel.CROSSING_SEGMENT
    for call in (plane_from_triangle, prepare, lambda t: intersect(t, small), lambda t: intersect(small, t)):
        with pytest.raises(DegenerateTriangle):
            call(line)


def test_a_sliver_past_the_cross_product_overflow_keeps_its_thin_coordinate():
    # the x coordinate 2**-400 carries the whole normal, since the x component's
    # two products of 2**2000 cancel; scaled down by 2**-500 it stays a normal float
    big = 2.0 ** 1000
    sliver = _tri((0, 0, 0), (2.0 ** -400, big, big), (0, big, big))
    r = 1.0 / math.sqrt(2.0)
    assert plane_from_triangle(sliver)[:3] == prepare(sliver).normal == (0.0, -r, r)


def test_a_partner_2_to_the_1038_times_smaller_is_taken_unscaled():
    # the pair scale 2**-519 would flush the small triangle's window area,
    # 2**-39 before the scale, to 0; the pair is then evaluated unscaled
    small = _tri((0, 0, 0), (2.0 ** -19, 0, 0), (0, 2.0 ** -19, 0))
    x, far = 2.0 ** -21, 2.0 ** 1019
    huge = _tri((x, -far, -far), (x, far, -far), (x, 0, far))
    for a, b in ((small, huge), (huge, small)):
        label, res = intersect(a, b)
        assert repr(intersect(prepare(a), prepare(b))) == repr((label, res))
        # the crossing line x = 2**-21 is cut from the huge triangle's edges, whose
        # rounding at 2**1019 leaves one point of it on the small triangle's edge
        assert label in (CaseLabel.TOUCH_POINT, CaseLabel.CROSSING_SEGMENT), (a, b)
        assert all(p.x == x and p.z == 0.0 and 0.0 <= p.y <= 0.75 * 2.0 ** -19 for p in res.points)


def test_errors_keep_their_order_when_the_first_norm_overflows():
    # the first triangle's error, then the second's, each NonFiniteInput before
    # DegenerateTriangle, also where the first triangle would take the pair scale
    huge, line = _tri((0, 0, 0), (1e160, 0, 0), (0, 1e160, 0)), _tri((0, 0, 0), (1e160,) * 3, (2e160,) * 3)
    nan = _tri((0, 0, math.nan), (1, 0, 0), (0, 1, 0))
    for a, b, error in ((huge, nan, NonFiniteInput), (line, nan, DegenerateTriangle),
                        (nan, line, NonFiniteInput), (huge, line, DegenerateTriangle),
                        (line, huge, DegenerateTriangle)):
        for first in (a, [list(v) for v in a], prepare(huge) if a is huge else a):
            with pytest.raises(error):
                intersect(first, b)


@pytest.mark.parametrize("k", [600, 900, 1000])
def test_a_unit_triangle_against_legs_of_2_to_the_k_keeps_its_window(k):
    # the pair is scaled by 2**-(k - 500), not so far that the unit triangle's
    # window area, about 2**(1000 - 2k), underflows
    s = 2.0 ** k
    huge = _tri((0, 0, 0), (s, 0, 0), (0, s, 0))
    small = _tri((1, 1, -1), (1, 1, 1), (2, 1, 1))
    for a, b in ((huge, small), (small, huge)):
        assert intersect(a, b)[0] is oracle_intersect(a, b).label is CaseLabel.CROSSING_SEGMENT
        assert repr(intersect(prepare(a), prepare(b))) == repr(intersect(a, b))


def _vertex_orders(t):
    """The six listings of a triangle's vertices: three rotations, each also reversed."""
    a, b, c = t
    rotations = ((a, b, c), (b, c, a), (c, a, b))
    return [Triangle3(*r) for r in rotations] + [Triangle3(*r[::-1]) for r in rotations]


def test_labels_survive_vertex_rotation_and_reversal():
    # the exact answer does not depend on how a triangle's vertices are
    # listed, and neither may the label, in either order
    rng = random.Random(2028)
    pairs = mixed_pairs(rng, 2000)
    for _ in range(8):
        pairs += itertools.combinations(_steep_field(rng), 2)
    for t1, t2 in pairs:
        for a, b in ((t1, t2), (t2, t1)):
            want = intersect(a, b)[0]
            for v in _vertex_orders(a):
                assert intersect(v, b)[0] is want, (v, b)
            for v in _vertex_orders(b):
                assert intersect(a, v)[0] is want, (a, v)


def test_readers_and_kernel_pass_exact_tuples_and_intersect_returns_point3():
    # CPython 3.11 specialises tuple unpacking and indexing for exact tuples
    # only: the readers and the kernel hand each other plain tuples, and the
    # named tuples are kept for what leaves the package
    def exact(points):
        return bool(points) and all(type(p) is tuple for p in points)

    ((_, t1, t2),) = read_pairs(io.StringIO("0 0 0 4 0 0 0 4 0  1 1 -1 1 1 2 3 3 2\n"))
    (face,) = read_off(io.StringIO("OFF\n3 1 0\n0 0 0\n4 0 0\n0 4 0\n3 0 1 2\n"))
    assert all(type(t) is tuple and exact(t) for t in (t1, t2, face))
    forms = (lambda t: tuple(map(tuple, t)), lambda t: [list(v) for v in t],
             lambda t: Triangle3(*map(Point3._make, t)), prepare)
    for form in forms[:3]:
        assert type(prepare(form(T1)).tri) is tuple and exact(prepare(form(T1)).tri)
    assert prepare(face).tri is face  # an exact tuple is taken uncopied

    for form in forms[:3]:
        points = project_triangle_edges(form(t2), plane_from_triangle(T1))
        assert exact(points) and len(points) == 2
    window = window_lines(Point2(0, 0), Point2(4, 0), Point2(0, 4), DEFAULT_TOLERANCE)
    for p, q in ((Point2(1, 1), Point2(2, 1)), (Point2(1, 1), Point2(5, 1)),
                 ((1.0, 1.0), [9.0, 1.0])):
        assert exact(clip_segment_to_triangle(p, q, window))
    for corners in (((1, 1), (3, 1), (1, 3)), ((-1, -1), (5, -1), (-1, 5)),
                    ((1, 1), (5, 1), (1, 5))):
        assert exact(intersect_coplanar(window, ccw_vertices(*corners)))

    # a crossing segment, a touch point and a contour, from each input form
    partners = (t2, ((1, 1, 0), (1, 1, 2), (2, 1, 3)), ((1, 1, 0), (3, 1, 0), (1, 3, 0)))
    for t2, label in zip(partners, (CaseLabel.CROSSING_SEGMENT, CaseLabel.TOUCH_POINT,
                                     CaseLabel.COPLANAR_CONTOUR)):
        for form in forms:
            got, result = intersect(form(T1), form(t2))
            assert got is label
            assert result.points and all(type(p) is Point3 for p in result.points)
