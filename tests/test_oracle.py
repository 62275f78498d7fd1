"""Checks on the exact-arithmetic reference, plus spot agreement with intersect()."""

import math
import random
from fractions import Fraction

import pytest

from tritri import CaseLabel, DegenerateTriangle, intersect
from tritri.oracle import (
    as_floats,
    oracle_intersect,
    rational_clip_segment,
    rational_point_in_triangle,
    rational_polygon_area,
    rational_polygon_intersection,
)

from conftest import mixed_pairs, points_match_unordered, result_matches_oracle

T1 = ((0, 0, 0), (4, 0, 0), (0, 4, 0))
W2 = ((0, 0), (4, 0), (0, 4))


def test_point_in_triangle_is_boundary_inclusive():
    inside = [(1, 1), (2, 0), (0, 0), (2, 2)]
    outside = [(Fraction(-1, 10 ** 9), 1), (3, 3)]
    for p in inside + outside:
        assert rational_point_in_triangle(p, W2) is (p in inside)
        # the one window test: a point clipped as the segment from it to itself
        assert (rational_clip_segment(p, p, W2)[0] != "empty") is (p in inside)


def test_clip_segment_pass_through():
    kind, pts = rational_clip_segment((1, -1), (1, 5), W2)
    assert kind == "segment"
    assert pts == [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(3))]


def test_clip_segment_miss_and_graze():
    kind, pts = rational_clip_segment((5, 1), (1, 5), W2)
    assert kind == "empty" and pts == []
    kind, pts = rational_clip_segment((3, -1), (5, 1), W2)
    assert kind == "point"
    assert pts == [(Fraction(4), Fraction(0))]


def test_polygon_intersection_pentagon():
    poly = rational_polygon_intersection(
        [(3, -2), (6, 7), (-3, 8)], [(0, 0), (6, 0), (0, 6)]
    )
    assert len(poly) == 5
    assert rational_polygon_area(poly) == Fraction(1591, 120)
    assert (Fraction(0), Fraction(6)) in poly


def test_exact_segment_fixture():
    res = oracle_intersect(T1, ((1, 1, -1), (1, 1, 2), (3, 3, 2)))
    assert res.label is CaseLabel.CROSSING_SEGMENT
    five_thirds = Fraction(5, 3)
    assert sorted(res.points) == [
        (Fraction(1), Fraction(1), Fraction(0)),
        (five_thirds, five_thirds, Fraction(0)),
    ]


def test_identical_triangles():
    res = oracle_intersect(T1, T1)
    assert res.label is CaseLabel.COPLANAR_CONTOUR
    assert points_match_unordered(as_floats(res.points), list(T1))


def test_touch_slack_ignores_exact_zero_margins():
    # the shared vertex sits exactly on the reference plane: that margin is
    # an exact zero handled by policy, so it must not drag slack to zero
    res = oracle_intersect(T1, ((1, 1, 0), (2, 2, 3), (3, 1, 3)))
    assert res.label is CaseLabel.TOUCH_POINT
    assert res.slack > 1e-3


def test_lone_point_slack_stops_at_the_rejecting_side():
    # the lone touch point lies outside side AB, and 6.6e-10 outside the
    # line through BC; the window test stops at AB, so BC, which decides
    # nothing here, adds no margin
    t2 = ((5, -1 + 2 ** -30, 0), (6, 0, 3), (7, -2, 3))
    res = oracle_intersect(T1, t2)
    assert res.label is CaseLabel.CROSSING_PLANES_NO_CONTACT
    assert res.slack > 1e-8
    for a, b in ((T1, t2), (t2, T1)):
        assert intersect(a, b)[0] is oracle_intersect(a, b).label is res.label


def test_scaling_invariance():
    s = Fraction(7, 3)
    rng = random.Random(313)
    for t1, t2 in mixed_pairs(rng, 60):
        base = oracle_intersect(t1, t2)
        scaled = oracle_intersect(
            tuple(tuple(s * Fraction(x) for x in v) for v in t1),
            tuple(tuple(s * Fraction(x) for x in v) for v in t2),
        )
        assert scaled.label is base.label
        assert sorted(scaled.points) == sorted(
            tuple(s * c for c in p) for p in base.points
        )


@pytest.mark.parametrize("k", [100, 200, 300, 400, 500])
def test_scaling_by_a_power_of_two_keeps_labels_and_points(k):
    # 2**k scales every float coordinate exactly; the margins, and so the
    # slack, take squared quantities far past the float range
    s = 2.0 ** k
    for t1, t2 in mixed_pairs(random.Random(331), 40):
        big1 = tuple(tuple(s * x for x in v) for v in t1)
        big2 = tuple(tuple(s * x for x in v) for v in t2)
        for a, b, big_a, big_b in ((t1, t2, big1, big2), (t2, t1, big2, big1)):
            base = oracle_intersect(a, b)
            scaled = oracle_intersect(big_a, big_b)
            assert scaled.label is base.label
            assert scaled.points == tuple(tuple(c * 2 ** k for c in p) for p in base.points)
            assert 0 < scaled.slack <= math.inf


def test_legs_of_1e150_against_a_unit_triangle():
    legs = ((0, 0, 0), (1e150, 0, 0), (0, 1e150, 0))
    unit = ((1, 1, -1), (1, 1, 1), (2, 1, 1))
    for a, b in ((legs, unit), (unit, legs)):
        res = oracle_intersect(a, b)
        assert res.label is CaseLabel.CROSSING_SEGMENT
        assert sorted(res.points) == [(1, 1, 0), (Fraction(3, 2), 1, 0)]
        assert res.slack == 0.5


def test_degenerate_rejected():
    with pytest.raises(DegenerateTriangle):
        oracle_intersect(((0, 0, 0), (1, 1, 1), (2, 2, 2)), T1)


@pytest.mark.parametrize(
    "t2",
    [
        ((0, 0, 1), (4, 0, 1), (0, 4, 1)),
        ((1, 1, -1), (1, 1, 2), (3, 3, 2)),
        ((1, 1, 0), (2, 2, 3), (3, 1, 3)),
        T1,
        ((10, 10, 0), (14, 10, 0), (10, 14, 0)),
        ((0, 0, 1), (4, 0, 2), (0, 4, 3)),
    ],
)
def test_agrees_with_intersect_on_fixtures(t2):
    label, res = intersect(T1, t2)
    ref = oracle_intersect(T1, t2)
    assert ref.label is label
    assert result_matches_oracle(res.points, as_floats(ref.points))
