import math
import random

import pytest

from tritri.core import DEFAULT_TOLERANCE, Plane, Point3, Tolerance, Triangle3, plane_from_triangle
from tritri.errors import DegenerateTriangle
from tritri.intersect import CaseLabel, intersect

from conftest import grid_triangle, signed_distance, vnorm

T1 = Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0))


def test_tolerance_rejects_nonpositive():
    # and non-finite: each field must be positive and finite
    for field in ("eps_dist", "eps_area", "eps_param"):
        for value in (0.0, -1e-9, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                Tolerance(**{field: value})
            with pytest.raises(ValueError):
                Tolerance()._replace(**{field: value})


def test_plane_from_triangle_unit_normal():
    pl = plane_from_triangle(T1)
    assert math.isclose(vnorm((pl.q, pl.w, pl.u)), 1.0, abs_tol=1e-15)
    assert (pl.q, pl.w, pl.u) == (0.0, 0.0, 1.0)
    assert pl.o == T1.a


def test_plane_vertices_have_zero_distance():
    rng = random.Random(31)
    for _ in range(200):
        tri = grid_triangle(rng)
        pl = plane_from_triangle(tri)
        for v in tri:
            assert abs(signed_distance(v, pl)) < 1e-12


def test_vertices_far_from_the_origin_lie_on_their_plane():
    # distances are taken from the first vertex, so they round with the
    # triangle's size, not with its distance from the origin
    rng = random.Random(33)
    for _ in range(200):
        tri = Triangle3(*(Point3(*(c + 1e8 for c in v)) for v in grid_triangle(rng)))
        pl = plane_from_triangle(tri)
        for v in tri:
            assert abs(signed_distance(v, pl)) < 1e-12


def test_degenerate_triangle_raises():
    with pytest.raises(DegenerateTriangle):
        plane_from_triangle(Triangle3(Point3(0, 0, 0), Point3(1, 1, 1), Point3(2, 2, 2)))
    with pytest.raises(DegenerateTriangle):
        plane_from_triangle(Triangle3(Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 0, 0)))


def test_signed_distance_is_metric():
    pl = plane_from_triangle(T1)
    assert math.isclose(signed_distance(Point3(1, 1, 2.5), pl), 2.5)
    assert math.isclose(signed_distance(Point3(1, 1, -2.5), pl), -2.5)


def test_plane_tuple_shape():
    pl = Plane(0.0, 0.0, 1.0, Point3(7, -4, 2))
    assert signed_distance(Point3(5, 5, 3), pl) == 1.0


def test_classify_coincident_reversed_orientation():
    t2 = Triangle3(T1.a, T1.c, T1.b)  # same plane, opposite normal
    assert intersect(T1, t2)[0] is CaseLabel.COPLANAR_CONTOUR


def test_classify_intersecting():
    t2 = Triangle3(Point3(0, 0, -1), Point3(1, 0, 1), Point3(0, 1, 1))
    assert intersect(T1, t2)[0] is CaseLabel.CROSSING_SEGMENT


def test_default_tolerance_values():
    assert DEFAULT_TOLERANCE.eps_dist == 1e-9
    assert DEFAULT_TOLERANCE.eps_area == 1e-12
    assert DEFAULT_TOLERANCE.eps_param == 1e-9
