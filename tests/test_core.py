import math
import random

import pytest

from tritri.core import (
    DEFAULT_TOLERANCE,
    Plane,
    PlaneRelation,
    Point3,
    Tolerance,
    Triangle3,
    classify_planes,
    plane_from_triangle,
    signed_distance,
    vcross,
    vdot,
    vnorm,
)
from tritri.errors import DegenerateTriangle

from conftest import grid_triangle

T1 = Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0))


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerance(eps_dist=0.0)
    with pytest.raises(ValueError):
        Tolerance(eps_area=-1e-9)


def test_plane_from_triangle_unit_normal():
    pl = plane_from_triangle(T1)
    assert math.isclose(vnorm((pl.q, pl.w, pl.u)), 1.0, abs_tol=1e-15)
    assert (pl.q, pl.w, pl.u) == (0.0, 0.0, 1.0)
    assert pl.r == 0.0


def test_plane_vertices_have_zero_distance():
    rng = random.Random(31)
    for _ in range(200):
        tri = grid_triangle(rng)
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


def test_classify_parallel_offset():
    t2 = Triangle3(*(Point3(v.x, v.y, v.z + 1) for v in T1))
    rel = classify_planes(plane_from_triangle(T1), plane_from_triangle(t2))
    assert rel is PlaneRelation.PARALLEL


def test_classify_coincident_reversed_orientation():
    t2 = Triangle3(T1.a, T1.c, T1.b)  # same plane, opposite normal
    rel = classify_planes(plane_from_triangle(T1), plane_from_triangle(t2))
    assert rel is PlaneRelation.COINCIDENT


def test_classify_intersecting():
    t2 = Triangle3(Point3(0, 0, -1), Point3(1, 0, 1), Point3(0, 1, 1))
    rel = classify_planes(plane_from_triangle(T1), plane_from_triangle(t2))
    assert rel is PlaneRelation.INTERSECTING


def test_cross_dot_conventions():
    assert vcross((1, 0, 0), (0, 1, 0)) == (0.0, 0.0, 1.0)
    assert vdot((1, 2, 3), (4, 5, 6)) == 32.0


def test_default_tolerance_values():
    assert DEFAULT_TOLERANCE.eps_dist == 1e-9
    assert DEFAULT_TOLERANCE.eps_area == 1e-12
    assert DEFAULT_TOLERANCE.eps_param == 1e-9


def test_plane_tuple_shape():
    pl = Plane(0.0, 0.0, 1.0, -2.0)
    assert signed_distance(Point3(5, 5, 3), pl) == 1.0
