import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tritri.core import Point3, Triangle3
from tritri.errors import DegenerateTriangle
from tritri.intersect import prepare

from conftest import Point2, dot3, from_plane, kept_frame, to_plane, vnorm


def _frame_for(points):
    # the frame intersect clips in, as prepare keeps it
    p = prepare(Triangle3(*(Point3(*v) for v in points)))
    return kept_frame(p), p


coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
triangles = st.tuples(
    st.tuples(coords, coords, coords),
    st.tuples(coords, coords, coords),
    st.tuples(coords, coords, coords),
)


def _nondegenerate(pts):
    try:
        prepare(Triangle3(*(Point3(*p) for p in pts))).frame_window()
        return True
    except DegenerateTriangle:
        return False


@given(triangles.filter(_nondegenerate))
@settings(max_examples=200, deadline=None)
def test_frame_axes_orthonormal(pts):
    frame, _ = _frame_for(pts)
    assert abs(vnorm(frame.u_axis) - 1) <= 1e-12
    assert abs(vnorm(frame.v_axis) - 1) <= 1e-12
    assert abs(vnorm(frame.n_axis) - 1) <= 1e-12
    assert abs(dot3(frame.u_axis, frame.v_axis)) <= 1e-12
    assert abs(dot3(frame.u_axis, frame.n_axis)) <= 1e-12
    assert abs(dot3(frame.v_axis, frame.n_axis)) <= 1e-12


@given(triangles.filter(_nondegenerate), coords, coords)
@settings(max_examples=200, deadline=None)
def test_round_trip_in_plane(pts, s, t):
    frame, _ = _frame_for(pts)
    p = Point3(*(frame.origin[i] + s * frame.u_axis[i] + t * frame.v_axis[i] for i in range(3)))
    back = from_plane(frame, to_plane(frame, p))
    scale = 1.0 + math.sqrt(dot3(p, p))
    assert max(abs(back[i] - p[i]) for i in range(3)) <= 1e-12 * scale


def test_anchor_maps_to_origin():
    frame, _ = _frame_for([(3, 1, 2), (5, 1, 2), (3, 4, 2)])
    assert frame.origin == (3, 1, 2)
    uv = to_plane(frame, Point3(3, 1, 2))
    assert abs(uv.u) <= 1e-15 and abs(uv.v) <= 1e-15


def test_axis_aligned_normals():
    # normals along each global axis must still give a well-formed frame
    for pts in (
        [(0, 0, 0), (0, 1, 0), (0, 0, 1)],  # normal +x
        [(0, 0, 0), (0, 0, 1), (1, 0, 0)],  # normal +y
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],  # normal +z
    ):
        frame, p = _frame_for(pts)
        assert abs(dot3(frame.u_axis, p.normal)) <= 1e-15


def _along_normal(p, frame, k):
    n = frame.n_axis
    return Point3(p[0] + k * n[0], p[1] + k * n[1], p[2] + k * n[2])


@given(triangles.filter(_nondegenerate), coords, coords, st.floats(-1e3, 1e3))
@settings(max_examples=200, deadline=None)
def test_to_plane_projects_along_the_normal(pts, s, t, k):
    # a point off the plane maps where its foot on the plane does
    frame, _ = _frame_for(pts)
    p = Point3(*(frame.origin[i] + s * frame.u_axis[i] + t * frame.v_axis[i] for i in range(3)))
    got, want = to_plane(frame, _along_normal(p, frame, k)), to_plane(frame, p)
    assert math.dist(got, want) <= 1e-12 * (1.0 + abs(k) + math.hypot(s, t))


def test_to_plane_far_from_the_origin_projects_along_the_normal():
    # far out, a point moved off the plane lands on its foot within the
    # rounding of its own coordinates, and no error is raised on the way
    for shift in (1e4, 1e8):
        frame, _ = _frame_for([tuple(c + shift for c in v)
                               for v in ((0, 0, 0), (1, 0, 0.5), (0, 1, 0.25))])
        for s, t, k in ((0.2, 0.2, 0.001), (0.5, -0.25, 3.0), (-1.0, 2.0, -0.5)):
            p = Point3(*(frame.origin[i] + s * frame.u_axis[i] + t * frame.v_axis[i]
                         for i in range(3)))
            got, want = to_plane(frame, _along_normal(p, frame, k)), to_plane(frame, p)
            assert math.dist(got, want) <= 1e-15 * shift


def test_from_plane_linear():
    frame, _ = _frame_for([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
    p = from_plane(frame, Point2(3.0, -1.5))
    q = to_plane(frame, p)
    assert math.isclose(q.u, 3.0, abs_tol=1e-12)
    assert math.isclose(q.v, -1.5, abs_tol=1e-12)
