"""The mesh broad phase held to brute force.

``run_meshes`` sends only the pairs whose grown bounding boxes overlap to
the kernel.  These tests call ``intersect`` on every candidate pair instead
and require the same contact records, on pairs the kernel reports as
contacts well outside an eps_dist-grown box and on small random meshes.
"""

import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import tritri.cli
from tritri.cli import CONTACT_CASES, _face_boxes, _overlapping_pairs, run_meshes
from tritri.core import DEFAULT_TOLERANCE, Point3, Triangle3
from tritri.errors import DegenerateTriangle, NonFiniteInput
from tritri.intersect import CaseLabel, contact_margin, intersect
from tritri.oracle import oracle_intersect

from conftest import height_field, point_triangle_distance

WIDE = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
SLIVER = ((0.0, -0.02, 0.0), (0.0, 0.02, 0.0), (4.0, 0.0, 0.0))


def _tri(points) -> Triangle3:
    return Triangle3(*(Point3(*map(float, p)) for p in points))


def brute_force_contacts(faces_a, faces_b, same_mesh=False, tol=DEFAULT_TOLERANCE):
    contacts = []
    for i, t1 in enumerate(faces_a):
        for j in range(i + 1 if same_mesh else 0, len(faces_b)):
            try:
                label, result = intersect(t1, faces_b[j], tol)
            except DegenerateTriangle:
                continue
            if label.value in CONTACT_CASES:
                contacts.append(((i, j), label.value, tuple(tuple(p) for p in result.points)))
    return contacts


def brute_force_overlaps(boxes_a, boxes_b, same_mesh=False):
    def overlap(p, q):
        return all(p[2 * k] <= q[2 * k + 1] and q[2 * k] <= p[2 * k + 1] for k in range(3))

    return [(i, j) for i, p in enumerate(boxes_a)
            for j in range(i + 1 if same_mesh else 0, len(boxes_b))
            if p is not None and boxes_b[j] is not None and overlap(p, boxes_b[j])]


def assert_matches_brute_force(faces_a, faces_b, tol=DEFAULT_TOLERANCE):
    """``run_meshes``' records against brute force; one list twice is a mesh against itself."""
    same_mesh = faces_a is faces_b
    records, _ = run_meshes(faces_a, faces_b, tol)
    want = brute_force_contacts(faces_a, faces_b, same_mesh, tol)
    assert [record[:3] for record in records] == want
    boxes_a = _face_boxes(faces_a, tol)
    boxes_b = _face_boxes(faces_b, tol)
    assert (_overlapping_pairs(boxes_a, boxes_b, same_mesh)
            == brute_force_overlaps(boxes_a, boxes_b, same_mesh))
    return want


def test_a_face_whose_margin_overflows_hides_no_other_contact():
    # legs of 1e160 overflow the margin's squared edges: its box must span everything
    huge, g = _tri(((0, 0, 0), (1e160, 0, 0), (0, 1e160, 0))), _tri(((1, 1, -1), (1, 1, 1), (2, 1, 1)))
    assert contact_margin(huge) == math.inf
    for faces in ([huge, _tri(WIDE)], [_tri(WIDE), huge]):  # the infinite box first or last, in A or B
        assert len(assert_matches_brute_force(faces, [g])) == 2
        assert len(assert_matches_brute_force([g], faces)) == 2


@pytest.mark.parametrize("d", [5e-9, 5e-7, 0.05])
def test_edge_parameter_slack_reaches_the_kernel(d):
    # the spike's lowest vertex is d above the wide face, beyond eps_dist, so
    # each vertex is coded +1 against the face's plane; the wide face's
    # segment passes d below that vertex.  No contact in either order, as
    # the exact oracle says
    spike = _tri(((1, 1, d), (1, 1, 1e3), (3, 1, 1e3)))
    wide = _tri(WIDE)
    for first, second in ((wide, spike), (spike, wide)):
        assert assert_matches_brute_force([first], [second]) == []
        assert intersect(first, second)[0] is CaseLabel.CROSSING_PLANES_NO_CONTACT
        assert oracle_intersect(first, second).label is CaseLabel.CROSSING_PLANES_NO_CONTACT


def test_sliver_tip_reaches_the_kernel():
    # 1e-7 past the sharp tip, yet within eps_dist of both long sides
    post = _tri(((4 + 1e-7, 0, -1), (4 + 1e-7, 0, 1), (5 + 1e-7, 1, 1)))
    sliver = _tri(SLIVER)
    assert [c[1] for c in assert_matches_brute_force([sliver], [post])] == ["touch_point"]
    assert_matches_brute_force([post], [sliver])


@st.composite
def height_fields(draw, offset_steps=0):
    """A height field of up to 3 x 3 cells, heights on half steps, offset on quarter steps."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    heights = draw(st.lists(st.lists(st.integers(0, 2).map(lambda h: h / 2),
                                     min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    step = st.integers(-offset_steps, offset_steps).map(lambda k: k / 4)
    return height_field(heights, offset=(draw(step), draw(step), draw(step)))


@seed(20240)
@settings(max_examples=60, deadline=None)
@given(height_fields(), height_fields(offset_steps=4))
def test_height_fields_match_brute_force(mesh_a, mesh_b):
    assert_matches_brute_force(mesh_a, mesh_b)
    assert_matches_brute_force(mesh_b, mesh_a)
    assert_matches_brute_force(mesh_a, mesh_a)


@st.composite
def near_coplanar_meshes(draw):
    """Triangles in z = 0 about 1e3 from the origin, against copies tilted about the y axis.

    The tilt stays below eps_dist, so the normals pass as parallel although
    the faces sit up to about 1e3 * tilt apart: the planes are coincident or
    parallel by the gap at a face's first vertex.  The axes are then
    permuted so the gap also falls on the sweep axis.
    """
    grid = st.integers(-8, 8).map(lambda k: k / 4)
    sin_tilt = draw(st.floats(0.0, 0.9e-9))
    axes = draw(st.permutations((0, 1, 2)))
    mesh_a, mesh_b = [], []
    for _ in range(draw(st.integers(1, 3))):
        for mesh, sin in ((mesh_a, 0.0), (mesh_b, sin_tilt)):
            verts = [(1e3 + draw(grid), draw(grid)) for _ in range(3)]
            lifted = [(x, y, x * sin) for x, y in verts]
            mesh.append(_tri([tuple(v[k] for k in axes) for v in lifted]))
    return mesh_a, mesh_b


@seed(20241)
@settings(max_examples=150, deadline=None)
@given(near_coplanar_meshes())
def test_near_coplanar_far_from_origin_matches_brute_force(meshes):
    mesh_a, mesh_b = meshes
    assert_matches_brute_force(mesh_a, mesh_b)
    assert_matches_brute_force(mesh_b, mesh_a)


def test_height_field_far_from_origin_matches_brute_force():
    # 2**23 out, distances are still taken from each face's first vertex, so
    # the margins keep no term in the distance from the origin but rounding
    rng = random.Random(20243)
    heights = [[rng.randint(0, 4) / 4 for _ in range(6)] for _ in range(6)]
    far = height_field(heights, offset=(2.0 ** 23,) * 3)
    moved = height_field(heights, offset=(2.0 ** 23 + 0.25, 2.0 ** 23 + 0.25, 2.0 ** 23))
    assert assert_matches_brute_force(far, far)
    assert assert_matches_brute_force(far, moved)
    assert assert_matches_brute_force(moved, far)


@pytest.mark.parametrize("corner", [(4, 4, 0), (-4, 4, 0.5), (4.25, -4, 0)])
def test_height_fields_meeting_at_a_corner_match_brute_force(corner):
    # two fields of 5 x 5 cells that overlap in one corner cell or less: only
    # the faces near that corner have a box that meets the other mesh's hull
    rng = random.Random(20245)
    heights = [[rng.randint(0, 2) / 2 for _ in range(6)] for _ in range(6)]
    field, moved = height_field(heights), height_field(heights, offset=corner)
    for mesh_a, mesh_b in ((field, moved), (moved, field)):
        assert_matches_brute_force(mesh_a, mesh_b)
        _, summary = run_meshes(mesh_a, mesh_b, DEFAULT_TOLERANCE)
        boxes_a = _face_boxes(mesh_a, DEFAULT_TOLERANCE)
        boxes_b = _face_boxes(mesh_b, DEFAULT_TOLERANCE)
        overlaps = brute_force_overlaps(boxes_a, boxes_b)
        assert sum(summary["cases"].values()) == len(overlaps)  # a kernel call per overlap
        assert summary["culled"] == 50 * 50 - len(overlaps) > 50 * 49
        assert summary["pairs"] == 50 * 50 and summary["skipped"] == 0


def test_a_face_is_prepared_on_its_first_candidate_pair(monkeypatch):
    # two fields of 5 x 5 cells that overlap in one corner cell: most faces
    # have no candidate pair, and none of those is prepared
    rng = random.Random(20246)
    heights = [[rng.randint(0, 2) / 2 for _ in range(6)] for _ in range(6)]
    field, moved = height_field(heights), height_field(heights, offset=(4, 4, 0.5))
    prepare, prepared = tritri.cli.prepare, []

    def counted(t, tol):
        prepared.append(t)
        return prepare(t, tol)

    monkeypatch.setattr(tritri.cli, "prepare", counted)
    for mesh_a, mesh_b in ((field, moved), (moved, field), (field, field)):
        prepared.clear()
        _, summary = run_meshes(mesh_a, mesh_b, DEFAULT_TOLERANCE)
        assert summary["skipped"] == 0  # so every candidate pair reaches the kernel
        candidates = _overlapping_pairs(_face_boxes(mesh_a, DEFAULT_TOLERANCE),
                                        _face_boxes(mesh_b, DEFAULT_TOLERANCE), mesh_a is mesh_b)
        faces = {id(mesh_a[i]) for i, _ in candidates} | {id(mesh_b[j]) for _, j in candidates}
        assert sorted(map(id, prepared)) == sorted(faces)  # each face once
        if mesh_a is not mesh_b:  # against itself, every face has a neighbour
            assert 0 < len(prepared) < (len(mesh_a) + len(mesh_b)) // 4


def test_faces_past_the_float_squares_are_checked_as_the_kernel_checks_them():
    # legs of 1e200 overflow the norm: such a face goes through
    # plane_from_triangle in the box pass, whose overflow branch gates it
    huge = _tri(((0, 0, 0), (1e200, 0, 0), (0, 1e200, 0)))
    big = _tri(((1e199, 1e199, -1e199), (1e199, 1e199, 1e199), (2e199, 1e199, 1e199)))
    small = _tri(((1, 1, -1), (1, 1, 1), (2, 1, 1)))
    flat = _tri(((0, 0, 0), (1e200, 1e200, 0), (2e200, 2e200, 0)))  # collinear, area 0
    contacts = assert_matches_brute_force([huge, _tri(WIDE), flat], [big, small, flat])
    assert [(ids, case) for ids, case, _ in contacts] == [
        ((0, 0), "crossing_segment"), ((0, 1), "crossing_segment"), ((1, 1), "crossing_segment")]
    _, summary = run_meshes([huge, _tri(WIDE), flat], [big, small, flat], DEFAULT_TOLERANCE)
    assert summary["skipped_by"] == {"DegenerateTriangle": 5}
    # a NaN coordinate still ends the run, in either mesh, as it did before the sweep
    nan = _tri(((0, 0, 0), (1, 0, 0), (0, math.nan, 0)))
    for faces_a, faces_b in (([nan], [small]), ([small], [small, nan]), ([huge, nan], [huge])):
        with pytest.raises(NonFiniteInput):
            run_meshes(faces_a, faces_b, DEFAULT_TOLERANCE)


boxes = st.one_of(st.none(), st.tuples(*[st.integers(-4, 4), st.integers(0, 3)] * 3).map(
    lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3], t[4], t[4] + t[5])))


@seed(20242)
@settings(max_examples=300, deadline=None)
@given(st.lists(boxes, max_size=12), st.lists(boxes, max_size=12),
       st.tuples(*[st.integers(-12, 12)] * 3))
def test_sweep_equals_brute_force_overlap(boxes_a, boxes_b, offset):
    # integer boxes: many shared and touching faces.  Mesh B is moved by an
    # integer offset, so the two meshes' hulls overlap in part, touch in one
    # face or miss, and the hull cull drops some boxes, all or none
    dx, dy, dz = offset
    boxes_b = [None if b is None else (b[0] + dx, b[1] + dx, b[2] + dy, b[3] + dy,
                                       b[4] + dz, b[5] + dz) for b in boxes_b]
    assert _overlapping_pairs(boxes_a, boxes_b, False) == brute_force_overlaps(boxes_a, boxes_b)
    # one list as two meshes: the diagonal pairs (i, i), B's boxes numbered on from A's
    assert _overlapping_pairs(boxes_a, boxes_a, False) == brute_force_overlaps(boxes_a, boxes_a)
    assert (_overlapping_pairs(boxes_a, boxes_a, True)
            == brute_force_overlaps(boxes_a, boxes_a, same_mesh=True))


def test_near_coplanar_far_from_origin_reaches_the_kernel():
    # faces 5e-7 apart, as the property above generates them: the gap is
    # taken at the second face's first vertex, as the oracle takes it, so
    # the planes are parallel and there is no contact in either order
    t1 = _tri(((1000, 0, 0), (1002, 0, 0), (1000, 2, 0)))
    t2 = _tri([(x, y, x * 5e-10) for x, y in ((1000.5, 0.5), (1001.5, 0.5), (1000.5, 1.5))])
    for first, second in ((t1, t2), (t2, t1)):
        assert assert_matches_brute_force([first], [second]) == []
        assert intersect(first, second)[0] is CaseLabel.PARALLEL_PLANES
        assert oracle_intersect(first, second).label is CaseLabel.PARALLEL_PLANES


def _tilted_coplanar_pair(rng, length, eps):
    """A fat triangle with longest edge about ``length`` and an overlapping partner.

    Both lie in one randomly oriented plane; the partner is then tilted by
    a sine below ``eps`` about a line through its first vertex and lifted
    by a gap below ``eps``, so the kernel takes the pair as coplanar while
    the partner's far vertices sit up to about ``eps * length`` off the
    first plane.
    """
    while True:
        n = [rng.gauss(0.0, 1.0) for _ in range(3)]
        nn = math.sqrt(sum(c * c for c in n))
        if nn > 0.1:
            break
    n = [c / nn for c in n]
    k = min(range(3), key=lambda i: abs(n[i]))
    u = [(1.0 if i == k else 0.0) - n[k] * n[i] for i in range(3)]
    un = math.sqrt(sum(c * c for c in u))
    u = [c / un for c in u]
    v = [n[1] * u[2] - n[2] * u[1], n[2] * u[0] - n[0] * u[2], n[0] * u[1] - n[1] * u[0]]
    origin = [rng.uniform(-length, length) for _ in range(3)]

    def lift(x, y, h):
        return Point3(*(origin[i] + x * u[i] + y * v[i] + h * n[i] for i in range(3)))

    def fat(cx, cy, size):
        turn = rng.uniform(0.0, 2.0 * math.pi)
        return [(cx + size * math.cos(turn + a), cy + size * math.sin(turn + a))
                for a in (0.0, rng.uniform(1.8, 2.4), rng.uniform(3.9, 4.5))]

    first = fat(0.0, 0.0, length / math.sqrt(3.0))
    second = fat(*(rng.uniform(-0.3, 0.3) * length for _ in range(2)),
                 rng.uniform(0.5, 1.0) * length / math.sqrt(3.0))
    sin_tilt, gap = rng.uniform(0.5, 0.95) * eps, rng.uniform(-0.95, 0.95) * eps
    turn = rng.uniform(0.0, 2.0 * math.pi)
    dx, dy = math.cos(turn), math.sin(turn)
    ax, ay = second[0]
    t1 = Triangle3(*(lift(x, y, 0.0) for x, y in first))
    t2 = Triangle3(*(lift(x, y, gap + sin_tilt * ((x - ax) * dx + (y - ay) * dy))
                     for x, y in second))
    return t1, t2


@pytest.mark.parametrize("length", [10.0, 100.0, 1000.0])
def test_contour_points_lie_within_both_contact_margins(length):
    # the docstring's bound, point by point: a coplanar contour lies in the
    # reference plane, up to eps_dist * (1 + L) off the other triangle, which
    # only the margin's snap term covers
    rng = random.Random(20244 + int(length))
    eps = DEFAULT_TOLERANCE.eps_dist
    contours = worst = 0
    for _ in range(300):
        t1, t2 = _tilted_coplanar_pair(rng, length, eps)
        margins = {t: contact_margin(t) for t in (t1, t2)}
        for first, second in ((t1, t2), (t2, t1)):
            label, result = intersect(first, second)
            if label is not CaseLabel.COPLANAR_CONTOUR:
                continue
            contours += 1
            for p in result.points:
                for t, margin in margins.items():
                    worst = max(worst, point_triangle_distance(p, t) / margin)
    assert contours >= 300
    assert worst <= 1.0
