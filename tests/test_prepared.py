"""Prepared triangles give the same answers as raw ones, bit for bit.

``prepare`` keeps a triangle's plane, frame, window and side lines for
reuse; these tests compare ``repr`` of the results, so every float bit of
every point counts, and check that mesh mode builds the per-face work once
per face rather than once per candidate pair.
"""

import importlib
import random

from tritri.cli import run_meshes
from tritri.core import DEFAULT_TOLERANCE, Point3, Tolerance, plane_from_triangle, signed_distance
from tritri.errors import PointOffPlane
from tritri.frame import build_frame, to_plane
from tritri.intersect import CaseLabel, _map_onto, intersect, prepare

from conftest import coplanar_partner, grid_triangle, height_field, mixed_pairs

LOOSE = Tolerance(eps_dist=0.05, eps_param=0.05)


def _heights(rng, n=7):
    return [[rng.randint(0, 4) / 4 for _ in range(n)] for _ in range(n)]


def _foot(p, pl) -> Point3:
    """The point of ``pl`` closest to ``p``: ``p`` moved back along the normal."""
    d = signed_distance(p, pl)
    return Point3(p[0] - d * pl.q, p[1] - d * pl.w, p[2] - d * pl.u)


def _mapped(f, *args):
    try:
        return repr(f(*args))
    except PointOffPlane:
        return "PointOffPlane"


def test_map_onto_is_snap_then_to_plane_bit_for_bit():
    rng = random.Random(37)
    for shift in (0.0, 1e7):  # 1e7 away, rounding trips the on-plane check
        raised = 0
        for t1, t2 in mixed_pairs(rng, 500):
            t1, t2 = ([[c + shift for c in v] for v in t] for t in (t1, t2))
            pl = plane_from_triangle(t1)
            frame = build_frame(pl, t1[0])
            for p in (*t1, *t2):
                got = _mapped(_map_onto, frame, pl, p, DEFAULT_TOLERANCE)
                want = _mapped(lambda: to_plane(frame, _foot(p, pl)))
                assert got == want
                raised += got == "PointOffPlane"
        assert (raised > 0) == (shift > 0)


def test_prepared_pairs_equal_raw_pairs():
    for t1, t2 in mixed_pairs(random.Random(41), 2000):
        for a, b in ((t1, t2), (t2, t1)):
            assert repr(intersect(prepare(a), prepare(b))) == repr(intersect(a, b))


def test_prepared_faces_reused_across_all_pairs_equal_raw():
    faces = height_field(_heights(random.Random(43)))
    prepared = [prepare(f) for f in faces]
    labels = set()
    for i, fi in enumerate(faces):
        for j, fj in enumerate(faces):
            if i != j:
                label, result = intersect(prepared[i], prepared[j])
                assert repr((label, result)) == repr(intersect(fi, fj))
                labels.add(label)
    assert {CaseLabel.COPLANAR_NO_CONTACT, CaseLabel.TOUCH_POINT,
            CaseLabel.CROSSING_SEGMENT} <= labels


def test_one_prepared_triangle_against_many_partners():
    rng = random.Random(47)
    for _ in range(20):
        t1 = grid_triangle(rng)
        reused = prepare(t1)
        partners = [coplanar_partner(rng, t1) for _ in range(10)]
        partners += [grid_triangle(rng) for _ in range(10)]
        cached = None
        for t2 in partners:
            assert repr(intersect(reused, t2)) == repr(intersect(prepare(t1), t2))
            assert repr(intersect(t2, reused)) == repr(intersect(t2, prepare(t1)))
            if cached is None:
                cached = reused.frame_window()
            # the cached frame and window are the same objects, unchanged
            frame, window = reused.frame_window()
            assert frame is cached[0] and window is cached[1]
        assert cached == prepare(t1).frame_window()


def test_triangle_prepared_under_another_tolerance_is_prepared_again():
    wide = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
    spike = ((1.0, 1.0, 0.01), (1.0, 1.0, 5.0), (3.0, 1.0, 5.0))
    # the spike's tip is 0.01 above the wide triangle: a touch only under LOOSE
    assert intersect(wide, spike, LOOSE)[0] is CaseLabel.TOUCH_POINT
    assert intersect(wide, spike)[0] is CaseLabel.CROSSING_PLANES_NO_CONTACT
    p1, p2 = prepare(wide, LOOSE), prepare(spike, LOOSE)
    assert prepare(p1, Tolerance(eps_dist=0.05, eps_param=0.05)) is p1
    assert prepare(p1, DEFAULT_TOLERANCE) is not p1
    assert intersect(p1, p2, LOOSE)[0] is CaseLabel.TOUCH_POINT  # fills p1's cache
    assert repr(intersect(p1, p2)) == repr(intersect(wide, spike))
    assert repr(intersect(p2, p1)) == repr(intersect(spike, wide))


def test_mesh_mode_builds_per_face_work_once_per_face(monkeypatch):
    faces = height_field(_heights(random.Random(53), 8))
    calls = {"build_frame": 0, "_window_lines": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the modules, not the functions tritri/__init__.py re-exports under their names
    counted(importlib.import_module("tritri.intersect"), "build_frame")
    counted(importlib.import_module("tritri.clip2d"), "_window_lines")
    results, _ = run_meshes(faces, faces, DEFAULT_TOLERANCE, same_mesh=True)
    assert len(results) > 2 * len(faces)  # kernel calls, so the bound below bites
    assert 0 < calls["build_frame"] <= len(faces)
    assert 0 < calls["_window_lines"] <= len(faces)
