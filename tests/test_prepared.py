"""Prepared triangles give the same answers as raw ones, bit for bit.

``prepare`` keeps a triangle's normal, frame axes and window side lines for
reuse; these tests compare ``repr`` of the results, so every float bit of
every point counts, and check that mesh mode builds the per-face work once
per face rather than once per candidate pair.
"""

import dis
import importlib
import math
import random
import sys

import pytest

from tritri.clip2d import window_lines
from tritri.cli import run_meshes, run_pairs
from tritri.core import DEFAULT_TOLERANCE, Plane, Tolerance
from tritri.errors import GeometryError
from tritri.intersect import (CaseLabel, PreparedTriangle, _frame_window, _margin, contact_margin,
                              intersect, prepare)

from conftest import (build_frame, coplanar_pair, coplanar_partner, grid_triangle, height_field,
                      mixed_pairs, scaled, to_plane)

LOOSE = Tolerance(eps_dist=0.05, eps_param=0.05)


def _heights(rng, n=7):
    return [[rng.randint(0, 4) / 4 for _ in range(n)] for _ in range(n)]


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
            # the cached axes and window are the same objects, unchanged
            axes, window = reused.frame_window()
            assert axes is cached[0] and window is cached[1]
        assert cached == prepare(t1).frame_window()


def _bits(x):
    """Every float of a nested tuple as ``float.hex``, so that -0.0 and 0.0 differ."""
    return tuple(map(_bits, x)) if isinstance(x, tuple) else float(x).hex()


def test_frame_window_is_built_frame_and_window_lines_bit_for_bit():
    triangles = [
        ((0, 0, 0), (4, 0, 0), (0, 4, 0)),  # normal (0, 0, 1)
        ((1, 1, -2), (1, -3, -2), (-3, 1, -2)),  # (0, 0, -1)
        ((1, 0, 0), (1, 0, 3), (1, 3, 0)),  # (-1, 0, 0)
        ((0, 2, 0), (3, 2, 0), (0, 2, 3)),  # (0, -1, 0)
        ((0, 0, 0), (1, -1, 0), (0, 0, 1)),  # (-1, -1, 0) / sqrt 2: two equal components
        ((1, 0, 0), (0, 0, 1), (0, 1, 0)),  # (-1, -1, -1) / sqrt 3: all negative, all equal
        ((2, -1, 3), (1, 0, 4), (2, 0, -1)),  # (-5, -4, -1) / sqrt 42: all negative
    ]
    triangles += [t for pair in mixed_pairs(random.Random(67), 500) for t in pair]
    triangles += scaled(triangles, 600)  # side-line offsets past the float range, taken scaled
    signed_zero_origins = 0
    for t in triangles:
        p = prepare(t)
        frame = build_frame(Plane(*p.normal, p.tri[0]))
        a, b, c = (to_plane(frame, v) for v in p.tri)
        # a far triangle keeps no frame: intersect builds it per pair, with the same function
        axes, window = (p.frame_window() if p.tol is not None
                        else _frame_window(p.tri, *p.normal, DEFAULT_TOLERANCE))
        assert _bits((p.tri[0], *axes, p.normal)) == _bits(frame)
        assert _bits(window) == _bits(window_lines(a, b, c, DEFAULT_TOLERANCE))
        signed_zero_origins += any(math.copysign(1.0, x) < 0.0 for x in a)
    # some origins map to -0.0, so the first corner's signs of zero are compared too
    assert signed_zero_origins > 0


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
    calls = {"_frame_window": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the module, not the names tritri/__init__.py re-exports; _frame_window is
    # the one builder of a first triangle's frame and window side lines
    counted(importlib.import_module("tritri.intersect"), "_frame_window")
    _, summary = run_meshes(faces, faces, DEFAULT_TOLERANCE)
    assert sum(summary["cases"].values()) > 2 * len(faces)  # kernel calls: the bound below bites
    assert 0 < calls["_frame_window"] <= len(faces)

    # coplanar pairs: a frame and window for the first triangle, none for the second
    pairs = [coplanar_pair(random.Random(59 + k)) for k in range(200)]
    calls["_frame_window"] = 0
    _, summary = run_pairs([(k, t1, t2) for k, (t1, t2) in enumerate(pairs)], DEFAULT_TOLERANCE)
    assert summary["cases"]["coplanar_contour"] > len(pairs) // 4
    assert 0 < calls["_frame_window"] <= len(pairs)
    first, rng = prepare(pairs[0][0]), random.Random(61)
    calls["_frame_window"] = 0
    for _ in range(20):
        label, _ = intersect(first, coplanar_partner(rng, first.tri))
        assert label in (CaseLabel.COPLANAR_CONTOUR, CaseLabel.COPLANAR_NO_CONTACT)
    assert calls["_frame_window"] == 1


def test_a_prepared_triangle_keeps_plain_tuples_and_one_tolerance():
    p = prepare(((0, 0, 0), (4, 0, 0), (0, 4, 0)))
    assert len(PreparedTriangle.__slots__) == 4
    assert type(p.normal) is tuple and p.normal == (0.0, 0.0, 1.0)
    assert p.tol is DEFAULT_TOLERANCE
    axes, window = p.frame_window()
    assert type(axes) is tuple and [type(a) for a in axes] == [tuple, tuple]
    assert type(window) is tuple and [type(line) for line in window] == [tuple, tuple, tuple]
    # legs of 1e160 overflow the norm: the triangle keeps no tolerance, and intersect reads it raw
    huge = prepare(((0, 0, 0), (1e160, 0, 0), (0, 1e160, 0)))
    assert huge.tol is None and huge.normal == (0.0, 0.0, 1.0)
    # so it keeps no frame either, and says why when asked for one
    with pytest.raises(ValueError, match=r"norm overflowed"):
        huge.frame_window()


def _moved_out(t, k: int, axis: int) -> tuple:
    """``t`` moved out to 2**k along ``axis``, and stretched along it by 2**(k - 40).

    The float spacing at 2**k, 2**(k - 52), would merge the unit-scale
    coordinates along the axis; stretched, they stay apart, exactly for the
    grid ones.  Up to k = 500 the norm, below about 2**(k - 30), has finite
    squares; from k = 600 they overflow.
    """
    o, s = 2.0 ** k, 2.0 ** (k - 40)
    return tuple(tuple(o + c * s if i == axis else c for i, c in enumerate(v)) for v in t)


def _outcome(t1, t2):
    """``intersect``'s label, reason and point bits, or the type of its error."""
    try:
        label, result = intersect(t1, t2)
    except GeometryError as exc:
        return type(exc)
    return label, result.reason, _bits(result.points)


def _margin_by_its_own_norm(t, tol=DEFAULT_TOLERANCE) -> float:
    """``contact_margin`` from the prepared corners and a cross product of its own."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = prepare(t, tol).tri
    ex, ey, ez = bx - ax, by - ay, bz - az
    fx, fy, fz = cx - ax, cy - ay, cz - az
    nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    return _margin(ax, ay, az, bx, by, bz, cx, cy, cz, nn, tol.eps_dist)


@pytest.mark.parametrize("k", [254, 300, 400, 500, 700])
def test_a_triangle_far_out_with_a_finite_norm_keeps_its_tolerance(k):
    # a coordinate of 2**k puts the triangle past any bound on its coordinates'
    # size; the kernel's own test of its norm decides whether it keeps tol, so
    # up to k = 500 every one keeps it and builds its frame, and prepared and
    # raw triangles, mixed in either order, give the same bits
    mixed = mixed_pairs(random.Random(79), 60)
    moved = [tuple(_moved_out(t, k, axis) for t in pair) for axis in range(3) for pair in mixed]
    big = [scaled(pair, 600)[1] for pair in mixed]  # partners whose norms overflow
    pairs = moved + list(zip([a for a, _ in moved], big))
    prepared = {t: prepare(t) for pair in pairs for t in pair}
    assert all(prepared[t].tol is None for t in big)
    kept = [prepared[t] for pair in moved for t in pair if prepared[t].tol is not None]
    assert len(kept) == (2 * len(moved) if k <= 500 else 0)
    for p in kept:
        axes, window = p.frame_window()
        assert _bits((axes, window)) == _bits(_frame_window(p.tri, *p.normal, DEFAULT_TOLERANCE))
    for pair in pairs:
        for a, b in (pair, pair[::-1]):
            want = _outcome(a, b)
            for x, y in ((prepared[a], b), (a, prepared[b]), (prepared[a], prepared[b])):
                assert _outcome(x, y) == want, (k, a, b)
    # contact_margin takes the norm the gate took: the same bits, raw or prepared
    for t, p in prepared.items():
        want = _margin_by_its_own_norm(t).hex()
        assert contact_margin(t).hex() == contact_margin(p).hex() == want, t


def test_the_margin_and_the_gate_agree_on_plain_and_overflowed_triangles():
    huge = ((0.0, 0.0, 0.0), (1e160, 0.0, 0.0), (0.0, 1e160, 0.0))  # the cross product overflows
    triangles = [t for pair in mixed_pairs(random.Random(83), 100) for t in pair]
    triangles += [huge, *scaled(triangles[:20], 300), *scaled(triangles[:20], 600)]
    for t in triangles:
        want = _margin_by_its_own_norm(t).hex()
        assert contact_margin(t).hex() == contact_margin(prepare(t)).hex() == want, t
        assert contact_margin([list(v) for v in t]).hex() == want
    assert contact_margin(huge) == math.inf and prepare(huge).tol is None


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the adaptive opcode names are those of CPython 3.11")
def test_the_kernel_unpacks_only_exact_tuples():
    # CPython 3.11 specialises an unpack for an exact tuple or list only; an
    # unpack of a named tuple stays UNPACK_SEQUENCE_ADAPTIVE after warm-up
    faces = [prepare(f) for f in height_field(_heights(random.Random(71), 8))]
    for p in faces:
        for q in faces:
            if p is not q:
                intersect(p, q)
    for t1, t2 in mixed_pairs(random.Random(73), 400):
        t1, t2 = tuple(map(tuple, t1)), tuple(map(tuple, t2))  # as the readers give them
        intersect(t1, t2)
        intersect(t2, t1)
    adaptive = [(fn.__qualname__, ins.positions.lineno)
                for fn in (intersect, PreparedTriangle.frame_window)
                for ins in dis.get_instructions(fn, adaptive=True)
                if ins.opname == "UNPACK_SEQUENCE_ADAPTIVE"]
    assert adaptive == []
