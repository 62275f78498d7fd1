"""``intersect`` is the composition of one function per step, bit for bit.

``intersect`` runs as one straight-line body: the plane, the plane
relation, the frame, the maps into and out of it and the window's side
lines are computed inline.  The reference below is the kernel written as
the composition of ``plane_from_triangle``, ``classify_planes``,
``project_triangle_edges``, ``build_frame``, ``window_lines``,
``to_plane``, ``clip_segment_to_triangle``, ``intersect_coplanar`` and
``from_plane``; the plane relation and the frame maps are test code in
``conftest``.  Labels, reasons, errors and every bit of every point
(``float.hex``, so -0.0 and 0.0 differ) must agree.
"""

import math
import random

import pytest

from tritri.clip2d import ccw_vertices, clip_segment_to_triangle, window_lines
from tritri.coplanar import intersect_coplanar
from tritri.core import DEFAULT_TOLERANCE, Point3, Tolerance, Triangle3, plane_from_triangle
from tritri.errors import DegenerateTriangle, NonFiniteInput
from tritri.intersect import (
    CaseLabel,
    EmptyReason,
    IntersectionResult,
    PreparedTriangle,
    contact_margin,
    intersect,
    prepare,
)
from tritri.lineplane import project_triangle_edges

from conftest import (PlaneRelation, build_frame, classify_planes, coplanar_partner, dist3,
                      from_plane, grid_triangle, mixed_pairs, scaled, to_plane, vcross, vnorm, vsub)

LOOSE = Tolerance(eps_dist=0.05, eps_param=0.05)


# --- the kernel as a composition of one function per step ---------------------


def _reference_tri_plane(t, tol):
    if isinstance(t, PreparedTriangle):
        if t.tol == tol:
            return t.tri, t.plane
        t = t.tri
    tri = Triangle3(*(Point3(*v) for v in t))
    return tri, plane_from_triangle(tri, tol)


def _reference_coplanar(frame, window, tri2, tol):
    clipped = ccw_vertices(*(to_plane(frame, v) for v in tri2), tol)
    contour = intersect_coplanar(window, clipped, tol)
    if not contour:
        return CaseLabel.COPLANAR_NO_CONTACT, IntersectionResult(reason=EmptyReason.COPLANAR_DISJOINT)
    return CaseLabel.COPLANAR_CONTOUR, IntersectionResult(tuple(from_plane(frame, q) for q in contour))


def reference_intersect(t1, t2, tol=DEFAULT_TOLERANCE):
    tri1, pl1 = _reference_tri_plane(t1, tol)
    tri2, pl2 = _reference_tri_plane(t2, tol)

    def frame_window():
        # built only where the kernel needs it: window_lines may raise
        frame = build_frame(pl1)
        return frame, window_lines(*(to_plane(frame, v) for v in tri1), tol)

    relation = classify_planes(pl1, pl2, tol)
    if relation is PlaneRelation.PARALLEL:
        return CaseLabel.PARALLEL_PLANES, IntersectionResult(reason=EmptyReason.PARALLEL_PLANES)
    if relation is PlaneRelation.COINCIDENT:
        return _reference_coplanar(*frame_window(), tri2, tol)
    points = project_triangle_edges(tri2, pl1, tol)
    if points is None:
        return _reference_coplanar(*frame_window(), tri2, tol)
    if not points:
        return (CaseLabel.CROSSING_PLANES_NO_CONTACT,
                IntersectionResult(reason=EmptyReason.PLANES_CROSS_NO_CONTACT))
    frame, window = frame_window()
    e = to_plane(frame, points[0])
    x = e if len(points) == 1 else to_plane(frame, points[1])
    clip = clip_segment_to_triangle(e, x, window, tol)
    if not clip:
        return (CaseLabel.CROSSING_PLANES_NO_CONTACT,
                IntersectionResult(reason=EmptyReason.SEGMENT_OUTSIDE_WINDOW))
    if len(points) == 1:
        return CaseLabel.TOUCH_POINT, IntersectionResult((Point3(*points[0]),))
    lifted = tuple(from_plane(frame, q) for q in clip)
    label = CaseLabel.TOUCH_POINT if len(lifted) == 1 else CaseLabel.CROSSING_SEGMENT
    return label, IntersectionResult(lifted)


# --- comparison ---------------------------------------------------------------


def _bits(c):
    return c.hex() if type(c) is float else repr(c)


def _outcome(fn, t1, t2, tol):
    """Label, reason and every point's type and coordinate bits; or the error type."""
    try:
        label, result = fn(t1, t2, tol)
    except (DegenerateTriangle, NonFiniteInput) as exc:
        return type(exc)
    points = tuple((type(p), tuple(map(_bits, p))) for p in result.points)
    return label, result.reason, points


def _check(pairs, tol=DEFAULT_TOLERANCE, form=None) -> dict:
    """Compares every pair with the reference; returns the count of each outcome's label.

    With ``form``, the kernel takes each triangle in that input form (one
    of ``FORMS``), and the reference the pair as given.
    """
    seen: dict = {}
    for t1, t2 in pairs:
        want = _outcome(reference_intersect, t1, t2, tol)
        if form is not None:
            t1, t2 = form(t1), form(t2)
        assert _outcome(intersect, t1, t2, tol) == want, (t1, t2, tol)
        key = want if isinstance(want, type) else want[0]
        seen[key] = seen.get(key, 0) + 1
    return seen


def _both_orders(pairs):
    return [p for t1, t2 in pairs for p in ((t1, t2), (t2, t1))]


# --- inputs ---------------------------------------------------------------------


def _sliver(rng):
    """A triangle of length 1 to 20 whose height is 1e-4 to 1e-1 of its length."""
    a, b = grid_triangle(rng)[:2]
    e = vsub(b, a)
    n = vcross(e, (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)))
    h = vnorm(e) * 10.0 ** rng.uniform(-4, -1) / vnorm(n)
    t = rng.uniform(-0.2, 1.2)
    c = Point3(*(a[i] + t * e[i] + h * n[i] for i in range(3)))
    return Triangle3(a, b, c)


def _near_the_margin(rng, tol):
    """A sliver moved off a crossing triangle's plane to near the clip's reach.

    The clip accepts points up to eps_dist * L / r outside the sliver (L its
    longest edge, r its inradius; see ``contact_margin``), and L / r <= 3 L^2
    / |e x f| (e, f the edges from the first vertex).  The sliver's nearest
    vertex ends up at 0.9 to 1.1 times eps_dist * (1 + 3 L^2 / |e x f|) plus
    a rounding term, or half the time within 1e-5 of it, relative.
    """
    t1, t2 = _sliver(rng), grid_triangle(rng)
    pl2 = plane_from_triangle(t2, tol)
    a, b, c = t1
    e, f = vsub(b, a), vsub(c, a)
    longest2 = max(vnorm(e), vnorm(f), dist3(b, c)) ** 2
    margin = tol.eps_dist * (1.0 + 3.0 * longest2 / vnorm(vcross(e, f)))
    margin += 1e-12 * (1.0 + max(map(abs, (*a, *b, *c, *t2[0], *t2[1], *t2[2]))))
    side = rng.choice((-1.0, 1.0))
    dists = [side * (pl2.q * (v[0] - pl2.o[0]) + pl2.w * (v[1] - pl2.o[1]) + pl2.u * (v[2] - pl2.o[2]))
             for v in t1]
    ratio = rng.uniform(0.9, 1.1) if rng.random() < 0.5 else 1.0 + rng.uniform(-1e-5, 1e-5)
    move = side * (ratio * margin - min(dists))
    t1 = Triangle3(*(Point3(v[0] + move * pl2.q, v[1] + move * pl2.w, v[2] + move * pl2.u) for v in t1))
    return t1, t2


def _as_lists(t):
    return [list(v) for v in t]


# the input forms intersect takes a triangle in; each must give the same outcome
FORMS = {
    "named tuples": lambda t: Triangle3(*(Point3(*v) for v in t)),
    "plain tuples": lambda t: tuple(map(tuple, t)),
    "lists": _as_lists,
    "prepared": prepare,
}


# --- tests ------------------------------------------------------------------------


def test_flat_intersect_equals_the_composed_kernel_bit_for_bit():
    rng = random.Random(1919)
    mixed = mixed_pairs(rng, 2000)
    total = 0

    for name, form in FORMS.items():
        seen = _check(_both_orders(mixed), form=form)
        assert len(seen) == 5, (name, seen)  # every label but parallel_planes, and no error
        total += sum(seen.values())

    # coplanar partners, and partners moved off the plane by a few eps_dist or by 1
    coplanar = []
    for t1, _ in mixed[:500]:
        t2 = coplanar_partner(rng, t1)
        n = plane_from_triangle(t1)
        d = DEFAULT_TOLERANCE.eps_dist * rng.choice((0.0, 0.5, 0.999, 1.001, 3.0, 1e9))
        coplanar.append((t1, Triangle3(*(Point3(v[0] + d * n.q, v[1] + d * n.w, v[2] + d * n.u)
                                          for v in t2))))
    seen = _check(_both_orders(coplanar))
    assert min(seen[CaseLabel.COPLANAR_CONTOUR], seen[CaseLabel.PARALLEL_PLANES]) > 100, seen
    total += sum(seen.values())

    # slivers near the clip's reach beyond the first triangle, under two tolerances
    for tol in (DEFAULT_TOLERANCE, LOOSE):
        near = []
        while len(near) < 1000:
            pair = _near_the_margin(rng, tol)
            if project_triangle_edges(pair[1], plane_from_triangle(pair[0], tol), tol):
                near.append(pair)  # the second triangle meets the first one's plane
        seen = _check(near, tol)
        assert seen.get(CaseLabel.CROSSING_PLANES_NO_CONTACT, 0) > 100, seen
        total += sum(seen.values())

    # prepared against raw, prepared under the call's tolerance and under another one
    prepared = []
    for t1, t2 in mixed[:500]:
        prepared += [(prepare(t1), t2), (t1, prepare(t2)), (prepare(t1), prepare(t2)),
                     (prepare(t1, LOOSE), t2)]
    seen = _check(prepared)
    total += sum(seen.values())

    # LOOSE, and plain lists of lists
    total += sum(_check(_both_orders(mixed[:1000]), LOOSE).values())
    total += sum(_check([(_as_lists(t1), _as_lists(t2)) for t1, t2 in mixed[:1000]]).values())

    # scaled by 2**k for k up to 500: past about 2**254 the squared norm
    # overflows, and the normals and the pair are taken from scaled coordinates
    rows = [scaled(pair, rng.randint(-30, 500)) for pair in mixed[:1000]]
    rows += [scaled(pair, k) for pair, k in zip(mixed, range(256, 501))]
    seen = _check(_both_orders(rows))
    total += sum(seen.values())
    assert total >= 10_000


def test_planes_cross_no_contact_means_the_second_triangle_misses_the_first_plane():
    # the reason of a crossing pair without contact says which test decided
    # it: the second triangle's vertex codes, or the clip of its segment
    rng = random.Random(2020)
    cases = [(pair, DEFAULT_TOLERANCE) for pair in _both_orders(mixed_pairs(rng, 1000))]
    cases += [(_near_the_margin(rng, tol), tol) for tol in (DEFAULT_TOLERANCE, LOOSE)
              for _ in range(1000)]
    seen = {EmptyReason.PLANES_CROSS_NO_CONTACT: 0, EmptyReason.SEGMENT_OUTSIDE_WINDOW: 0}
    for (t1, t2), tol in cases:
        label, result = intersect(t1, t2, tol)
        if label is CaseLabel.CROSSING_PLANES_NO_CONTACT:
            missed = project_triangle_edges(t2, plane_from_triangle(t1, tol), tol) == []
            want = (EmptyReason.PLANES_CROSS_NO_CONTACT if missed
                    else EmptyReason.SEGMENT_OUTSIDE_WINDOW)
            assert result.reason is want, (t1, t2, tol)
            seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_the_inline_plane_raises_non_finite_input_before_degenerate_triangle():
    good = Triangle3(Point3(0.0, 0.0, 0.0), Point3(4.0, 0.0, 0.0), Point3(0.0, 4.0, 0.0))
    line = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    cases = [((0.0, 0.0, math.nan), (0.0, 0.0, math.nan), (1.0, 0.0, 0.0)),  # degenerate too
             ((math.inf, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
             ((0.0, 0.0, 0.0), (1.0, -math.inf, 0.0), (0.0, 1.0, 0.0))]
    for bad in cases:
        for form in (bad, _as_lists(bad), Triangle3(*(Point3(*v) for v in bad))):
            for t1, t2 in ((form, good), (good, form), (form, line), (form, prepare(good))):
                with pytest.raises(NonFiniteInput):
                    intersect(t1, t2)
            # the first triangle is checked first
            with pytest.raises(DegenerateTriangle):
                intersect(line, form)
    assert _check([(line, good), (good, line), (line, line)]) == {DegenerateTriangle: 3}


def _reference_contact_margin(t, tol=DEFAULT_TOLERANCE):
    a, b, c = prepare(t, tol).tri
    edges = (dist3(a, b), dist3(b, c), dist3(c, a))
    longest = max(edges)
    area = 0.5 * vnorm(vcross(vsub(b, a), vsub(c, a)))
    inradius = 2.0 * area / sum(edges)
    reach = max(vnorm(a), vnorm(b), vnorm(c))
    return tol.eps_dist * (1.0 + longest + longest / inradius) + 1e-12 * (1.0 + reach)


def test_flat_contact_margin_equals_the_composed_one_bit_for_bit():
    rng = random.Random(1920)
    triangles = [t for pair in mixed_pairs(rng, 500) for t in pair]
    triangles += [_sliver(rng) for _ in range(500)]
    triangles += [scaled((t,), rng.randint(0, 500))[0] for t in triangles[:500]]
    for t in triangles:
        for tol in (DEFAULT_TOLERANCE, LOOSE):
            for form in (t, _as_lists(t), prepare(t, tol)):
                assert contact_margin(form, tol).hex() == _reference_contact_margin(form, tol).hex()
