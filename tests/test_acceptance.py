"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (bypassing capture) so the verdicts read off the pytest log directly.
The randomized criteria use fixed seeds; the exact-arithmetic reference in
tritri.oracle supplies the ground truth.
"""

import json
import math
import random
import time

from tritri import (
    DEFAULT_TOLERANCE,
    CaseLabel,
    Point3,
    Triangle3,
    intersect,
    prepare,
)
from tritri.cli import main
from tritri.clip2d import (
    clip_segment_to_triangle,
    region_code,
    window_lines,
)
from tritri.coplanar import intersect_coplanar
from tritri.oracle import (
    as_floats,
    oracle_intersect,
    rational_clip_segment,
    rational_point_in_triangle,
    rational_polygon_area,
    rational_polygon_intersection,
)

from conftest import (
    Point2,
    ccw_vertices,
    contours_match,
    from_plane,
    kept_frame,
    mixed_pairs,
    points_match_unordered,
    polygon_area2,
    random_point2,
    random_triangle2,
    result_matches_oracle,
    to_plane,
)

T1 = Triangle3(Point3(0, 0, 0), Point3(4, 0, 0), Point3(0, 4, 0))
SLACK_FLOOR = 1e-8  # 10 x eps_dist: below this the two routes may legally differ


def _verdict(capsys, num, name, ok, extra=""):
    tail = f"  ({extra})" if extra else ""
    with capsys.disabled():
        print(f"\nacceptance criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")


def _tri3(*pts):
    return Triangle3(*(Point3(*p) for p in pts))


def _d2(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def test_criterion_1_canonical_cases(capsys):
    start = time.perf_counter()
    fixtures = [
        (_tri3((0, 0, 1), (4, 0, 1), (0, 4, 1)), CaseLabel.PARALLEL_PLANES, None),
        (_tri3((1, 1, -1), (1, 1, 2), (3, 3, 2)), CaseLabel.CROSSING_SEGMENT,
         [(1, 1, 0), (5 / 3, 5 / 3, 0)]),
        (_tri3((1, 1, 0), (2, 2, 3), (3, 1, 3)), CaseLabel.TOUCH_POINT, [(1, 1, 0)]),
        (T1, CaseLabel.COPLANAR_CONTOUR, list(T1)),
        (_tri3((10, 10, 0), (14, 10, 0), (10, 14, 0)), CaseLabel.COPLANAR_NO_CONTACT, None),
        (_tri3((0, 0, 1), (4, 0, 2), (0, 4, 3)), CaseLabel.CROSSING_PLANES_NO_CONTACT, None),
    ]
    failures = []
    for t2, want_label, want_points in fixtures:
        label, res = intersect(T1, t2)
        if label is not want_label:
            failures.append(f"{want_label.value}: got {label.value}")
        elif want_points is None:
            if res.points:
                failures.append(f"{want_label.value}: unexpected points")
        elif label is CaseLabel.COPLANAR_CONTOUR:
            if not contours_match(res.points, want_points):
                failures.append(f"{want_label.value}: contour mismatch")
        elif not points_match_unordered(res.points, want_points):
            failures.append(f"{want_label.value}: geometry mismatch")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _verdict(capsys, 1, "six canonical cases", ok, f"{elapsed * 1e3:.0f} ms")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_oracle_agreement(capsys):
    rng = random.Random(20260814)
    start = time.perf_counter()
    pairs = mixed_pairs(rng, 10_000)
    excluded = 0
    failures = []
    for t1, t2 in pairs:
        ref = oracle_intersect(t1, t2)
        if 0.0 < ref.slack < SLACK_FLOOR:
            excluded += 1
            continue
        label, res = intersect(t1, t2)
        if label is not ref.label:
            failures.append(f"label {label.value} vs {ref.label.value}")
            continue
        if not result_matches_oracle(res.points, as_floats(ref.points)):
            failures.append(f"geometry mismatch on {label.value}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _verdict(capsys, 2, "10k-pair oracle agreement", ok,
             f"{len(pairs)} pairs, {excluded} below slack floor, {elapsed:.1f} s")
    assert not failures, failures[:5]
    assert elapsed < 60.0


# interior representatives of the seven region-code zones of the canonical
# window (0,0) (4,0) (0,4); jitter below keeps each inside its zone
_REP = {0: (1, 1), 1: (3, 3), 2: (1, -2), 3: (6, -1),
        4: (-2, 1), 5: (-1, 6), 6: (-2, -2)}
_CODE_PAIRS = [(a, b) for a in range(7) for b in range(7) if a & b == 0]


def _line_distance(p, a, b):
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return abs(cross) / math.hypot(b[0] - a[0], b[1] - a[1])


def _boundary_distance(p, corners):
    a, b, c = corners
    return min(_line_distance(p, a, b), _line_distance(p, a, c), _line_distance(p, b, c))


def _clips_agree(res, want_pts, corners):
    got = [tuple(p) for p in res]
    want = [(float(x), float(y)) for x, y in want_pts]
    if len(got) == len(want):
        if len(got) < 2:
            return all(_d2(g, w) <= 1e-9 for g, w in zip(got, want))
        return (_d2(got[0], want[0]) <= 1e-9 and _d2(got[1], want[1]) <= 1e-9) or (
            _d2(got[0], want[1]) <= 1e-9 and _d2(got[1], want[0]) <= 1e-9)
    # structurally different answers agree only when the extra feature is
    # smaller than the tolerance (a graze the two routes resolve differently)
    small, big = sorted((got, want), key=len)
    if not small:
        return len(big) == 1 and _boundary_distance(big[0], corners) <= 1e-9
    if len(small) == 1 and len(big) == 2:
        return _d2(*big) <= 2e-9 and _d2(small[0], big[0]) <= 2e-9
    return False


def test_criterion_3_clip_vs_exact(capsys):
    rng = random.Random(30003)
    canonical = (Point2(0, 0), Point2(4, 0), Point2(0, 4))
    canonical_win = window_lines(*canonical, DEFAULT_TOLERANCE)
    observed = set()
    failures = structural = 0
    total = 100_000
    start = time.perf_counter()
    for i in range(total):
        if i % 4 == 0:
            a, b = _CODE_PAIRS[(i // 4) % len(_CODE_PAIRS)]
            ra, rb = _REP[a], _REP[b]
            p = Point2(ra[0] + rng.uniform(-0.3, 0.3), ra[1] + rng.uniform(-0.3, 0.3))
            q = Point2(rb[0] + rng.uniform(-0.3, 0.3), rb[1] + rng.uniform(-0.3, 0.3))
            corners, win = canonical, canonical_win
        else:
            corners = random_triangle2(rng)
            win = window_lines(*corners, DEFAULT_TOLERANCE)
            p, q = random_point2(rng), random_point2(rng)
        if p == q:
            continue
        observed.add((region_code(p, win), region_code(q, win)))
        res = clip_segment_to_triangle(p, q, win)
        _, pts = rational_clip_segment(p, q, corners)
        if len(res) != len(pts):
            structural += 1
        if not _clips_agree(res, pts, corners):
            failures += 1
    elapsed = time.perf_counter() - start
    missing = [cp for cp in _CODE_PAIRS if cp not in observed]
    ok = failures == 0 and not missing
    _verdict(capsys, 3, "100k clips vs exact clipping", ok,
             f"{len(_CODE_PAIRS) - len(missing)}/25 code pairs, "
             f"{structural} sub-tolerance grazes, {elapsed:.1f} s")
    assert failures == 0
    assert not missing, missing


def test_criterion_4_region_code_soundness(capsys):
    rng = random.Random(40004)
    failures = 0
    start = time.perf_counter()
    for _ in range(10_000):
        a, b, c = random_triangle2(rng)
        win = window_lines(a, b, c, DEFAULT_TOLERANCE)
        for _ in range(70):
            p = random_point2(rng, lo=-20, hi=20)
            if region_code(p, win) == 7:
                failures += 1
        # points within eps of a side's line must have that side's bit clear
        for va, vb, bit in ((a, b, 2), (a, c, 4), (b, c, 1)):
            for _ in range(10):
                t = rng.uniform(-0.5, 1.5)
                delta = rng.uniform(-4e-10, 4e-10)
                ex, ey = vb[0] - va[0], vb[1] - va[1]
                norm = math.hypot(ex, ey)
                p = Point2(va[0] + t * ex - delta * ey / norm,
                           va[1] + t * ey + delta * ex / norm)
                code = region_code(p, win)
                if code == 7 or code & bit:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _verdict(capsys, 4, "1M region codes", ok, f"{elapsed:.1f} s")
    assert failures == 0


def _rand_tri3(rng):
    while True:
        pts = [Point3(*(rng.uniform(-10, 10) for _ in range(3))) for _ in range(3)]
        ux, uy, uz = (pts[1][i] - pts[0][i] for i in range(3))
        vx, vy, vz = (pts[2][i] - pts[0][i] for i in range(3))
        cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if cx * cx + cy * cy + cz * cz > 1.0:
            return Triangle3(*pts)


def test_criterion_5_frame_round_trip(capsys):
    rng = random.Random(50005)
    worst_rt = worst_ortho = 0.0
    start = time.perf_counter()
    for _ in range(100_000):
        tri = _rand_tri3(rng)
        frame = kept_frame(prepare(tri))  # the frame intersect clips in
        u, v, n = frame.u_axis, frame.v_axis, frame.n_axis
        dots = (
            abs(sum(x * x for x in u) - 1), abs(sum(x * x for x in v) - 1),
            abs(sum(x * x for x in n) - 1),
            abs(sum(x * y for x, y in zip(u, v))),
            abs(sum(x * y for x, y in zip(u, n))),
            abs(sum(x * y for x, y in zip(v, n))),
        )
        worst_ortho = max(worst_ortho, *dots)
        s, t = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a, b, c = tri
        p = Point3(*(a[i] + s * (b[i] - a[i]) + t * (c[i] - a[i]) for i in range(3)))
        back = from_plane(frame, to_plane(frame, p))
        err = math.dist(back, p) / (1.0 + math.dist(p, (0, 0, 0)))
        worst_rt = max(worst_rt, err)
    elapsed = time.perf_counter() - start
    ok = worst_rt <= 1e-12 and worst_ortho <= 1e-12
    _verdict(capsys, 5, "100k frame round-trips", ok,
             f"worst round-trip {worst_rt:.1e}, worst orthonormality {worst_ortho:.1e}, "
             f"{elapsed:.1f} s")
    assert worst_rt <= 1e-12
    assert worst_ortho <= 1e-12


def _contour_area(res):
    if res:
        return abs(polygon_area2([tuple(v) for v in res]))
    return 0.0


def test_criterion_6_coplanar_contours(capsys):
    rng = random.Random(60006)
    failures = []
    contours = contained = 0
    start = time.perf_counter()
    for _ in range(10_000):
        w, c = random_triangle2(rng), random_triangle2(rng)
        res = intersect_coplanar(window_lines(*w, DEFAULT_TOLERANCE), c)
        poly = rational_polygon_intersection([tuple(v) for v in c], [tuple(v) for v in w])
        want = float(rational_polygon_area(poly)) if poly else 0.0
        got = _contour_area(res)
        if abs(got - want) > 1e-9 * max(1.0, want):
            failures.append(f"area {got} vs {want}")
        if res:
            contours += 1
            if not 3 <= len(res) <= 6:
                failures.append(f"{len(res)} contour vertices")
            if polygon_area2([tuple(v) for v in res]) <= 0:
                failures.append("contour not counter-clockwise")
            n = len(res)
            for i in range(n):
                p0, p1, p2 = res[i], res[(i + 1) % n], res[(i + 2) % n]
                turn = (p1[0] - p0[0]) * (p2[1] - p1[1]) - (p1[1] - p0[1]) * (p2[0] - p1[0])
                if turn < -1e-9:
                    failures.append("reflex contour corner")
        for inner, outer, name in ((c, w, "clipped in window"), (w, c, "window in clipped")):
            inner_vs = [tuple(v) for v in inner]
            if all(rational_point_in_triangle(v, outer) for v in inner_vs):
                contained += 1
                if not contours_match([tuple(v) for v in res], inner_vs, tol=1e-12):
                    failures.append(f"contour is not the contained triangle ({name})")
    elapsed = time.perf_counter() - start
    ok = not failures
    _verdict(capsys, 6, "10k coplanar contours vs exact areas", ok,
             f"{contours} contours, {contained} of them containments, {elapsed:.1f} s")
    assert not failures, failures[:5]


def test_criterion_7_five_vertex_contour(capsys):
    window = window_lines(Point2(0, 0), Point2(6, 0), Point2(0, 6), DEFAULT_TOLERANCE)
    clipped = ccw_vertices(Point2(3, -2), Point2(6, 7), Point2(-3, 8))
    res = intersect_coplanar(window, clipped)
    want = [(11 / 3, 0.0), (17 / 4, 7 / 4), (0.0, 6.0), (0.0, 3.0), (9 / 5, 0.0)]
    ok = (
        len(res) == 5
        and contours_match([tuple(v) for v in res], want, tol=1e-12)
        and sum(tuple(v) in {(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)} for v in res) == 1
    )
    _verdict(capsys, 7, "pentagon contour with one window vertex", ok)
    assert ok


def test_criterion_8_cli_determinism(capsys, tmp_path):
    src = tmp_path / "pairs.txt"
    pairs = mixed_pairs(random.Random(80008), 10_000)
    src.write_text("".join(
        " ".join(repr(c) for tri in pair for v in tri for c in v) + "\n"
        for pair in pairs))
    outputs, rates = [], []
    for run, extra in enumerate(([], [], ["--jobs", "1"])):
        out = tmp_path / f"run{run}.jsonl"
        code = main(["pair", "--input", str(src), "--output", str(out), *extra])
        summary = json.loads(capsys.readouterr().err.strip())
        assert code == 0
        rates.append(summary["pairs_per_s"])
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0].splitlines()) == 10_000
    # throughput is reported for the record; the determinism contract is asserted
    _verdict(capsys, 8, "CLI byte-identical across runs", ok,
             f"throughput {min(rates)}-{max(rates)} pairs/s")
    assert ok
