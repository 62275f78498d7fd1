"""Shared generators and comparison helpers for the test suite.

3D pair generators snap coordinates to a dyadic grid (multiples of 1/64)
so that affine constructions evaluate exactly in float arithmetic: a
"forced coplanar" triangle built from grid barycentric combinations is
coplanar as a rational statement, not merely within rounding.  That keeps
the exact oracle's classification honest on degenerate families.
"""

import itertools
import math
import random

from tritri.core import Point3, Triangle3
from tritri.frame import Point2
from tritri.clip2d import ccw_vertices

GRID = 64
SPAN = 640  # +/- 10 in grid steps


def grid_point(rng: random.Random) -> Point3:
    return Point3(
        rng.randint(-SPAN, SPAN) / GRID,
        rng.randint(-SPAN, SPAN) / GRID,
        rng.randint(-SPAN, SPAN) / GRID,
    )


def _double_area(t) -> float:
    ax = [t[1][i] - t[0][i] for i in range(3)]
    bx = [t[2][i] - t[0][i] for i in range(3)]
    n = (
        ax[1] * bx[2] - ax[2] * bx[1],
        ax[2] * bx[0] - ax[0] * bx[2],
        ax[0] * bx[1] - ax[1] * bx[0],
    )
    return math.sqrt(sum(c * c for c in n))


def grid_triangle(rng: random.Random, min_area: float = 0.5) -> Triangle3:
    while True:
        t = Triangle3(grid_point(rng), grid_point(rng), grid_point(rng))
        if _double_area(t) / 2.0 > min_area:
            return t


def generic_pair(rng: random.Random):
    return grid_triangle(rng), grid_triangle(rng)


def coplanar_partner(rng: random.Random, t1) -> Triangle3:
    """A triangle built from exact grid combinations in t1's plane."""
    a, b, c = t1
    while True:
        verts = []
        for _ in range(3):
            al = rng.randint(-2 * GRID, 2 * GRID) / GRID
            be = rng.randint(-2 * GRID, 2 * GRID) / GRID
            verts.append(Point3(*(a[i] + al * (b[i] - a[i]) + be * (c[i] - a[i]) for i in range(3))))
        t2 = Triangle3(*verts)
        if _double_area(t2) / 2.0 > 0.5:
            return t2


def coplanar_pair(rng: random.Random):
    """Second triangle built from exact grid combinations in t1's plane."""
    t1 = grid_triangle(rng)
    return t1, coplanar_partner(rng, t1)


def shared_feature_pair(rng: random.Random):
    """Pairs sharing one vertex, or a whole edge half the time."""
    t1 = grid_triangle(rng)
    while True:
        if rng.random() < 0.5:
            t2 = Triangle3(t1[rng.randrange(3)], grid_point(rng), grid_point(rng))
        else:
            i = rng.randrange(3)
            t2 = Triangle3(t1[i], t1[(i + 1) % 3], grid_point(rng))
        if _double_area(t2) / 2.0 > 0.5:
            return t1, t2


def crossing_pair(rng: random.Random):
    """Pairs whose second triangle straddles the first one's plane."""
    while True:
        t1, t2 = grid_triangle(rng), grid_triangle(rng)
        a = t1[0]
        ax = [t1[1][i] - a[i] for i in range(3)]
        bx = [t1[2][i] - a[i] for i in range(3)]
        n = (
            ax[1] * bx[2] - ax[2] * bx[1],
            ax[2] * bx[0] - ax[0] * bx[2],
            ax[0] * bx[1] - ax[1] * bx[0],
        )
        nl = math.sqrt(sum(q * q for q in n))
        sd = [sum(n[i] * (v[i] - a[i]) for i in range(3)) / nl for v in t2]
        if min(sd) < -1e-3 and max(sd) > 1e-3:
            return t1, t2


def mixed_pairs(rng: random.Random, count: int):
    """The acceptance mix: 40% generic, 30% coplanar, 15% shared, 15% crossing."""
    out = []
    for k in range(count):
        u = k % 20
        if u < 8:
            out.append(generic_pair(rng))
        elif u < 14:
            out.append(coplanar_pair(rng))
        elif u < 17:
            out.append(shared_feature_pair(rng))
        else:
            out.append(crossing_pair(rng))
    return out


# --- 2D ----------------------------------------------------------------------


def random_triangle2(rng: random.Random, lo=-10.0, hi=10.0, min_area=0.5) -> tuple[Point2, Point2, Point2]:
    """Three corners of a window of area above min_area, ordered by ``ccw_vertices``."""
    while True:
        pts = [Point2(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(3)]
        ar = (pts[1].u - pts[0].u) * (pts[2].v - pts[0].v) - (pts[1].v - pts[0].v) * (pts[2].u - pts[0].u)
        if abs(ar) / 2.0 > min_area:
            return ccw_vertices(*pts)


def random_point2(rng: random.Random, lo=-15.0, hi=15.0) -> Point2:
    return Point2(rng.uniform(lo, hi), rng.uniform(lo, hi))


def polygon_area2(pts) -> float:
    n = len(pts)
    return 0.5 * sum(pts[i][0] * pts[(i + 1) % n][1] - pts[i][1] * pts[(i + 1) % n][0] for i in range(n))


# --- comparisons -------------------------------------------------------------


def points_match_unordered(got, want, tol=1e-9) -> bool:
    if len(got) != len(want):
        return False
    return any(
        all(max(abs(g[i] - w[i]) for i in range(len(g))) <= tol for g, w in zip(got, perm))
        for perm in itertools.permutations(want)
    )


def contours_match(got, want, tol=1e-9) -> bool:
    """Cyclic comparison, either orientation."""
    if len(got) != len(want):
        return False
    n = len(got)
    for candidate in (list(want), list(want)[::-1]):
        for shift in range(n):
            rotated = candidate[shift:] + candidate[:shift]
            if all(
                max(abs(g[i] - w[i]) for i in range(len(g))) <= tol
                for g, w in zip(got, rotated)
            ):
                return True
    return False


def result_matches_oracle(result_points, oracle_float_points, tol=1e-9) -> bool:
    got = [tuple(p) for p in result_points]
    want = [tuple(p) for p in oracle_float_points]
    if len(got) != len(want):
        return False
    if not got:
        return True
    if len(got) <= 2:
        return points_match_unordered(got, want, tol)
    return contours_match(got, want, tol)


def dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vcross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def vnorm(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def dist3(a, b) -> float:
    return vnorm(vsub(a, b))


def point_segment_distance(p, x, y) -> float:
    """Euclidean distance from a 3D point to the segment xy."""
    d = vsub(y, x)
    t = min(max(dot3(vsub(p, x), d) / dot3(d, d), 0.0), 1.0)
    return vnorm(vsub(p, (x[0] + t * d[0], x[1] + t * d[1], x[2] + t * d[2])))


def point_triangle_distance(p, t) -> float:
    """Euclidean distance from a 3D point to a triangle, face or boundary."""
    a, b, c = t
    n = vcross(vsub(b, a), vsub(c, a))
    sides = ((a, b), (b, c), (c, a))
    # p's foot on the plane is inside when it lies left of every side, seen along n
    if all(dot3(vcross(vsub(y, x), vsub(p, x)), n) >= 0.0 for x, y in sides):
        return abs(dot3(vsub(p, a), n)) / vnorm(n)
    return min(point_segment_distance(p, x, y) for x, y in sides)


# --- meshes ------------------------------------------------------------------


def height_field(heights, offset=(0.0, 0.0, 0.0)) -> list[Triangle3]:
    """Faces of a height field over a unit grid, two per cell.

    Neighbouring faces share edges and vertices; equal heights make them
    coplanar.  ``heights[i][j]`` is the height over grid point (i, j).
    """
    ox, oy, oz = offset

    def vertex(i, j):
        return Point3(i + ox, j + oy, heights[i][j] + oz)

    faces = []
    for i in range(len(heights) - 1):
        for j in range(len(heights[0]) - 1):
            a, b, c, d = vertex(i, j), vertex(i, j + 1), vertex(i + 1, j), vertex(i + 1, j + 1)
            faces += [Triangle3(a, c, d), Triangle3(a, d, b)]
    return faces


def off_text(faces) -> str:
    """ASCII OFF text of a triangle soup, with three vertices of its own per face."""
    lines = ["OFF", f"{3 * len(faces)} {len(faces)} 0"]
    lines += [" ".join(repr(float(c)) for c in v) for face in faces for v in face]
    lines += [f"3 {3 * k} {3 * k + 1} {3 * k + 2}" for k in range(len(faces))]
    return "\n".join(lines) + "\n"
