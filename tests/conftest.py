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
from enum import Enum
from typing import NamedTuple

from tritri.core import DEFAULT_TOLERANCE, Plane, Point3, Tolerance, Triangle3, _scaled
from tritri.clip2d import Point2, ccw_vertices
from tritri.errors import DegenerateTriangle

_new = tuple.__new__  # builds a named tuple without its Python-level __new__

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


def scaled(triangles, k: int) -> tuple[Triangle3, ...]:
    """The triangles with every coordinate times 2**k, exact while it stays finite."""
    s = 2.0 ** k
    return tuple(Triangle3(*(Point3(*(c * s for c in v)) for v in t)) for t in triangles)


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


# --- the plane relation and frame maps intersect computes inline; see test_kernel_reference


class PlaneRelation(Enum):
    COINCIDENT = "coincident"
    PARALLEL = "parallel"
    INTERSECTING = "intersecting"


def signed_distance(p, pl: Plane) -> float:
    """Metric signed distance of a point to a plane (normal side positive)."""
    o = pl.o
    return pl.q * (p[0] - o[0]) + pl.w * (p[1] - o[1]) + pl.u * (p[2] - o[2])


def classify_planes(p1: Plane, p2: Plane, tol: Tolerance = DEFAULT_TOLERANCE) -> PlaneRelation:
    """Coincident, parallel or intersecting.

    Normals are unit length, so the cross-product norm is the sine of the
    dihedral angle.  Coincidence is tested by the distance of p2's point
    from p1, as the oracle tests it, and tolerates opposite normal
    orientation.
    """
    q1, w1, u1, _ = p1
    q2, w2, u2, o2 = p2
    cq, cw, cu = w1 * u2 - u1 * w2, u1 * q2 - q1 * u2, q1 * w2 - w1 * q2
    if math.sqrt(cq * cq + cw * cw + cu * cu) > tol.eps_dist:
        return PlaneRelation.INTERSECTING
    if abs(signed_distance(o2, p1)) <= tol.eps_dist:
        return PlaneRelation.COINCIDENT
    return PlaneRelation.PARALLEL


class PlaneFrame(NamedTuple):
    """Right-handed orthonormal frame (u, v, n) of a plane, u x v = n, anchored at ``origin``."""

    origin: tuple
    u_axis: tuple
    v_axis: tuple
    n_axis: tuple


def kept_frame(p) -> PlaneFrame:
    """The frame a PreparedTriangle ``p`` keeps: origin ``p.tri[0]``, its axes, ``p.normal``."""
    axes, _ = p.frame_window()
    return PlaneFrame(p.tri[0], *axes, p.normal)


def build_frame(pl: Plane) -> PlaneFrame:
    """Right-handed orthonormal frame (u, v, n) with u x v = n, anchored at ``pl.o``.

    The u axis is seeded from the global axis least aligned with the
    normal and Gram-Schmidt projected into the plane.
    """
    nx, ny, nz, o = pl
    # the first axis of least |component|; d = seed . n, whose sign of zero
    # never reaches u, since a zero d makes u the seed itself
    if abs(nx) <= abs(ny) and abs(nx) <= abs(nz):
        sx, sy, sz, d = 1.0, 0.0, 0.0, nx
    elif abs(ny) <= abs(nz):
        sx, sy, sz, d = 0.0, 1.0, 0.0, ny
    else:
        sx, sy, sz, d = 0.0, 0.0, 1.0, nz
    ux, uy, uz = sx - d * nx, sy - d * ny, sz - d * nz
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / un, uy / un, uz / un
    v = (ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux)
    return _new(PlaneFrame, (o, (ux, uy, uz), v, (nx, ny, nz)))


def to_plane(f: PlaneFrame, p) -> Point2:
    """Frame coordinates of the foot of a 3D point on the frame's plane."""
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = f
    x, y, z = p[0] - ox, p[1] - oy, p[2] - oz
    return _new(Point2, (x * ux + y * uy + z * uz, x * vx + y * vy + z * vz))


def from_plane(f: PlaneFrame, q) -> Point3:
    """Lift frame coordinates back to 3D."""
    u, v = q
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz), _ = f
    return _new(Point3, (ox + u * ux + v * vx, oy + u * uy + v * vy, oz + u * uz + v * vz))


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


# --- the window build and the edge loop as one helper per step; see test_inline_bits


def _reference_clockwise(au, av, bu, bv, cu, cv, eps_area: float) -> bool:
    area2 = (bu - au) * (cv - av) - (bv - av) * (cu - au)
    if abs(area2) < 2.0 * eps_area:
        raise DegenerateTriangle("2D triangle area below tolerance")
    return area2 < 0.0


def _reference_side_line(pu, pv, qu, qv, ou, ov):
    """The line through p and q, normalized, positive on the side of o."""
    l1 = pv - qv
    l2 = qu - pu
    l3 = pu * qv - pv * qu
    ln = math.hypot(l1, l2)
    if l1 * ou + l2 * ov + l3 < 0.0:
        ln = -ln
    return (l1 / ln, l2 / ln, l3 / ln)


def _reference_side_lines(au, av, bu, bv, cu, cv, eps_area: float):
    if _reference_clockwise(au, av, bu, bv, cu, cv, eps_area):
        bu, bv, cu, cv = cu, cv, bu, bv
    return (_reference_side_line(au, av, bu, bv, cu, cv), _reference_side_line(au, av, cu, cv, bu, bv),
            _reference_side_line(bu, bv, cu, cv, au, av))


def reference_window_lines(a, b, c, tol: Tolerance):
    """``window_lines`` as the orientation test, then one helper call per side line.

    Where an offset is not finite, the lines are built again from the
    corners scaled by 2**-k (``core._scaled``) and their offsets scaled back.
    """
    (au, av), (bu, bv), (cu, cv) = a, b, c
    lines = _reference_side_lines(au, av, bu, bv, cu, cv, tol.eps_area)
    if all(math.isfinite(line[2]) for line in lines):
        return lines
    k, ([(au, av), (bu, bv), (cu, cv)],), small = _scaled(((a, b, c),), tol)
    lines = _reference_side_lines(au, av, bu, bv, cu, cv, small.eps_area)
    s = 2.0 ** k
    return tuple([(l1, l2, l3 * s) for l1, l2, l3 in lines])


def _reference_vertex_code(d: float, eps: float) -> int:
    return 0 if -eps <= d <= eps else (1 if d > 0.0 else -1)


def reference_edge_points(tri, pl, tol: Tolerance = DEFAULT_TOLERANCE):
    """``project_triangle_edges`` as one code helper per vertex and a loop over all three edges."""
    a, b, c = tri
    q, w, u, (ox, oy, oz) = pl
    eps = tol.eps_dist
    da = q * (a[0] - ox) + w * (a[1] - oy) + u * (a[2] - oz)
    db = q * (b[0] - ox) + w * (b[1] - oy) + u * (b[2] - oz)
    dc = q * (c[0] - ox) + w * (c[1] - oy) + u * (c[2] - oz)
    sa, sb, sc = (_reference_vertex_code(da, eps), _reference_vertex_code(db, eps),
                  _reference_vertex_code(dc, eps))
    if not (sa or sb or sc):
        return None
    points = []
    for p1, d1, s1, p2, s2 in ((a, da, sa, b, sb), (b, db, sb, c, sc), (c, dc, sc, a, sa)):
        if not s1:
            pt = tuple(p1)
        elif s1 == -s2:
            m, n, o = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
            denom = q * m + w * n + u * o
            if abs(denom) <= eps:
                continue
            t = -d1 / denom
            pt = (p1[0] + t * m, p1[1] + t * n, p1[2] + t * o)
        else:
            continue
        if points:
            x, y, z = pt[0] - points[0][0], pt[1] - points[0][1], pt[2] - points[0][2]
            if math.sqrt(x * x + y * y + z * z) <= eps:
                continue
        points.append(pt)
    return points


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
