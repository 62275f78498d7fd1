"""The window build and the edge loop, written out, equal their one-helper-per-step form bit for bit.

``window_lines`` builds the three side lines in one function, and
``project_triangle_edges`` codes the three vertices inline and answers
three equal codes at once.  ``conftest`` keeps both as references made
of helpers: the orientation test then one helper call per side line, and
one code helper per vertex with a loop over all three edges.  Every float
(``float.hex``, so -0.0 and 0.0 differ), every container type and every
error must agree.
"""

import math
import random

from tritri.clip2d import window_lines
from tritri.core import DEFAULT_TOLERANCE, Tolerance
from tritri.lineplane import project_triangle_edges

from conftest import _reference_side_lines, reference_edge_points, reference_window_lines

LOOSE = Tolerance(eps_dist=0.05, eps_param=0.05)


def _bits(x):
    """Floats as ``float.hex``, containers kept as their own type, None as None."""
    if x is None:
        return None
    if isinstance(x, (tuple, list)):
        return type(x)(map(_bits, x))
    return float.hex(x)


def _outcome(f, *args):
    try:
        return "ok", _bits(f(*args))
    except (ArithmeticError, ValueError) as exc:  # the error's type and message must agree too
        return type(exc).__name__, str(exc)


# --- window_lines --------------------------------------------------------------


def _signed_zero_corners(rng):
    """Corners whose coordinates are drawn from +-0.0 and a few small values."""
    pool = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(3)]


def _window_cases(rng):
    cases = []
    for _ in range(300):
        a, b, c = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
        cases += [(a, b, c), (a, c, b)]  # both orientations
    for _ in range(300):
        cases.append(_signed_zero_corners(rng))
    # at the area gate: a right triangle of legs 1 and h has area2 == h, the gate 2 eps_area
    gate = 2.0 * DEFAULT_TOLERANCE.eps_area
    for h in (gate, math.nextafter(gate, 0.0), math.nextafter(gate, 1.0), gate * (1 - 1e-9),
              gate * (1 + 1e-9), 0.5 * gate, 2.0 * gate):
        for corners in (((0.0, 0.0), (1.0, 0.0), (0.0, h)), ((0.0, 0.0), (0.0, h), (1.0, 0.0))):
            cases.append(corners)
            ox, oy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            cases.append(tuple((u + ox, v + oy) for u, v in corners))
    # past 2**511 an offset's products overflow: the scaled fallback
    for k in (500, 505, 511, 515, 530, 600, 900, 1000, 1015):
        s = 2.0 ** k
        for _ in range(20):
            a, b, c = [(rng.uniform(-10.0, 10.0) * s, rng.uniform(-10.0, 10.0) * s) for _ in range(3)]
            cases += [(a, b, c), (a, c, b)]
            # a corner at the origin: the two lines through it have offset 0, only the third overflows
            cases += [((0.0, 0.0), b, c), (a, (0.0, 0.0), c), (a, b, (-0.0, 0.0))]
    # corners that are not finite: the fallback scales by 2**0 and runs once
    for bad in (math.inf, -math.inf, math.nan):
        cases += [((0.0, 0.0), (bad, 0.0), (0.0, 4.0)), ((0.0, 0.0), (4.0, 0.0), (1.0, bad)),
                  ((bad, 1.0), (4.0, 0.0), (0.0, 4.0))]
    return cases


def test_window_lines_equal_the_side_line_helpers_bit_for_bit():
    cases = _window_cases(random.Random(20_240))
    seen = {"ok": 0, "DegenerateTriangle": 0, "negative zero": 0, "fallback": 0}
    for corners in cases:
        for tol in (DEFAULT_TOLERANCE, LOOSE):
            want = _outcome(reference_window_lines, *corners, tol)
            assert _outcome(window_lines, *corners, tol) == want, (corners, tol)
            seen[want[0]] = seen.get(want[0], 0) + 1
            if want[0] == "ok":
                seen["negative zero"] += any(h.startswith("-0x0.0") for line in want[1] for h in line)
        try:  # the fallback runs where an unscaled offset is not finite
            raw = _reference_side_lines(*corners[0], *corners[1], *corners[2], 0.0)
            seen["fallback"] += not all(math.isfinite(line[2]) for line in raw)
        except ZeroDivisionError:
            pass
    # every branch is taken: both gate outcomes, signed zeros in the lines, the fallback
    assert min(seen.values()) > 0, seen


# --- project_triangle_edges ---------------------------------------------------------


def _unit(rng):
    while True:
        x, y, z = (rng.uniform(-1.0, 1.0) for _ in range(3))
        n = math.sqrt(x * x + y * y + z * z)
        if n > 0.1:
            return x / n, y / n, z / n


def _offset_triangle(rng, pl, dists):
    """A triangle whose vertices lie ``dists`` from the plane, along its normal."""
    q, w, u, (ox, oy, oz) = pl
    tri = []
    for d in dists:
        x, y, z = (rng.uniform(-5.0, 5.0) for _ in range(3))
        along = q * x + w * y + u * z - d  # step back to the plane, then out by d
        tri.append((ox + x - along * q, oy + y - along * w, oz + z - along * u))
    return tuple(tri)


def _edge_cases(rng):
    cases = []
    for _ in range(400):
        pl = (*_unit(rng), tuple(rng.uniform(-5.0, 5.0) for _ in range(3)))
        cases.append((tuple(tuple(rng.uniform(-5.0, 5.0) for _ in range(3)) for _ in range(3)), pl))
        for dists in ([1.0, 2.0, 0.5], [-1.0, -0.25, -3.0], [0.0, 0.0, 0.0], [1e-11, -1e-11, 0.0],
                      [1.0, -1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, -2.0], [1.0, -2.0, 3.0]):
            cases.append((_offset_triangle(rng, pl, [d * rng.uniform(0.5, 2.0) for d in dists]), pl))
    # an axis normal and vertices with signed zeros, and distances of exactly +-eps_dist
    pool = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-9, -1e-9, 0.05, -0.05]
    for _ in range(300):
        tri = tuple(tuple(rng.choice(pool) for _ in range(3)) for _ in range(3))
        cases.append((tri, (rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]), rng.choice([1.0, -1.0]),
                            (rng.choice(pool), -0.0, 0.0))))
    return cases


def test_project_triangle_edges_equals_the_vertex_code_loop_bit_for_bit():
    seen = {"in the plane": 0, "all above": 0, "all below": 0, "one point": 0, "two points": 0}
    for tri, pl in _edge_cases(random.Random(4_096)):
        for tol in (DEFAULT_TOLERANCE, LOOSE):
            want = _outcome(reference_edge_points, tri, pl, tol)
            assert _outcome(project_triangle_edges, tri, pl, tol) == want, (tri, pl, tol)
            q, w, u, (ox, oy, oz) = pl
            dists = [q * (x - ox) + w * (y - oy) + u * (z - oz) for x, y, z in tri]
            points = want[1]
            if points is None:
                seen["in the plane"] += 1
            elif min(dists) > tol.eps_dist:
                seen["all above"] += points == []
            elif max(dists) < -tol.eps_dist:
                seen["all below"] += points == []
            elif points:
                seen[("one point", "two points")[len(points) - 1]] += 1
    # every way out is taken: codes all 0, all +, all -, and one or two points
    assert min(seen.values()) > 0, seen
