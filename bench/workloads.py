"""Seeded workload generators for the benchmark.

The benchmark owns these generators instead of importing the test suite's,
so a change to the tests cannot move a workload between two commits.  Every
generator is a pure function of its ``random.Random``; the same seed gives
byte-identical input files.

Each workload names the CLI mode it drives, and records why it is in the
benchmark: which layers it stresses and which optimisation it is meant to
show or to leave unchanged.
"""

import math
from dataclasses import dataclass

# --- pair_mix: the acceptance mix on the +/-10 dyadic grid --------------------

GRID = 64  # coordinates are multiples of 1/64, so affine combinations are exact
SPAN = 640  # +/- 10 in grid steps
PAIR_MIX_PAIRS = 20_000


def _grid_point(rng):
    return tuple(rng.randint(-SPAN, SPAN) / GRID for _ in range(3))


def _normal(t):
    a, b, c = t
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _area(t) -> float:
    return 0.5 * math.sqrt(sum(x * x for x in _normal(t)))


def _grid_triangle(rng):
    while True:
        t = (_grid_point(rng), _grid_point(rng), _grid_point(rng))
        if _area(t) > 0.5:
            return t


def _generic(rng):
    return _grid_triangle(rng), _grid_triangle(rng)


def _coplanar(rng):
    # the second triangle is an exact grid combination inside t1's plane
    t1 = _grid_triangle(rng)
    a, b, c = t1
    while True:
        verts = []
        for _ in range(3):
            al = rng.randint(-2 * GRID, 2 * GRID) / GRID
            be = rng.randint(-2 * GRID, 2 * GRID) / GRID
            verts.append(tuple(a[i] + al * (b[i] - a[i]) + be * (c[i] - a[i]) for i in range(3)))
        t2 = tuple(verts)
        if _area(t2) > 0.5:
            return t1, t2


def _shared_feature(rng):
    # one shared vertex, or a whole shared edge half the time
    t1 = _grid_triangle(rng)
    while True:
        i = rng.randrange(3)
        if rng.random() < 0.5:
            t2 = (t1[i], _grid_point(rng), _grid_point(rng))
        else:
            t2 = (t1[i], t1[(i + 1) % 3], _grid_point(rng))
        if _area(t2) > 0.5:
            return t1, t2


def _crossing(rng):
    # t2 straddles t1's plane by more than 1e-3 on both sides
    while True:
        t1, t2 = _grid_triangle(rng), _grid_triangle(rng)
        n = _normal(t1)
        nl = math.sqrt(sum(x * x for x in n))
        a = t1[0]
        sd = [sum(n[i] * (v[i] - a[i]) for i in range(3)) / nl for v in t2]
        if min(sd) < -1e-3 and max(sd) > 1e-3:
            return t1, t2


def pair_mix(rng, count: int = PAIR_MIX_PAIRS):
    """40% generic, 30% coplanar, 15% shared-feature, 15% crossing pairs."""
    pairs = []
    for k in range(count):
        u = k % 20
        if u < 8:
            pairs.append(_generic(rng))
        elif u < 14:
            pairs.append(_coplanar(rng))
        elif u < 17:
            pairs.append(_shared_feature(rng))
        else:
            pairs.append(_crossing(rng))
    return pairs


# --- meshes ------------------------------------------------------------------

SPHERE_RES = 14  # 14 slices x 14 stacks -> 364 faces
TERRACE_RES = 14  # 14 x 14 grid cells -> 392 faces


def uv_sphere(center, radius: float, res: int = SPHERE_RES):
    """Closed UV sphere: pole fans plus quads split along one diagonal."""
    verts = [(center[0], center[1], center[2] + radius)]
    for s in range(1, res):
        theta = math.pi * s / res
        for k in range(res):
            phi = 2.0 * math.pi * k / res
            verts.append((center[0] + radius * math.sin(theta) * math.cos(phi),
                          center[1] + radius * math.sin(theta) * math.sin(phi),
                          center[2] + radius * math.cos(theta)))
    verts.append((center[0], center[1], center[2] - radius))
    south = len(verts) - 1

    def ring(s, k):
        return 1 + (s - 1) * res + k % res

    faces = [(0, ring(1, k), ring(1, k + 1)) for k in range(res)]
    for s in range(1, res - 1):
        for k in range(res):
            a, b = ring(s, k), ring(s, k + 1)
            c, d = ring(s + 1, k), ring(s + 1, k + 1)
            faces += [(a, c, d), (a, d, b)]
    faces += [(south, ring(res - 1, k + 1), ring(res - 1, k)) for k in range(res)]
    return verts, faces


def sphere_pair(rng, res: int = SPHERE_RES):
    """Two unit spheres, the second a translated copy, overlapping in a lens.

    The copy keeps the orientation, so every face has parallel partners in
    the other sphere (its own copy, its quad twin and the antipodal faces).
    """
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    gap = 2.0 - rng.uniform(0.25, 0.35)  # centre distance: a lens of about 60 contacts
    offset = (gap * math.sin(theta) * math.cos(phi),
              gap * math.sin(theta) * math.sin(phi),
              gap * math.cos(theta))
    return uv_sphere((0.0, 0.0, 0.0), 1.0, res), uv_sphere(offset, 1.0, res)


def terraced_field(rng, res: int = TERRACE_RES):
    """Height field on a res x res grid with heights snapped to terraces.

    The snapping leaves flat plateaus, so faces of one terrace are coplanar
    and neighbouring faces share vertices and edges at many angles.
    """
    # fixed amplitudes and wave lengths, seeded directions and phases: every seed
    # gives a field of the same roughness, so the work per pair varies little
    waves = []
    for amp, k in ((1.0, 0.35), (0.6, 0.55), (0.4, 0.8)):
        direction, phase = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        waves.append((amp, k * math.cos(direction), k * math.sin(direction), phase))
    step = 0.3
    spacing = 1.0 / 3.0
    verts = []
    for i in range(res + 1):
        for j in range(res + 1):
            x, y = i * spacing, j * spacing
            h = sum(a * math.sin(kx * i + ky * j + ph) for a, kx, ky, ph in waves)
            verts.append((x, y, step * round(h / step)))
    faces = []
    for i in range(res):
        for j in range(res):
            a = i * (res + 1) + j
            b, c, d = a + 1, a + res + 1, a + res + 2
            faces += [(a, c, d), (a, d, b)]
    return verts, faces


# --- files -------------------------------------------------------------------


def pair_lines(pairs) -> str:
    return "".join(" ".join(repr(x) for tri in pair for v in tri for x in v) + "\n"
                   for pair in pairs)


def off_text(mesh) -> str:
    verts, faces = mesh
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(repr(x) for x in v) for v in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def mesh_triangles(mesh):
    verts, faces = mesh
    return [tuple(verts[k] for k in face) for face in faces]


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload, and the candidates they imply."""

    mode: str  # "pair" or "mesh"
    files: dict  # file name -> text
    cli_args: tuple  # CLI arguments, file names relative to the work directory
    tris_a: list  # pair mode: first triangles; mesh mode: faces of mesh A
    tris_b: list  # pair mode: second triangles; mesh mode: faces of mesh B
    same_mesh: bool = False

    @property
    def candidates(self) -> int:
        if self.mode == "pair":
            return len(self.tris_a)
        if self.same_mesh:
            return len(self.tris_a) * (len(self.tris_a) - 1) // 2
        return len(self.tris_a) * len(self.tris_b)

    def pair(self, key):
        """The triangles of one candidate: an int id, or an (i, j) mesh id."""
        if self.mode == "pair":
            return self.tris_a[key], self.tris_b[key]
        i, j = key
        return self.tris_a[i], self.tris_b[j]

    def candidate(self, k):
        """Id of the k-th candidate in CLI order (lexicographic for meshes)."""
        if self.mode == "pair":
            return k
        if not self.same_mesh:
            return divmod(k, len(self.tris_b))
        n = len(self.tris_a)
        i = 0
        while k >= n - 1 - i:
            k -= n - 1 - i
            i += 1
        return i, i + 1 + k


def _pair_inputs(pairs):
    return Inputs("pair", {"pairs.txt": pair_lines(pairs)}, ("pair", "--input", "pairs.txt"),
                  [p[0] for p in pairs], [p[1] for p in pairs])


def _mesh_inputs(mesh_a, mesh_b=None):
    if mesh_b is None:
        tris = mesh_triangles(mesh_a)
        return Inputs("mesh", {"a.off": off_text(mesh_a)}, ("mesh", "a.off", "a.off"),
                      tris, tris, same_mesh=True)
    return Inputs("mesh", {"a.off": off_text(mesh_a), "b.off": off_text(mesh_b)},
                  ("mesh", "a.off", "b.off"), mesh_triangles(mesh_a), mesh_triangles(mesh_b))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (rng, small) -> Inputs; small=True gives a tiny input for smoke tests


WORKLOADS = {
    w.name: w for w in (
        # About 20k pairs, about 3 s of CLI.  A cheaper coplanar clip or segment clip
        # shows here; prepared triangles and a broad phase must show no change.
        Workload(
            "pair_mix",
            "every pair is requested explicitly, so no broad phase helps; parse and emit "
            "carry real weight and 30% of pairs take the coplanar walk",
            lambda rng, small: _pair_inputs(pair_mix(rng, 40 if small else PAIR_MIX_PAIRS)),
        ),
        # 132,496 candidates, about 60 contacts and 1,400 parallel pairs.  Prepared
        # triangles, a plane-sign early reject and a broad phase show here first.
        Workload(
            "mesh_spheres",
            "two 364-face spheres meeting in a small lens: nearly every candidate is a "
            "crossing-planes reject, so candidate generation and early reject dominate",
            lambda rng, small: _mesh_inputs(*sphere_pair(rng, 4 if small else SPHERE_RES)),
        ),
        # 76,636 candidates (i < j), about 1,500 adjacency contacts and 1,500-2,200
        # coplanar terrace pairs.  A broad phase keeps a larger share of pairs here
        # than on the spheres; emission and the shared-vertex paths carry the rest.
        # Some faces that share only a vertex come back as a crossing_segment about
        # 1e-9 long where the oracle says touch_point, so failed_share is not 0.
        Workload(
            "mesh_self",
            "a terraced height field against itself: shared-vertex and shared-edge "
            "contacts, flat coplanar neighbours and record emission carry the work",
            lambda rng, small: _mesh_inputs(terraced_field(rng, 4 if small else TERRACE_RES)),
        ),
    )
}
