"""Batch command-line driver.

Two modes: ``tritri pair`` reads triangle pairs (18 numbers per line) and
emits one JSON record per pair; ``tritri mesh`` reads two OFF triangle
soups, gives each face a grown bounding box, sends the cross pairs whose
boxes overlap to the kernel, and emits records for contacting pairs.  Those
candidates come from one sweep over a list of boxes sorted by low x; for
two meshes, the boxes of both that meet the other mesh's overall box share
that list.  A face is prepared (``intersect.prepare``) on its first
candidate pair, so a face with none is never prepared.

Records go to --output (stdout by default), one JSON object per line; a
summary JSON object goes to stderr.  Output is deterministic: the record
stream is byte-identical across runs.  Per-record timing (the ``us``
field) is therefore opt-in via --timing.  Besides the counts, the summary
gives the time spent parsing (``parse_us``), computing (``elapsed_us``),
building the mesh boxes and choosing the pairs for the kernel, a part of
computing (``candidates_us``, 0 in pair mode), writing records
(``emit_us``) and in the whole run (``total_us``).  The records and the
summary are built as text, byte for byte what ``json.dumps`` writes, so a
run does not import ``json``.

``main`` pauses the cyclic garbage collector (``fileio.collector_paused``):
the batch makes only acyclic objects, which reference counting frees, so
the collector's passes over the growing heap would find nothing.

The command line's grammar is ``argparse``'s: a mode, then its long
options, each ``--name value`` or ``--name=value`` or shortened to a unique
prefix, and in mesh mode the two meshes (``-`` for stdin).  Each long
option is stated once, as a row of ``_OPTIONS``, and ``_argparse`` builds
the parser from the rows.  A plain command line, such as each one
``bench/run.py`` runs, is read by ``_parse_args`` from the same rows, to
the values ``argparse`` would give it, without importing ``argparse``,
whose import and the ``gettext`` and ``locale`` it loads cost each run
about as much as the mesh computation.

Exit codes: 0 success, 1 I/O or parse failure, 2 every pair skipped or a
usage error (such as ``--jobs 2`` or ``--eps 0``).

The ``tritri`` command and ``python -m tritri`` run ``entry_point``, not
``main``: ``main`` flushes the records itself, so a failed write (stdout a
closed pipe) is its ``error:`` line and exit 1.  Once ``main`` returns (and
its ``with`` block has closed ``--output``), ``entry_point`` flushes stderr
and ends the process by ``os._exit``, skipping interpreter finalization
and ``atexit`` handlers, which a run spends milliseconds on and needs
nothing from.  The exit codes are the same.  In-process callers of
``main()`` are unaffected: it returns its code and never reaches
``os._exit``.
"""

import contextlib
import math
import os
import sys
import time
from bisect import bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, NoReturn, Sequence

from .core import DEFAULT_TOLERANCE, Tolerance, Triangle3, plane_from_triangle
from .errors import DegenerateTriangle, EmptyMesh, GeometryError, ParseError
from .fileio import PairRecord, collector_paused, read_off, read_pairs
from .intersect import PreparedTriangle, _margin, intersect, prepare

CONTACT_CASES = frozenset({"touch_point", "crossing_segment", "coplanar_contour"})


class ResultRecord(NamedTuple):
    id: object  # int for pair mode, (i, j) for mesh mode
    case: str | None  # None marks a skipped record (degenerate or unplaceable pair)
    points: tuple
    us: int | None = None
    error: str | None = None  # the GeometryError type that skipped the record


def _evaluate(rid, t1, t2, tol: Tolerance, timing: bool) -> ResultRecord:
    start = time.perf_counter() if timing else 0.0
    try:
        label, result = intersect(t1, t2, tol)
    except GeometryError as exc:
        # degenerate input, or a pair the kernel cannot place: skip it, not the run
        return ResultRecord(rid, None, (), error=type(exc).__name__)
    us = round((time.perf_counter() - start) * 1e6) if timing else None
    # past the named tuple's Python-level __new__ and the enum's value property
    return tuple.__new__(ResultRecord, (rid, label._value_, result.points, us, None))


def _summarize(results: Sequence[ResultRecord], emitted: int, elapsed: float,
               pairs: int | None = None, degenerate: int = 0, candidates: float = 0.0) -> dict:
    """Counts over all ``pairs`` candidates (default: one per result), and the times.

    ``elapsed`` is the whole computation and ``candidates`` the part of it
    spent choosing the pairs for the kernel, in seconds.

    ``degenerate`` counts candidates skipped before the kernel; they and the
    results without a case are ``skipped``, and ``skipped_by`` splits them
    by error type.  Candidates that are neither skipped nor among the
    results were ``culled`` by the broad phase, so
    ``pairs == sum(cases) + skipped + culled``.
    """
    if pairs is None:
        pairs = len(results)
    cases: dict[str, int] = {}
    skipped_by = {"DegenerateTriangle": degenerate} if degenerate else {}
    for rec in results:
        if rec.case is None:
            skipped_by[rec.error] = skipped_by.get(rec.error, 0) + 1
        else:
            cases[rec.case] = cases.get(rec.case, 0) + 1
    return {
        "pairs": pairs,
        "emitted": emitted,
        "skipped": sum(skipped_by.values()),
        "skipped_by": dict(sorted(skipped_by.items())),
        "culled": pairs - degenerate - len(results),
        "cases": dict(sorted(cases.items())),
        "elapsed_us": round(elapsed * 1e6),
        "candidates_us": round(candidates * 1e6),
        "pairs_per_s": round(pairs / elapsed) if elapsed > 0 else None,
    }


def run_pairs(records: Iterable[PairRecord], tol: Tolerance,
              timing: bool = False) -> tuple[list[ResultRecord], dict]:
    """Intersect every pair record; results keep input order."""
    start = time.perf_counter()
    results = [_evaluate(rid, t1, t2, tol, timing) for rid, t1, t2 in records]
    summary = _summarize(results, emitted=sum(r.case is not None for r in results),
                         elapsed=time.perf_counter() - start)
    return results, summary


def _face_boxes(faces: Sequence[Triangle3], tol: Tolerance) -> list[tuple | None]:
    """Per face, its bounding box grown by ``contact_margin``; None for a degenerate face.

    No face is prepared here.  Each is checked by ``plane_from_triangle``'s
    own area gate, on the same expressions: only a face whose norm is not
    finite goes to ``plane_from_triangle`` itself, which raises
    NonFiniteInput or takes the overflowed norm again before its gate.  The
    gate comes before the margin, which divides by the inradius.  The margin
    and the box come from the face's nine coordinates, unpacked once.
    """
    eps, eps_area = tol.eps_dist, tol.eps_area
    boxes: list[tuple | None] = []
    for face in faces:
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = face
        ex, ey, ez = bx - ax, by - ay, bz - az
        fx, fy, fz = cx - ax, cy - ay, cz - az
        nx, ny, nz = ey * fz - ez * fy, ez * fx - ex * fz, ex * fy - ey * fx
        nn = math.sqrt(nx * nx + ny * ny + nz * nz)
        if not math.isfinite(nn):
            try:
                plane_from_triangle(face, tol)  # NonFiniteInput, or the overflowed norm gated
            except DegenerateTriangle:
                nn = 0.0
        if 0.5 * nn < eps_area:
            boxes.append(None)
            continue
        m = _margin(ax, ay, az, bx, by, bz, cx, cy, cz, nn, eps)
        # each bound by comparisons, which cost less than a three-argument min or max call
        x0 = (ax if ax <= cx else cx) if ax <= bx else (bx if bx <= cx else cx)
        x1 = (ax if ax >= cx else cx) if ax >= bx else (bx if bx >= cx else cx)
        y0 = (ay if ay <= cy else cy) if ay <= by else (by if by <= cy else cy)
        y1 = (ay if ay >= cy else cy) if ay >= by else (by if by >= cy else cy)
        z0 = (az if az <= cz else cz) if az <= bz else (bz if bz <= cz else cz)
        z1 = (az if az >= cz else cz) if az >= bz else (bz if bz >= cz else cz)
        boxes.append((x0 - m, x1 + m, y0 - m, y1 + m, z0 - m, z1 + m))
    return boxes


def _meeting(entries: list[tuple[int, tuple]], others: list[tuple[int, tuple]]
             ) -> list[tuple[int, tuple]]:
    """The (index, box) entries whose box meets the hull of the ``others``' boxes."""
    x0, x1, y0, y1, z0, z1 = zip(*[box for _, box in others])
    hx0, hx1, hy0, hy1, hz0, hz1 = min(x0), max(x1), min(y0), max(y1), min(z0), max(z1)
    return [e for e in entries if e[1][0] <= hx1 and hx0 <= e[1][1] and e[1][2] <= hy1
            and hy0 <= e[1][3] and e[1][4] <= hz1 and hz0 <= e[1][5]]


def _overlapping_pairs(boxes_a: Sequence[tuple | None], boxes_b: Sequence[tuple | None],
                       same_mesh: bool) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs whose boxes overlap as closed intervals; None boxes never do.

    For two meshes, a box that misses the other mesh's hull (the box
    holding all its boxes) has no partner there, so it is dropped first
    (Ericson 2004, ch. 7), and mesh B's boxes are numbered on from mesh
    A's, j as ``len(boxes_a) + j``.  The boxes are sorted into one list by
    low x, and each is checked on y and z against the boxes after it whose
    low x lies in its x interval, found by bisection, so each pair is found
    once.  For two meshes, only the pairs with a box from each are kept.
    """
    n = len(boxes_a)
    entries = [(i, box) for i, box in enumerate(boxes_a) if box is not None]
    if not same_mesh:
        b = [(n + j, box) for j, box in enumerate(boxes_b) if box is not None]
        if not (entries and b):
            return []
        entries = _meeting(entries, b) + _meeting(b, entries)
    entries.sort(key=lambda e: e[1][0])
    low = [box[0] for _, box in entries]
    pairs = []
    for k, (i, (_, x1, y0, y1, z0, z1)) in enumerate(entries, start=1):
        for j, ob in entries[k:bisect_right(low, x1, k)]:
            if ob[2] <= y1 and y0 <= ob[3] and ob[4] <= z1 and z0 <= ob[5]:
                pairs.append((i, j) if i < j else (j, i))
    if not same_mesh:
        pairs = [(i, j - n) for i, j in pairs if i < n <= j]
    pairs.sort()
    return pairs


def run_meshes(faces_a: Sequence[Triangle3], faces_b: Sequence[Triangle3],
               tol: Tolerance, timing: bool = False,
               same_mesh: bool = False) -> tuple[list[ResultRecord], dict]:
    """Mesh test behind a box broad phase; only contacting pairs are emitted downstream.

    Only candidate pairs whose bounding boxes, grown by ``contact_margin``,
    overlap reach the kernel; the summary counts the others as ``culled``,
    and the time spent building the boxes and finding those pairs as
    ``candidates_us``.
    Pairs with a degenerate face count as ``skipped`` without a kernel call.
    A face is prepared on its first candidate pair, as the first triangle or
    the second, so a face with no candidate is never prepared, and its
    normal, frame axes and window (its side lines) are built at most once
    per face, not once per pair.  For a mesh against itself, diagonal pairs
    are excluded and symmetric pairs tested once (i < j).  The results are
    the kernel's records, in lexicographic (i, j) order.  Only the first
    triangle's frame and window are read, so a face's are released after
    its last pair as the first triangle, and at most one face holds them.
    """
    start = time.perf_counter()
    boxes_a = _face_boxes(faces_a, tol)
    boxes_b = boxes_a if same_mesh else _face_boxes(faces_b, tol)
    good_a = len(boxes_a) - boxes_a.count(None)
    if same_mesh:
        pairs = len(faces_a) * (len(faces_a) - 1) // 2
        good_pairs = good_a * (good_a - 1) // 2
    else:
        pairs = len(faces_a) * len(faces_b)
        good_pairs = good_a * (len(boxes_b) - boxes_b.count(None))
    candidates = _overlapping_pairs(boxes_a, boxes_b, same_mesh)
    candidates_s = time.perf_counter() - start
    # the faces prepared so far.  A face's group as the first triangle is its
    # last use (in a mesh against itself, its pairs as the second come first),
    # so it is stored only when prepared as the second
    prepared_a: list[PreparedTriangle | None] = [None] * len(faces_a)
    prepared_b = prepared_a if same_mesh else [None] * len(faces_b)
    results = []
    for i, group in groupby(candidates, key=itemgetter(0)):
        first = prepared_a[i] or prepare(faces_a[i], tol)
        for _, j in group:
            second = prepared_b[j]
            if second is None:
                second = prepared_b[j] = prepare(faces_b[j], tol)
            results.append(_evaluate((i, j), first, second, tol, timing))
        first.release()
    contacts = sum(r.case in CONTACT_CASES for r in results)
    summary = _summarize(results, emitted=contacts, elapsed=time.perf_counter() - start,
                         pairs=pairs, degenerate=pairs - good_pairs, candidates=candidates_s)
    return results, summary


def _read_mesh(path: str) -> list[tuple]:
    """``read_off`` of a path, '-' for stdin; its ParseError or EmptyMesh names the path."""
    try:
        return read_off(path)
    except (ParseError, EmptyMesh) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _record_json(rec: ResultRecord) -> str:
    """The record as compact JSON, byte for byte what ``json.dumps`` writes.

    The line is built directly: the ``repr`` of an int or a finite float is
    the text ``json.dumps`` writes for it.  Infinities and NaN, the only
    reprs here with an ``n``, are respelled as ``json.dumps`` spells them.
    """
    points = ",".join([f"[{x!r},{y!r},{z!r}]" for x, y, z in rec.points])
    if "n" in points:
        points = points.replace("inf", "Infinity").replace("nan", "NaN")
    rid = rec.id
    rid = f"[{rid[0]!r},{rid[1]!r}]" if isinstance(rid, tuple) else repr(rid)
    case = "null" if rec.case is None else f'"{rec.case}"'  # a label: an ASCII identifier
    us = "" if rec.us is None else f',"us":{rec.us!r}'
    return f'{{"id":{rid},"case":{case},"points":[{points}]{us}}}'


def _json(value) -> str:
    """The summary, or one of its values, as compact JSON: what ``json.dumps`` writes.

    Its values are ints, None and dicts of these under ASCII identifiers,
    which need no escapes, so ``json`` is not imported for one line.
    """
    if isinstance(value, dict):
        return "{" + ",".join([f'"{k}":{_json(v)}' for k, v in value.items()]) + "}"
    return "null" if value is None else repr(value)


def _emit(records: Iterable[ResultRecord], stream) -> None:
    stream.writelines(_record_json(rec) + "\n" for rec in records)


def _one_job(value: str) -> int:
    """``--jobs``' conversion: runs are serial, so only 1 (as ``int`` reads it) is kept."""
    if int(value) != 1:
        raise ValueError(value)
    return 1


def _eps(value: str) -> float:
    """``--eps``' conversion: a float that ``Tolerance`` takes as ``eps_dist``, else ValueError."""
    return Tolerance(eps_dist=float(value)).eps_dist


# One row per long option: its name, its value's name in the usage and help
# (None for a flag, which stores True), its default, the conversion of its
# value (a ValueError refuses the value), the modes that take it, and its
# help, where ``{}`` shows the default.  ``-h``/``--help`` is the parser's own.
_OPTIONS = (
    ("--input", "INPUT", "-", str, ("pair",),
     "pair file, one pair per line, '-' for stdin (default stdin)"),
    ("--eps", "EPS", DEFAULT_TOLERANCE.eps_dist, _eps, ("pair", "mesh"),
     "distance tolerance (default {:g})"),
    ("--jobs", "{1}", 1, _one_job, ("pair", "mesh"), "runs are serial; only 1 is accepted"),
    ("--output", "OUTPUT", "-", str, ("pair", "mesh"), "record stream (default stdout)"),
    ("--timing", None, False, None, ("pair", "mesh"),
     "add a per-record 'us' field (breaks byte-identical output)"),
)
# the modes with their help, and mesh mode's two positionals with theirs
_MODES = {"pair": "intersect triangle pairs from a pair file",
          "mesh": "contacting face pairs of two OFF meshes"}
_MESHES = dict.fromkeys(("mesh_a", "mesh_b"), "OFF mesh, '-' for stdin")


def _argparse(argv: Sequence[str]) -> dict:
    """``argparse``'s parse of ``argv``, by a parser built from the rows; its own exits."""
    import argparse

    def formatter(prog: str) -> argparse.HelpFormatter:
        return argparse.RawDescriptionHelpFormatter(prog, width=80)  # the epilog's lines kept

    parser = argparse.ArgumentParser(
        prog="tritri", description="triangle-triangle intersection batch driver",
        epilog="'tritri MODE --help' lists a mode's options.  A long option may be given as\n"
               "'--name value' or '--name=value', and shortened to a unique prefix.",
        formatter_class=formatter)
    subparsers = parser.add_subparsers(title="modes", dest="mode", required=True)
    for mode in _MODES:
        sub = subparsers.add_parser(mode, help=_MODES[mode], formatter_class=formatter)
        for name, text in _MESHES.items() if mode == "mesh" else ():
            sub.add_argument(name, help=text)
        for name, metavar, default, convert, modes, text in _OPTIONS:
            if mode in modes:
                kind = ({"action": "store_true"} if metavar is None
                        else {"metavar": metavar, "type": convert})
                sub.add_argument(name, default=default, help=text.format(default), **kind)
    return vars(parser.parse_args(argv))


def _parse_args(argv: Sequence[str]) -> dict:
    """The command line's values by name: ``mode``, each option's and each mesh's.

    A plain command line is read here, from the rows, with no ``argparse``
    import: the mode first, then exact option names, each value in
    ``--name=value`` or in the next token when that token is ``-`` or does
    not start with ``-``, flags without ``=``, values that convert, and in
    mesh mode exactly two meshes.  ``argparse`` would give such a line the
    same values.  Any other line goes whole to ``_argparse``, so that help,
    prefixes and usage errors (``SystemExit``) are ``argparse``'s own.
    """
    if not argv or argv[0] not in _MODES:
        return _argparse(argv)
    mode = argv[0]
    rows = {row[0]: row for row in _OPTIONS if mode in row[4]}
    args = {"mode": mode, **{name[2:]: row[2] for name, row in rows.items()}}
    meshes = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            meshes.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in rows or eq and rows[name][1] is None:
            return _argparse(argv)
        _, metavar, _, convert, _, _ = rows[name]
        if metavar is None:
            args[name[2:]] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                return _argparse(argv)
        try:
            args[name[2:]] = convert(value)
        except ValueError:
            return _argparse(argv)
    if len(meshes) != (len(_MESHES) if mode == "mesh" else 0):
        return _argparse(argv)
    args.update(zip(_MESHES, meshes))
    return args


@collector_paused()
def main(argv: Sequence[str] | None = None) -> int:
    start = time.perf_counter()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    tol = Tolerance(eps_dist=args["eps"])

    try:
        parse_start = time.perf_counter()
        if args["mode"] == "pair":
            records = read_pairs(args["input"])
        else:
            same = os.path.realpath(args["mesh_a"]) == os.path.realpath(args["mesh_b"])
            faces_a = _read_mesh(args["mesh_a"])
            faces_b = faces_a if same else _read_mesh(args["mesh_b"])
        parse_s = time.perf_counter() - parse_start
        # opened before the pairs are computed, so a bad path costs no work
        with (contextlib.nullcontext(sys.stdout) if args["output"] == "-"
              else open(args["output"], "w", encoding="utf-8")) as out:
            if args["mode"] == "pair":
                results, summary = run_pairs(records, tol, timing=args["timing"])
                emitted = (r for r in results if r.case is not None)
            else:
                results, summary = run_meshes(faces_a, faces_b, tol, timing=args["timing"],
                                              same_mesh=same)
                emitted = (r for r in results if r.case in CONTACT_CASES)
            emit_start = time.perf_counter()
            _emit(emitted, out)
            # here, so that a write that fails (a closed pipe) is reported as an error
            out.flush()
        emit_s = time.perf_counter() - emit_start
    except (ParseError, EmptyMesh, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary.update(parse_us=round(parse_s * 1e6), emit_us=round(emit_s * 1e6),
                   total_us=round((time.perf_counter() - start) * 1e6))
    print(_json(summary), file=sys.stderr)

    if summary["pairs"] and summary["skipped"] == summary["pairs"]:
        return 2
    return 0


def entry_point() -> NoReturn:
    """Run ``main`` as the whole process, then end it without finalization.

    The parser's ``SystemExit`` (``--help``, a usage error) and any uncaught
    exception leave the normal way.  ``main`` flushes the records it writes
    to stdout, so a write that fails there (say, stdout is a closed pipe)
    is its ``error:`` line and exit 1; the bytes it could not write go with
    the process.  Only stderr is flushed here.  A flush that raises leaves
    through ``sys.exit``, so the interpreter reports the failure just as it
    would after a plain ``sys.exit(main())``.
    """
    code = main()
    try:
        sys.stderr.flush()
    except Exception:  # any kind: the normal exit flushes again and reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
