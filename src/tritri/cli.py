"""Batch command-line driver.

Two modes: ``tritri pair`` reads triangle pairs (18 numbers per line) and
emits one JSON record per pair; ``tritri mesh`` reads two OFF triangle
soups, prepares each face once (``intersect.prepare``), sends the cross
pairs whose grown bounding boxes overlap to the kernel, and emits records
for contacting pairs.  Those candidates come from one sweep over a list of
boxes sorted by low x; for two meshes, the boxes of both that meet the
other mesh's overall box share that list.

Records go to --output (stdout by default), one JSON object per line; a
summary JSON object goes to stderr.  Output is deterministic: the record
stream is byte-identical across runs.  Per-record timing (the ``us``
field) is therefore opt-in via --timing.  Besides the counts, the summary
gives the time spent parsing (``parse_us``), computing (``elapsed_us``),
choosing the mesh pairs for the kernel, a part of computing
(``candidates_us``, 0 in pair mode), writing records (``emit_us``) and in
the whole run (``total_us``).

``main`` pauses the cyclic garbage collector (``fileio.collector_paused``):
the batch makes only acyclic objects, which reference counting frees, so
the collector's passes over the growing heap would find nothing.

Exit codes: 0 success, 1 I/O or parse failure, 2 every pair skipped or a
usage error (such as ``--jobs 2``).

The ``tritri`` command and ``python -m tritri`` run ``entry_point``, not
``main``: ``main`` flushes the records itself, so a failed write (stdout a
closed pipe) is its ``error:`` line and exit 1.  Once ``main`` returns (and
its ``with`` block has closed ``--output``), ``entry_point`` flushes stderr
and ends the process by ``os._exit``, skipping interpreter finalization and ``atexit`` handlers,
which a run spends milliseconds on and needs nothing from.  The exit codes
are the same.  In-process callers of ``main()`` are unaffected: it returns
its code and never reaches ``os._exit``.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from bisect import bisect_right
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, NamedTuple, NoReturn, Sequence

from .core import DEFAULT_TOLERANCE, Tolerance, Triangle3
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


def _prepare_faces(faces: Sequence[Triangle3], tol: Tolerance
                   ) -> tuple[list[PreparedTriangle | None], list[tuple | None]]:
    """Per face, the prepared triangle and its bounding box grown by ``contact_margin``.

    Both are None for a degenerate face.  One pass per face: ``prepare``
    checks it and builds its plane, and the margin and the box come from
    its nine coordinates, unpacked once.
    """
    eps = tol.eps_dist
    prepared: list[PreparedTriangle | None] = []
    boxes: list[tuple | None] = []
    for face in faces:
        try:
            pt = prepare(face, tol)
        except DegenerateTriangle:
            prepared.append(None)
            boxes.append(None)
            continue
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pt.tri
        m = _margin(ax, ay, az, bx, by, bz, cx, cy, cz, eps)
        prepared.append(pt)
        boxes.append((min(ax, bx, cx) - m, max(ax, bx, cx) + m, min(ay, by, cy) - m,
                      max(ay, by, cy) + m, min(az, bz, cz) - m, max(az, bz, cz) + m))
    return prepared, boxes


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
    and the time spent preparing the faces and finding those pairs as
    ``candidates_us``.
    Pairs with a degenerate face count as ``skipped`` without a kernel call.
    Each face is prepared once, so its plane, frame and window (its side
    lines) are built at most once per face, not once per pair.  For a mesh against
    itself, diagonal pairs are excluded and symmetric pairs tested once
    (i < j).  The results are the kernel's records, in lexicographic (i, j)
    order.  Only the first triangle's frame and window are read, so a face's
    are released after its last pair as the first triangle, and at most one
    face holds them.
    """
    start = time.perf_counter()
    prepared_a, boxes_a = _prepare_faces(faces_a, tol)
    prepared_b, boxes_b = (prepared_a, boxes_a) if same_mesh else _prepare_faces(faces_b, tol)
    good_a = len(boxes_a) - boxes_a.count(None)
    if same_mesh:
        pairs = len(faces_a) * (len(faces_a) - 1) // 2
        good_pairs = good_a * (good_a - 1) // 2
    else:
        pairs = len(faces_a) * len(faces_b)
        good_pairs = good_a * (len(boxes_b) - boxes_b.count(None))
    candidates = _overlapping_pairs(boxes_a, boxes_b, same_mesh)
    candidates_s = time.perf_counter() - start
    results = []
    for i, group in groupby(candidates, key=itemgetter(0)):
        first = prepared_a[i]
        for _, j in group:
            results.append(_evaluate((i, j), first, prepared_b[j], tol, timing))
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
    case = "null" if rec.case is None else encode_basestring_ascii(rec.case)
    us = "" if rec.us is None else f',"us":{rec.us!r}'
    return f'{{"id":{rid},"case":{case},"points":[{points}]{us}}}'


def _emit(records: Iterable[ResultRecord], stream) -> None:
    stream.writelines(_record_json(rec) + "\n" for rec in records)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tritri",
                                     description="triangle-triangle intersection batch driver")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--eps", type=float, default=DEFAULT_TOLERANCE.eps_dist,
                       help="distance tolerance (default %(default)g)")
        p.add_argument("--jobs", type=int, default=1, choices=[1],
                       help="runs are serial; only 1 is accepted")
        p.add_argument("--output", default="-", help="record stream (default stdout)")
        p.add_argument("--timing", action="store_true",
                       help="add per-record microsecond timing (breaks byte-identical output)")

    pair = sub.add_parser("pair", help="intersect triangle pairs from a pair file")
    pair.add_argument("--input", default="-", help="pair file, one pair per line (default stdin)")
    common(pair)

    mesh = sub.add_parser("mesh", help="contacting face pairs of two OFF meshes")
    mesh.add_argument("mesh_a", help="OFF mesh, '-' for stdin")
    mesh.add_argument("mesh_b", help="OFF mesh, '-' for stdin")
    common(mesh)
    return parser


# built once, at import: a parser and the help formatters its construction
# uses hold reference cycles, which a parser built in each ``main`` call
# would leave to the paused collector
_PARSER = _build_parser()


@collector_paused()
def main(argv: Sequence[str] | None = None) -> int:
    start = time.perf_counter()
    args = _PARSER.parse_args(argv)
    try:
        tol = Tolerance(eps_dist=args.eps)
    except ValueError:
        print("error: --eps must be a positive finite number", file=sys.stderr)
        return 1

    try:
        parse_start = time.perf_counter()
        if args.mode == "pair":
            records = read_pairs(args.input)
        else:
            same = os.path.realpath(args.mesh_a) == os.path.realpath(args.mesh_b)
            faces_a = _read_mesh(args.mesh_a)
            faces_b = faces_a if same else _read_mesh(args.mesh_b)
        parse_s = time.perf_counter() - parse_start
        # opened before the pairs are computed, so a bad path costs no work
        with (contextlib.nullcontext(sys.stdout) if args.output == "-"
              else open(args.output, "w", encoding="utf-8")) as out:
            if args.mode == "pair":
                results, summary = run_pairs(records, tol, timing=args.timing)
                emitted = (r for r in results if r.case is not None)
            else:
                results, summary = run_meshes(faces_a, faces_b, tol, timing=args.timing,
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
    print(json.dumps(summary, separators=(",", ":")), file=sys.stderr)

    if summary["pairs"] and summary["skipped"] == summary["pairs"]:
        return 2
    return 0


def entry_point() -> NoReturn:
    """Run ``main`` as the whole process, then end it without finalization.

    Argparse's ``SystemExit`` (``--help``, a usage error) and any uncaught
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
