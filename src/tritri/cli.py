"""Batch command-line driver.

Two modes: ``tritri pair`` reads triangle pairs (18 numbers per line) and
emits one JSON record per pair; ``tritri mesh`` reads two OFF triangle
soups, prepares each face once (``intersect.prepare``), sends the cross
pairs whose grown bounding boxes overlap to the kernel, and emits records
for contacting pairs.

Records go to --output (stdout by default), one JSON object per line; a
summary JSON object goes to stderr.  Output is deterministic: the record
stream is byte-identical across runs.  Per-record timing (the ``us``
field) is therefore opt-in via --timing.  Besides the counts, the summary
gives the time spent parsing (``parse_us``), computing (``elapsed_us``),
writing records (``emit_us``) and in the whole run (``total_us``).

``main`` pauses the cyclic garbage collector (``fileio.collector_paused``):
the batch makes only acyclic objects, which reference counting frees, so
the collector's passes over the growing heap would find nothing.

Exit codes: 0 success, 1 I/O or parse failure, 2 every pair skipped or a
usage error (such as ``--jobs 2``).
"""

import argparse
import contextlib
import json
import os
import sys
import time
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .core import DEFAULT_TOLERANCE, Tolerance, Triangle3
from .errors import DegenerateTriangle, EmptyMesh, GeometryError, ParseError
from .fileio import PairRecord, collector_paused, read_off, read_pairs
from .intersect import PreparedTriangle, contact_margin, intersect, prepare

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
               pairs: int | None = None, degenerate: int = 0) -> dict:
    """Counts over all ``pairs`` candidates (default: one per result).

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

    Both are None for a degenerate face.
    """
    prepared: list[PreparedTriangle | None] = []
    boxes: list[tuple | None] = []
    for face in faces:
        try:
            pt = prepare(face, tol)
        except DegenerateTriangle:
            prepared.append(None)
            boxes.append(None)
            continue
        m = contact_margin(pt, tol)
        xs, ys, zs = zip(*pt.tri)
        prepared.append(pt)
        boxes.append((min(xs) - m, max(xs) + m, min(ys) - m, max(ys) + m,
                      min(zs) - m, max(zs) + m))
    return prepared, boxes


def _overlapping_pairs(boxes_a: Sequence[tuple | None], boxes_b: Sequence[tuple | None],
                       same_mesh: bool) -> list[tuple[int, int]]:
    """Sorted (i, j) pairs whose boxes overlap as closed intervals; None boxes never do.

    Sort-and-sweep along x (Baraff 1992): boxes enter in order of their low
    x and are checked on y and z against the open boxes of the other mesh,
    after dropping those whose high x lies below the entering low x.  For a
    mesh against itself there is one list of open boxes and pairs come out
    i < j.
    """
    entering = [(box[0], 0, i, box) for i, box in enumerate(boxes_a) if box is not None]
    if not same_mesh:
        entering += [(box[0], 1, j, box) for j, box in enumerate(boxes_b) if box is not None]
    entering.sort()  # (low x, side, index) is unique, so boxes are never compared
    open_boxes: tuple[list, list] = ([], [])
    pairs = []
    for low_x, side, k, box in entering:
        _, _, y0, y1, z0, z1 = box
        other = open_boxes[0 if same_mesh else 1 - side]
        other[:] = [(m, ob) for m, ob in other if ob[1] >= low_x]
        for m, ob in other:
            if ob[2] <= y1 and y0 <= ob[3] and ob[4] <= z1 and z0 <= ob[5]:
                # mesh A's index first; the lower index first within one mesh
                pairs.append((m, k) if side or (same_mesh and m < k) else (k, m))
        open_boxes[side].append((k, box))
    pairs.sort()
    return pairs


def run_meshes(faces_a: Sequence[Triangle3], faces_b: Sequence[Triangle3],
               tol: Tolerance, timing: bool = False,
               same_mesh: bool = False) -> tuple[list[ResultRecord], dict]:
    """Mesh test behind a box broad phase; only contacting pairs are emitted downstream.

    Only candidate pairs whose bounding boxes, grown by ``contact_margin``,
    overlap reach the kernel; the summary counts the others as ``culled``.
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
    results = []
    for i, group in groupby(_overlapping_pairs(boxes_a, boxes_b, same_mesh), key=itemgetter(0)):
        first = prepared_a[i]
        for _, j in group:
            results.append(_evaluate((i, j), first, prepared_b[j], tol, timing))
        first.release()
    contacts = sum(r.case in CONTACT_CASES for r in results)
    summary = _summarize(results, emitted=contacts, elapsed=time.perf_counter() - start,
                         pairs=pairs, degenerate=pairs - good_pairs)
    return results, summary


def _record_json(rec: ResultRecord) -> str:
    """The record as compact JSON, byte for byte what ``json.dumps`` writes.

    The line is built directly: the ``repr`` of an int or a finite float is
    the text ``json.dumps`` writes for it.  ``json.dumps`` spells infinities
    and NaN differently; theirs are the only reprs here with an ``n``, so a
    record holding one goes through ``json.dumps`` itself.
    """
    points = ",".join([f"[{x!r},{y!r},{z!r}]" for x, y, z in rec.points])
    rid = rec.id
    if "n" in points:
        payload: dict = {
            "id": list(rid) if isinstance(rid, tuple) else rid,
            "case": rec.case,
            "points": [list(p) for p in rec.points],
        }
        if rec.us is not None:
            payload["us"] = rec.us
        return json.dumps(payload, separators=(",", ":"))
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
    mesh.add_argument("mesh_a")
    mesh.add_argument("mesh_b")
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
            faces_a = read_off(args.mesh_a)
            faces_b = faces_a if same else read_off(args.mesh_b)
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
        emit_s = time.perf_counter() - emit_start  # closing the file flushes the last records
    except (ParseError, EmptyMesh, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary.update(parse_us=round(parse_s * 1e6), emit_us=round(emit_s * 1e6),
                   total_us=round((time.perf_counter() - start) * 1e6))
    print(json.dumps(summary, separators=(",", ":")), file=sys.stderr)

    if summary["pairs"] and summary["skipped"] == summary["pairs"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
