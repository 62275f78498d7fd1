"""Batch command-line driver.

Two modes: ``tritri pair`` reads triangle pairs (18 numbers per line) and
emits one JSON record per pair; ``tritri mesh`` reads two OFF triangle
soups, gives each face a grown bounding box, sends the cross pairs whose
boxes overlap to the kernel, and emits records for contacting pairs.  Those
candidates come from one sweep over a list of boxes sorted by low x; for
two meshes, the boxes of both that meet the other mesh's overall box share
that list.  Each face is checked and prepared once, in the pass that
builds its box (``intersect._prepared``).  Both modes run the kernel in
one loop, ``_kernel_loop``, which counts every case as it goes and keeps
only the records that the mode writes.

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
import os
import sys
import time
from bisect import bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NoReturn, Sequence

from .core import DEFAULT_TOLERANCE, Tolerance, Triangle3
from .errors import DegenerateTriangle, EmptyMesh, GeometryError, ParseError
from .fileio import collector_paused, read_off, read_pairs
from .intersect import PreparedTriangle, _margin, _prepared, intersect

CONTACT_CASES = frozenset({"touch_point", "crossing_segment", "coplanar_contour"})


def _kernel_loop(triples: Iterable[tuple], tol: Tolerance, timing: bool,
                 written: frozenset | None = None) -> tuple[list[tuple], dict, dict]:
    """Intersect each ``(id, t1, t2)``, counting its case or the error type that skipped it.

    Returns the ``(id, case, points, us)`` records of every case, or of the
    cases in ``written``, in input order (``us`` the kernel's time, None
    without ``timing``), the case counts and the skip counts.
    """
    records, cases, skipped_by = [], {}, {}
    for rid, t1, t2 in triples:
        start = time.perf_counter() if timing else 0.0
        try:
            label, result = intersect(t1, t2, tol)
        except GeometryError as exc:
            # degenerate input, or a pair the kernel cannot place: skip it, not the run
            name = type(exc).__name__
            skipped_by[name] = skipped_by.get(name, 0) + 1
            continue
        us = round((time.perf_counter() - start) * 1e6) if timing else None
        case = label._value_  # past the enum's value property
        cases[case] = cases.get(case, 0) + 1
        if written is None or case in written:
            records.append((rid, case, result.points, us))
    return records, cases, skipped_by


def _summarize(cases: dict, skipped_by: dict, emitted: int, elapsed: float,
               pairs: int | None = None, candidates: float = 0.0) -> dict:
    """The summary of a run from its counts over ``pairs`` candidates (default: all counted).

    ``elapsed`` is the whole computation and ``candidates`` the part of it
    spent choosing the pairs for the kernel, in seconds.  Candidates that
    are neither skipped nor given a case were ``culled`` by the broad
    phase, so ``pairs == sum(cases) + skipped + culled``.
    """
    counted = sum(cases.values()) + sum(skipped_by.values())
    pairs = counted if pairs is None else pairs
    return {
        "pairs": pairs,
        "emitted": emitted,
        "skipped": sum(skipped_by.values()),
        "skipped_by": dict(sorted(skipped_by.items())),
        "culled": pairs - counted,
        "cases": dict(sorted(cases.items())),
        "elapsed_us": round(elapsed * 1e6),
        "candidates_us": round(candidates * 1e6),
        "pairs_per_s": round(pairs / elapsed) if elapsed > 0 else None,
    }


def run_pairs(pairs: Iterable[tuple], tol: Tolerance,
              timing: bool = False) -> tuple[list[tuple], dict]:
    """Intersect every ``(id, t1, t2)``: a record per pair not skipped, in input order."""
    start = time.perf_counter()
    records, cases, skipped_by = _kernel_loop(pairs, tol, timing)
    return records, _summarize(cases, skipped_by, len(records), time.perf_counter() - start)


def _face_boxes(faces: Sequence[Triangle3], tol: Tolerance) -> tuple[list, list]:
    """Per face, its bounding box grown by ``contact_margin``, and the face prepared.

    Each face is checked and prepared once, as given, by
    ``intersect._prepared``, which raises NonFiniteInput, or
    DegenerateTriangle for a face whose box and prepared face are None.
    The check comes before the margin, which divides by the inradius.  The
    margin takes the norm that the check took, and the margin and the box
    come from the face's nine coordinates, unpacked once.
    """
    eps = tol.eps_dist
    boxes, prepared = [], []  # per face, None for a degenerate one
    for face in faces:
        try:
            p, nn = _prepared(face, tol)
        except DegenerateTriangle:
            boxes.append(None)
            prepared.append(None)
            continue
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = face
        m = _margin(ax, ay, az, bx, by, bz, cx, cy, cz, nn, eps)
        # each bound by comparisons, which cost less than a three-argument min or max call
        x0 = (ax if ax <= cx else cx) if ax <= bx else (bx if bx <= cx else cx)
        x1 = (ax if ax >= cx else cx) if ax >= bx else (bx if bx >= cx else cx)
        y0 = (ay if ay <= cy else cy) if ay <= by else (by if by <= cy else cy)
        y1 = (ay if ay >= cy else cy) if ay >= by else (by if by >= cy else cy)
        z0 = (az if az <= cz else cz) if az <= bz else (bz if bz <= cz else cz)
        z1 = (az if az >= cz else cz) if az >= bz else (bz if bz >= cz else cz)
        boxes.append((x0 - m, x1 + m, y0 - m, y1 + m, z0 - m, z1 + m))
        prepared.append(p)
    return boxes, prepared


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


def _prepared_pairs(prepared_a: Sequence[PreparedTriangle], prepared_b: Sequence[PreparedTriangle],
                    candidates: list[tuple[int, int]]) -> Iterable[tuple]:
    """``((i, j), first, second)`` per candidate, read by index from the prepared faces.

    Only the first triangle's frame and window are read, so a face's are
    released after its group as the first triangle, its last use (in a mesh
    against itself, its pairs as the second come first): at most one face holds them.
    """
    for i, group in groupby(candidates, key=itemgetter(0)):
        first = prepared_a[i]
        for ij in group:  # the candidate's own tuple is the record's id
            yield ij, first, prepared_b[ij[1]]
        first.release()


def run_meshes(faces_a: Sequence[Triangle3], faces_b: Sequence[Triangle3],
               tol: Tolerance, timing: bool = False) -> tuple[list[tuple], dict]:
    """Mesh test behind a box broad phase: a record per contacting pair, in (i, j) order.

    Only candidate pairs whose bounding boxes, grown by ``contact_margin``,
    overlap reach the kernel; the summary counts the others as ``culled``,
    and the time spent checking and preparing the faces, building their
    boxes and finding those pairs as ``candidates_us``.
    Pairs with a degenerate face count as ``skipped`` without a kernel call.
    Each face is checked and prepared once, in the box pass, so its normal,
    frame axes and window (its side lines) are built at most once per face,
    not once per pair.  A mesh against itself (``faces_a is faces_b``)
    skips the diagonal and tests each unordered pair once (i < j).
    """
    start = time.perf_counter()
    same_mesh = faces_a is faces_b
    boxes_a, prepared_a = _face_boxes(faces_a, tol)
    boxes_b, prepared_b = (boxes_a, prepared_a) if same_mesh else _face_boxes(faces_b, tol)
    good_a = len(boxes_a) - boxes_a.count(None)
    if same_mesh:
        pairs = len(faces_a) * (len(faces_a) - 1) // 2
        good_pairs = good_a * (good_a - 1) // 2
    else:
        pairs = len(faces_a) * len(faces_b)
        good_pairs = good_a * (len(boxes_b) - boxes_b.count(None))
    candidates = _overlapping_pairs(boxes_a, boxes_b, same_mesh)
    candidates_s = time.perf_counter() - start
    records, cases, skipped_by = _kernel_loop(
        _prepared_pairs(prepared_a, prepared_b, candidates), tol, timing, CONTACT_CASES)
    degenerate = pairs - good_pairs  # pairs with a degenerate face skip the kernel
    if degenerate:
        skipped_by["DegenerateTriangle"] = skipped_by.get("DegenerateTriangle", 0) + degenerate
    summary = _summarize(cases, skipped_by, len(records), time.perf_counter() - start,
                         pairs=pairs, candidates=candidates_s)
    return records, summary


def _read_mesh(path: str) -> list[tuple]:
    """``read_off`` of a path, '-' for stdin; its ParseError or EmptyMesh names the path."""
    try:
        return read_off(path)
    except (ParseError, EmptyMesh) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _record_json(rec: tuple) -> str:
    """The record as compact JSON, byte for byte what ``json.dumps`` writes.

    The line is built directly: the ``repr`` of an int or a finite float is
    the text ``json.dumps`` writes for it.  Infinities and NaN, the only
    reprs here with an ``n``, are respelled as ``json.dumps`` spells them.
    The case is a label, an ASCII identifier, so it is written as it is.
    """
    rid, case, points, us = rec
    points = ",".join([f"[{x!r},{y!r},{z!r}]" for x, y, z in points])
    if "n" in points:
        points = points.replace("inf", "Infinity").replace("nan", "NaN")
    rid = f"[{rid[0]!r},{rid[1]!r}]" if isinstance(rid, tuple) else repr(rid)
    us = "" if us is None else f',"us":{us!r}'
    return f'{{"id":{rid},"case":"{case}","points":[{points}]{us}}}'


def _json(value) -> str:
    """The summary, or one of its values, as compact JSON: what ``json.dumps`` writes.

    Its values are ints, None and dicts of these under ASCII identifiers,
    which need no escapes, so ``json`` is not imported for one line.
    """
    if isinstance(value, dict):
        return "{" + ",".join([f'"{k}":{_json(v)}' for k, v in value.items()]) + "}"
    return "null" if value is None else repr(value)


def _one_job(value: str) -> int:
    """``--jobs``' conversion: runs are serial, so only 1 (as ``int`` reads it) is kept."""
    if int(value) != 1:
        raise ValueError(value)
    return 1


def _eps(value: str) -> float:
    """``--eps``' conversion: a float that ``Tolerance`` takes as ``eps_dist``, else ValueError."""
    return Tolerance(eps_dist=float(value)).eps_dist


# what each accepts, which argparse's "invalid {__name__} value" error names
_eps.__name__, _one_job.__name__ = "positive finite float", "job count (only 1)"


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
            pairs = read_pairs(args["input"])
        else:
            same = os.path.realpath(args["mesh_a"]) == os.path.realpath(args["mesh_b"])
            faces_a = _read_mesh(args["mesh_a"])
            faces_b = faces_a if same else _read_mesh(args["mesh_b"])
        parse_s = time.perf_counter() - parse_start
        # opened before the pairs are computed, so a bad path costs no work
        with (contextlib.nullcontext(sys.stdout) if args["output"] == "-"
              else open(args["output"], "w", encoding="utf-8")) as out:
            if args["mode"] == "pair":
                records, summary = run_pairs(pairs, tol, timing=args["timing"])
            else:
                records, summary = run_meshes(faces_a, faces_b, tol, timing=args["timing"])
            emit_start = time.perf_counter()
            out.writelines(_record_json(rec) + "\n" for rec in records)
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
