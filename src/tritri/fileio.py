"""Input parsing for the batch CLI: pair files and ASCII OFF meshes.

In both formats a ``#`` starts a comment, a line with no tokens left is
skipped, and each ``ParseError`` names the line's 1-based number in the
file.  Coordinates must be finite.  A UTF-8 byte-order mark that opens the
input is dropped; anywhere else it is an error.  Each format has one parse:
every line is cut at its ``#`` and split once, and the numbers are
converted in one pass at C speed.  One ``sum`` decides they are finite;
only a sum that is not (a value that is not, or finite values that
overflow) takes a pass of ``math.isfinite`` over every value.  Only when
the numbers fail are the rows walked one by one, to raise the first bad
line's error.  ``read_pairs`` parses its stream ``_CHUNK_LINES`` lines at
a time, so only one chunk's tokens are held at once; ``read_off`` reads
its file whole.
"""

import contextlib
import gc
import math
import os
import sys
from itertools import chain, count, islice
from typing import Iterable, TextIO

from .errors import EmptyMesh, ParseError


class collector_paused(contextlib.ContextDecorator):
    """Pause the cyclic garbage collector; restore its previous state on exit.

    A context manager and, as ``@collector_paused()``, a decorator.
    Nesting-safe: a pause inside another leaves the collector disabled, and
    a caller that had disabled it finds it disabled afterwards.  Pausing
    over a batch is safe because everything the batch makes (tuples,
    floats, ``__slots__`` objects) is acyclic, so reference counting frees
    it; the collector would only walk the growing heap and find nothing.
    ``__exit__`` allocates nothing after re-enabling the collector, so a
    decorated function's result is not swept by a pass on the way out.
    """

    def __init__(self):
        self._was_enabled: list[bool] = []  # one entry per open pause

    def __enter__(self):
        self._was_enabled.append(gc.isenabled())
        gc.disable()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._was_enabled.pop():
            gc.enable()


def _finite_floats(tokens: Iterable[str]) -> list[float] | None:
    """The tokens as floats, in one pass at C speed, or None if one is not a finite float."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return values if -math.inf < sum(values) < math.inf or all(map(math.isfinite, values)) else None


def _check_floats(tokens: list[str], lineno: int) -> None:
    """Raise the ParseError of the first token that is not a finite float."""
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"not a number: {tok!r}", line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value: {tok!r}", line=lineno)


_CHUNK_LINES = 1024  # lines read_pairs parses at once: a chunk's tokens are all held together


@contextlib.contextmanager
def _undecodable_is_a_parse_error():
    """Turn a byte the input's encoding cannot decode into a ParseError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding} text: byte {exc.object[exc.start]:#04x}") from None


def _pair_records(chunk: list[str], first_line: int, first_id: int) -> list[tuple]:
    """The records of a chunk of pair lines, the first numbered ``first_line``.

    Record ids count the lines with numbers from ``first_id``.  The numbers
    of the whole chunk are converted and checked in one pass; only when
    that fails are its rows walked, to raise the first bad line's error.
    """
    rows = [line.partition("#")[0].split() for line in chunk]
    values = _finite_floats(chain.from_iterable(rows)) if set(map(len, rows)) <= {0, 18} else None
    if values is None:
        for lineno, tokens in enumerate(rows, first_line):
            if tokens and len(tokens) != 18:
                raise ParseError(f"expected 18 numbers, got {len(tokens)}", line=lineno)
            _check_floats(tokens, lineno)
    it = iter(values)
    points = zip(it, it, it)
    tris = zip(points, points, points)
    return list(zip(count(first_id), tris, tris))


def _read_pairs(lines: Iterable[str]) -> list[tuple]:
    records: list[tuple] = []
    lines = iter(lines)
    first_line = 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        if first_line == 1:
            chunk[0] = chunk[0].removeprefix("\ufeff")  # a byte-order mark
        records += _pair_records(chunk, first_line, len(records))
        first_line += len(chunk)
    return records


@collector_paused()
@_undecodable_is_a_parse_error()
def read_pairs(source: str | os.PathLike | TextIO) -> list[tuple]:
    """Read pair records from a path, '-' for stdin, or an open stream.

    One pair per line, 18 numbers.  A record is a plain ``(id, t1, t2)``
    tuple, each triangle a tuple of three ``(x, y, z)`` tuples of floats.
    Record ids count the pairs from 0; comment and blank lines do not
    consume ids.  A bad line, or a byte the input cannot decode, is a
    ParseError.
    """
    if hasattr(source, "read"):
        return _read_pairs(source)
    if str(source) == "-":
        return _read_pairs(sys.stdin)
    with open(source, "r", encoding="utf-8") as handle:
        return _read_pairs(handle)


def _need(rows: list, count: int) -> None:
    """The ParseError of a file whose rows run out before ``count`` of them."""
    if len(rows) < count:
        raise ParseError("unexpected end of file")


def _off_faces(lines: list[str]) -> list[tuple]:
    """``read_off``'s faces from its lines.

    The vertex coordinates are converted in one ``float`` pass and the face
    indices in one ``int`` pass; only where a pass fails are its rows walked
    one by one, to name the first bad line.  The face walk also takes a
    leading count spelled other than ``3``, such as ``+3``.
    """
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")  # a byte-order mark
    rows = [(lineno, tokens) for lineno, line in enumerate(lines, start=1)
            if (tokens := line.partition("#")[0].split())]
    _need(rows, 1)
    lineno, tokens = rows[0]
    header = " ".join(tokens)
    if header.upper() != "OFF":
        raise ParseError(f"expected OFF header, got {header!r}", line=lineno)
    _need(rows, 2)
    lineno, counts = rows[1]
    if len(counts) < 2:
        raise ParseError("expected vertex and face counts", line=lineno)
    try:
        n_vertices, n_faces = int(counts[0]), int(counts[1])
    except ValueError:
        raise ParseError(f"bad counts line: {' '.join(counts)!r}", line=lineno) from None
    if n_vertices < 0 or n_faces < 0:
        raise ParseError("negative counts", line=lineno)

    vertex_rows = rows[2:2 + n_vertices]
    coords = [tokens[:3] for _, tokens in vertex_rows]
    short = min(map(len, coords), default=3) < 3
    values = None if short else _finite_floats(chain.from_iterable(coords))
    if values is None:
        for lineno, tokens in vertex_rows:
            if len(tokens) < 3:
                raise ParseError("vertex needs 3 coordinates", line=lineno)
            _check_floats(tokens[:3], lineno)
    _need(rows, 2 + n_vertices)
    it = iter(values)
    vertices = list(zip(it, it, it))

    face_rows = rows[2 + n_vertices:2 + n_vertices + n_faces]
    try:
        idx = list(map(int, chain.from_iterable([tokens[1:4] for _, tokens in face_rows])))
    except ValueError:
        idx = []
    # walked if a row is short of 3 indices, its count is not "3", or an index is out of range
    if (len(idx) != 3 * len(face_rows) or [t[0] for _, t in face_rows].count("3") != len(face_rows)
            or (idx and not 0 <= min(idx) <= max(idx) < n_vertices)):
        idx = []
        for lineno, tokens in face_rows:
            try:
                arity = int(tokens[0])
            except ValueError:
                raise ParseError("face needs a leading vertex count", line=lineno) from None
            if arity != 3:
                raise ParseError(f"only triangular faces supported, got {arity}", line=lineno)
            if len(tokens) < 4:
                raise ParseError("face needs 3 vertex indices", line=lineno)
            try:
                face = [int(tok) for tok in tokens[1:4]]
            except ValueError:
                raise ParseError("bad vertex index", line=lineno) from None
            for i in face:
                if not 0 <= i < len(vertices):
                    raise ParseError(f"vertex index {i} out of range", line=lineno)
            idx += face
    _need(rows, 2 + n_vertices + n_faces)
    if not idx:
        raise EmptyMesh("mesh has no faces")
    corners = map(vertices.__getitem__, idx)
    return list(zip(corners, corners, corners))


@collector_paused()
@_undecodable_is_a_parse_error()
def read_off(source: str | os.PathLike | TextIO) -> list[tuple]:
    """Read an ASCII OFF triangle soup from a path, '-' for stdin, or an open stream.

    Only 3-vertex faces are accepted; anything else is a ParseError.
    Raises EmptyMesh when the file holds no faces.  A face is a plain tuple
    of three ``(x, y, z)`` tuples, and faces that share a vertex index share
    that tuple.  A byte the input cannot decode is a ParseError too.
    """
    if str(source) == "-":
        source = sys.stdin
    if hasattr(source, "read"):
        lines = source.readlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")  # newlines are already translated to "\n"
    return _off_faces(lines)
