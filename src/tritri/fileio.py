"""Input parsing for the batch CLI: pair files and ASCII OFF meshes.

In both formats a ``#`` starts a comment, a line with no tokens left is
skipped, and each ``ParseError`` names the line's 1-based number in the
file.  Coordinates must be finite.  The per-line tokenizer,
``_numbered_tokens``, reads OFF files and the pair lines of ``iter_pairs``.
``read_pairs`` reads its stream in chunks of ``_CHUNK_LINES`` lines and
parses a chunk of plain pair lines (18 finite numbers or none, so no ``#``)
in a few passes at C speed; any other chunk goes through ``iter_pairs``,
from the chunk's first line number and the next record id, so it gives the
same records or raises the same ``ParseError``.
"""

import contextlib
import gc
import math
import sys
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from .core import Point3, Triangle3
from .errors import EmptyMesh, ParseError


class PairRecord(NamedTuple):
    """One input line: a sequence id and the two triangles it encodes."""

    id: int
    t1: Triangle3
    t2: Triangle3


class collector_paused(contextlib.ContextDecorator):
    """Pause the cyclic garbage collector; restore its previous state on exit.

    A context manager and, as ``@collector_paused()``, a decorator.
    Nesting-safe: a pause inside another leaves the collector disabled, and
    a caller that had disabled it finds it disabled afterwards.  Pausing
    over a batch is safe because everything the batch makes (named tuples,
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


def _numbered_tokens(lines: Iterable[str], first_line: int = 1) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each line with tokens left after its # comment.

    The first line is numbered ``first_line``.
    """
    for lineno, raw in enumerate(lines, start=first_line):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield lineno, tokens


def _checked_floats(tokens: list[str], lineno: int) -> list[float]:
    """The tokens as finite floats, converted in one pass at C speed.

    A bad line is scanned once more, token by token, for the error of its
    first bad token.
    """
    try:
        values = list(map(float, tokens))
    except ValueError:
        pass
    else:
        if all(map(math.isfinite, values)):
            return values
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"not a number: {tok!r}", line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value: {tok!r}", line=lineno)


_new = tuple.__new__  # builds a named tuple without its Python-level __new__
_SIX_POINTS = (Point3,) * 6
_CHUNK_LINES = 1024  # lines read_pairs parses at once: a chunk's tokens are all held together


def iter_pairs(lines: Iterable[str], first_line: int = 1, first_id: int = 0) -> Iterable[PairRecord]:
    """Parse a pair stream: one pair per line, 18 numbers, # comments.

    Record ids count parsed pairs from ``first_id`` (default 0); comment
    and blank lines do not consume ids.  Raises ParseError carrying the
    line number, counted from ``first_line`` (default 1).
    """
    for rid, (lineno, tokens) in enumerate(_numbered_tokens(lines, first_line), start=first_id):
        if len(tokens) != 18:
            raise ParseError(f"expected 18 numbers, got {len(tokens)}", line=lineno)
        it = iter(_checked_floats(tokens, lineno))
        # the exact types prepare takes uncopied
        a, b, c, d, e, f = map(_new, _SIX_POINTS, zip(it, it, it))
        yield _new(PairRecord, (rid, _new(Triangle3, (a, b, c)), _new(Triangle3, (d, e, f))))


def _plain_pairs(chunk: list[str], first_id: int) -> list[PairRecord] | None:
    """The records of a chunk of pair lines, or None if it needs ``iter_pairs``.

    None for a chunk with a line of other than 0 or 18 tokens, or with a
    token that is not a finite float.  That covers every ``#``: a row that
    holds one has another length, or a token ``float`` rejects.
    """
    rows = [line.split() for line in chunk]
    if not set(map(len, rows)) <= {0, 18}:
        return None
    try:
        values = list(map(float, chain.from_iterable(rows)))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None
    it = iter(values)
    points = map(_new, repeat(Point3), zip(it, it, it))
    tris = map(_new, repeat(Triangle3), zip(points, points, points))
    return list(map(_new, repeat(PairRecord), zip(count(first_id), tris, tris)))


def _read_pairs(lines: Iterable[str]) -> list[PairRecord]:
    records: list[PairRecord] = []
    lines = iter(lines)
    first_line = 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        plain = _plain_pairs(chunk, len(records))
        records += iter_pairs(chunk, first_line, len(records)) if plain is None else plain
        first_line += len(chunk)
    return records


@collector_paused()
def read_pairs(source: str | Path | TextIO) -> list[PairRecord]:
    """Read pair records from a path, '-' for stdin, or an open stream.

    The same records as ``iter_pairs``, or the same ParseError.
    """
    if hasattr(source, "read"):
        return _read_pairs(source)
    if str(source) == "-":
        return _read_pairs(sys.stdin)
    with open(source, "r", encoding="utf-8") as handle:
        return _read_pairs(handle)


@collector_paused()
def read_off(source: str | Path | TextIO) -> list[Triangle3]:
    """Read an ASCII OFF triangle soup.

    Only 3-vertex faces are accepted; anything else is a ParseError.
    Raises EmptyMesh when the file holds no faces.
    """
    if hasattr(source, "read"):
        lines = source.readlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()

    rows = _numbered_tokens(lines)
    try:
        lineno, tokens = next(rows)
        header = " ".join(tokens)
        if header.upper() != "OFF":
            raise ParseError(f"expected OFF header, got {header!r}", line=lineno)

        lineno, counts = next(rows)
        if len(counts) < 2:
            raise ParseError("expected vertex and face counts", line=lineno)
        try:
            n_vertices, n_faces = int(counts[0]), int(counts[1])
        except ValueError:
            raise ParseError(f"bad counts line: {' '.join(counts)!r}", line=lineno) from None
        if n_vertices < 0 or n_faces < 0:
            raise ParseError("negative counts", line=lineno)

        vertices: list[Point3] = []
        for _ in range(n_vertices):
            lineno, tokens = next(rows)
            if len(tokens) < 3:
                raise ParseError("vertex needs 3 coordinates", line=lineno)
            vertices.append(_new(Point3, _checked_floats(tokens[:3], lineno)))

        faces: list[Triangle3] = []
        for _ in range(n_faces):
            lineno, tokens = next(rows)
            try:
                arity = int(tokens[0])
            except ValueError:
                raise ParseError("face needs a leading vertex count", line=lineno) from None
            if arity != 3:
                raise ParseError(f"only triangular faces supported, got {arity}", line=lineno)
            if len(tokens) < 4:
                raise ParseError("face needs 3 vertex indices", line=lineno)
            try:
                idx = [int(tok) for tok in tokens[1:4]]
            except ValueError:
                raise ParseError("bad vertex index", line=lineno) from None
            for i in idx:
                if not 0 <= i < len(vertices):
                    raise ParseError(f"vertex index {i} out of range", line=lineno)
            faces.append(Triangle3(vertices[idx[0]], vertices[idx[1]], vertices[idx[2]]))
    except StopIteration:  # raised here only by ``next(rows)``: the lines ran out
        raise ParseError("unexpected end of file") from None

    if not faces:
        raise EmptyMesh("mesh has no faces")
    return faces
