import codecs
import functools
import gc
import io
import math
import random
import re
import sys

import pytest

import tritri.fileio
from tritri.errors import EmptyMesh, ParseError
from tritri.fileio import PairRecord, collector_paused, read_off, read_pairs

PAIR_LINE = "0 0 0  4 0 0  0 4 0   1 1 -1  1 1 2  3 3 2"

OFF_TEXT = """\
OFF
# a square split into two triangles
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""


def test_read_pairs_skips_comments_and_blanks():
    lines = [
        "# header comment",
        "",
        PAIR_LINE,
        "   ",
        PAIR_LINE + "  # trailing note",
    ]
    records = read_pairs(io.StringIO("\n".join(lines)))
    assert [r.id for r in records] == [0, 1]
    assert records[0].t1[0] == (0.0, 0.0, 0.0)
    assert records[0].t2[2] == (3.0, 3.0, 2.0)
    assert records[0].t1 == records[1].t1


def test_read_pairs_wrong_token_count():
    with pytest.raises(ParseError) as exc:
        read_pairs(io.StringIO("\n1 2 3"))
    assert "expected 18 numbers, got 3" in str(exc.value)
    assert exc.value.line == 2


def test_read_pairs_rejects_bad_tokens():
    bad = PAIR_LINE.replace("-1", "x")
    with pytest.raises(ParseError, match="not a number"):
        read_pairs(io.StringIO(bad))
    with pytest.raises(ParseError, match="non-finite"):
        read_pairs(io.StringIO(PAIR_LINE.replace("-1", "nan")))


def test_read_pairs_from_path_and_stream(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text(PAIR_LINE + "\n")
    assert len(read_pairs(path)) == 1
    assert len(read_pairs(io.StringIO(PAIR_LINE))) == 1


def test_a_byte_order_mark_opening_the_input_is_dropped(tmp_path, monkeypatch):
    for read, text in ((read_pairs, PAIR_LINE + "\n"), (read_off, OFF_TEXT)):
        want = read(io.StringIO(text))
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert read(path) == want
        assert read(io.StringIO("\ufeff" + text)) == want
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        assert read("-") == want


@pytest.mark.parametrize("read, text, message", [
    (read_pairs, "\ufeff\ufeff" + PAIR_LINE, r"line 1: not a number: '\ufeff0'"),
    (read_pairs, PAIR_LINE + "\n\ufeff" + PAIR_LINE, r"line 2: not a number: '\ufeff0'"),
    (read_pairs, PAIR_LINE.replace(" 4 0 0", " \ufeff4 0 0"), r"line 1: not a number: '\ufeff4'"),
    (read_off, "\ufeff\ufeff" + OFF_TEXT, r"line 1: expected OFF header, got '\ufeffOFF'"),
    (read_off, OFF_TEXT.replace("1 0 0", "\ufeff1 0 0"), r"line 5: not a number: '\ufeff1'"),
])
def test_a_byte_order_mark_anywhere_else_is_a_parse_error(read, text, message, tmp_path):
    path = tmp_path / "bom.txt"
    path.write_text(text, encoding="utf-8")
    for source in (io.StringIO(text), path):
        with pytest.raises(ParseError) as got:
            read(source)
        assert str(got.value) == message


def test_read_off_happy_path():
    faces = read_off(io.StringIO(OFF_TEXT))
    assert len(faces) == 2
    assert faces[0] == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert faces[1] == ((0, 0, 0), (1, 1, 0), (0, 1, 0))


def _spaced_out(text):
    """``text`` with a comment, a blank and a tab-only line before each of its
    lines, tabs between its tokens and a trailing comment on its line 3 (a
    vertex line): its line n becomes line 4 n."""
    out = []
    for n, line in enumerate(text.splitlines(), start=1):
        out += ["# comment", "", "\t", line.replace(" ", "\t") + ("  # note" if n == 3 else "")]
    return "\n".join(out) + "\n"


def _assert_same_error_when_spaced_out(text, line):
    """read_off fails on ``text`` at ``line`` and on ``_spaced_out(text)`` with the
    same message at line 4 ``line``; ``line`` None is an error with no line."""
    errors = []
    for variant in (text, _spaced_out(text)):
        with pytest.raises(ParseError) as got:
            read_off(io.StringIO(variant))
        errors.append(got.value)
    plain, spaced = errors
    assert plain.line == line
    assert spaced.line == (None if line is None else 4 * line)
    assert str(spaced) == str(plain).replace(f"line {line}:", f"line {spaced.line}:")


def test_read_off_bad_header():
    with pytest.raises(ParseError, match="expected OFF header"):
        read_off(io.StringIO("PLY\n1 0 0\n0 0 0\n"))
    _assert_same_error_when_spaced_out("PLY\n1 0 0\n0 0 0\n", 1)


def test_read_off_rejects_quads():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(ParseError, match="only triangular faces supported, got 4"):
        read_off(io.StringIO(text))
    _assert_same_error_when_spaced_out(text, 7)


def test_read_off_index_out_of_range():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(ParseError, match="vertex index 7 out of range"):
        read_off(io.StringIO(text))
    _assert_same_error_when_spaced_out(text, 6)


def test_read_off_truncated():
    with pytest.raises(ParseError, match="unexpected end of file"):
        read_off(io.StringIO("OFF\n3 1 0\n0 0 0\n"))
    _assert_same_error_when_spaced_out("OFF\n3 1 0\n0 0 0\n", None)


@pytest.mark.parametrize("text, line, message", [
    ("OFF\n3\n", 2, "expected vertex and face counts"),
    ("OFF\n3 x 0\n", 2, "bad counts line: '3 x 0'"),  # the tokens, joined by one space
    ("OFF\n-1 0 0\n", 2, "negative counts"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nx 0 1 2\n", 6, "face needs a leading vertex count"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", 6, "face needs 3 vertex indices"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 y 2\n", 6, "bad vertex index"),
])
def test_off_errors_keep_message_and_line(text, line, message):
    with pytest.raises(ParseError) as got:
        read_off(io.StringIO(text))
    assert str(got.value) == f"line {line}: {message}"
    _assert_same_error_when_spaced_out(text, line)


OFF_ERRORS = [
    ("PLY\n1 0 0\n0 0 0\n", "line 1: expected OFF header, got 'PLY'"),
    ("OFF\n3\n", "line 2: expected vertex and face counts"),
    ("OFF\n3 x 0\n", "line 2: bad counts line: '3 x 0'"),
    ("OFF\n-1 0 0\n", "line 2: negative counts"),
    ("OFF\n3 1 0\n0 0\n", "line 3: vertex needs 3 coordinates"),
    ("OFF\n3 1 0\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n", "line 4: non-finite value: 'nan'"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nx 0 1 2\n", "line 6: face needs a leading vertex count"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n",
     "line 6: only triangular faces supported, got 4"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "line 6: face needs 3 vertex indices"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 y 2\n", "line 6: bad vertex index"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n", "line 6: vertex index -1 out of range"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "unexpected end of file"),
    # two faults: the earlier line is named, in either order, also where the
    # one-pass conversion fails only on the later one
    ("OFF\n3 1 0\n0 x 0\n1 0\n0 1 0\n3 0 1 2\n", "line 3: not a number: 'x'"),
    ("OFF\n3 1 0\n0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "line 3: vertex needs 3 coordinates"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n3 0 1\n", "line 6: vertex index 7 out of range"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n3 0 1 7\n", "line 6: face needs 3 vertex indices"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n4 0 1 2\n", "line 6: vertex index -1 out of range"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n3 0 1 -1\n",
     "line 6: only triangular faces supported, got 4"),
    ("OFF\n3 1 0\n0 0 0\n1 nan 0\n0 1 0\n3 0 1 9\n", "line 4: non-finite value: 'nan'"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n", "line 6: vertex index 9 out of range"),
    ("OFF\n3 1 0\n0 0 0\n1 nan 0\n", "line 4: non-finite value: 'nan'"),
]


@pytest.mark.parametrize("text, message", OFF_ERRORS)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_off_errors_from_a_path_keep_message_and_line(text, message, newline, tmp_path):
    path = tmp_path / "bad.off"
    path.write_bytes(text.replace("\n", newline).encode())
    for source in (path, io.StringIO(text.replace("\n", newline))):
        with pytest.raises(ParseError) as got:
            read_off(source)
        assert str(got.value) == message


def test_read_off_empty_mesh():
    with pytest.raises(EmptyMesh):
        read_off(io.StringIO("OFF\n1 0 0\n0 0 0\n"))


# --- OFF variants and a large mesh ----------------------------------------------

SQUARE_FACES = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
                ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0))]

OFF_VARIANTS = {
    "plain": OFF_TEXT,
    "comments": ("# leading\nOFF # header\n# counts next\n4 2 0 # counts\n0 0 0\n1 0 0 #x\n"
                 "1 1 0\n# between\n0 1 0\n3 0 1 2 # first\n#3 9 9 9\n3 0 2 3\n# end\n"),
    "blank lines": "\nOFF\n\n4 2 0\n \n0 0 0\n\t\n1 0 0\n1 1 0\n0 1 0\n\n3 0 1 2\n3 0 2 3\n\n",
    "crlf": OFF_TEXT.replace("\n", "\r\n"),
    "colours": OFF_TEXT.replace("0 0 0\n", "0 0 0 0.5 0.5 0.5 1\n").replace(
        "3 0 1 2", "3 0 1 2 255 0 0").replace("3 0 2 3", "3 0 2 3 0.1 0.2 0.3 1.0"),
    "edge count": OFF_TEXT.replace("4 2 0", "4 2 5"),
    "no edge count": OFF_TEXT.replace("4 2 0", "4 2"),
    "trailing lines": OFF_TEXT + "3 0 1 3\nnot a face\n1 2\n",
    "lower-case header": OFF_TEXT.replace("OFF", "off"),
    "no final newline": OFF_TEXT.rstrip("\n"),
    "signed arity": OFF_TEXT.replace("3 0 1 2", "+3 0 1 2"),  # taken by the face walk
}


def _assert_square(faces):
    assert faces == SQUARE_FACES
    assert all(type(f) is tuple and all(type(p) is tuple for p in f) for f in faces)
    # one tuple per vertex index: vertices 0 and 2 are shared by both faces
    assert faces[0][0] is faces[1][0] and faces[0][2] is faces[1][1]
    assert len({id(p) for f in faces for p in f}) == 4


@pytest.mark.parametrize("name", sorted(OFF_VARIANTS))
def test_off_variants_give_the_square(name, tmp_path):
    text = OFF_VARIANTS[name]
    _assert_square(read_off(io.StringIO(text)))
    path = tmp_path / "square.off"
    path.write_bytes(text.encode())  # CRLF kept on disk, for the reader to translate
    _assert_square(read_off(path))
    _assert_square(read_off(str(path)))


def test_a_large_mesh_gives_the_generated_faces(tmp_path):
    rng = random.Random(29)
    coords = [[rng.uniform(-1e3, 1e3) for _ in range(3)] for _ in range(300)]
    idx = [[rng.randrange(300) for _ in range(3)] for _ in range(500)]
    lines = [" ".join(map(repr, v)) for v in coords] + ["3 " + " ".join(map(str, f)) for f in idx]
    path = tmp_path / "soup.off"
    path.write_text("\n".join(["OFF", "300 500 0", *lines]) + "\n")
    got = read_off(path)
    assert [[[c.hex() for c in p] for p in face] for face in got] == [
        [[c.hex() for c in coords[i]] for i in face] for face in idx]
    # one tuple per vertex index
    points = {i: p for face, tri in zip(idx, got) for i, p in zip(face, tri)}
    assert all(p is points[i] for face, tri in zip(idx, got) for i, p in zip(face, tri))
    assert len({id(p) for tri in got for p in tri}) == len(points)


# --- the per-token parser, kept as the reference for the one-pass parse ------

def _reference_floats(tokens, lineno):
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"not a number: {tok!r}", line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value: {tok!r}", line=lineno)
        values.append(value)
    return values


def _reference_pairs(lines):
    records = []
    for lineno, raw in enumerate(lines, start=1):
        hash_pos = raw.find("#")
        line = (raw[:hash_pos] if hash_pos >= 0 else raw).strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 18:
            raise ParseError(f"expected 18 numbers, got {len(tokens)}", line=lineno)
        v = _reference_floats(tokens, lineno)
        records.append(PairRecord(
            len(records),
            (tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])),
            (tuple(v[9:12]), tuple(v[12:15]), tuple(v[15:18]))))
    return records


def _number(rng):
    x = rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12)
    return rng.choice([repr(x), f"{x:e}", f"{x:.3E}", f"{x:+.17g}", "-0.0", "0", "-7",
                       repr(rng.randint(-640, 640) / 64)])


def _messy_pair_text(rng, count):
    """Pair lines with exponent forms, -0.0, tabs, CRLF ends, comments and blanks."""
    lines = []
    for _ in range(count):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# a comment line", "\t# tabbed comment"]))
        seps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in range(17)]
        line = _number(rng) + "".join(sep + _number(rng) for sep in seps)
        if rng.random() < 0.3:
            line += rng.choice(["  # note", "\t#", "#1 2 3"])
        lines.append(rng.choice(["", "\t", " "]) + line)
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def _assert_exact_types(records):
    for rec in records:
        assert type(rec) is PairRecord and type(rec.id) is int
        for tri in (rec.t1, rec.t2):
            assert type(tri) is tuple
            assert all(type(p) is tuple for p in tri)
            assert all(type(c) is float for p in tri for c in p)


def test_one_pass_parse_equals_the_per_token_parser(tmp_path):
    text = _messy_pair_text(random.Random(2024), 400)
    assert "\r\n" in text and "\t" in text and "e-" in text and "E+" in text
    assert "-0.0" in text and "#" in text
    want = [repr(r) for r in _reference_pairs(io.StringIO(text, newline=""))]
    got_lines = read_pairs(io.StringIO(text, newline=""))  # lines keep their \r\n
    path = tmp_path / "pairs.txt"
    path.write_bytes(text.encode("utf-8"))
    got_path = read_pairs(path)
    assert len(want) == 400
    assert [repr(r) for r in got_lines] == want
    assert [repr(r) for r in got_path] == want
    _assert_exact_types(got_lines)
    _assert_exact_types(got_path)


ROW = ["1", "2", "3", "4", "5", "6", "7", "8", "9"] * 2


def _line(tokens):
    return " ".join(tokens)


# a later fault, which the error does not name
@pytest.mark.parametrize("later", [_line(ROW), _line(ROW[:3]), _line(ROW[:5] + ["x"] + ROW[6:])])
@pytest.mark.parametrize("bad_line, message", [
    (_line(ROW[:17]), "expected 18 numbers, got 17"),
    (_line(ROW + ["1"]), "expected 18 numbers, got 19"),
    (_line(["x1"] + ROW[1:]), "not a number: 'x1'"),
    (_line(ROW[:17] + ["1..5"]), "not a number: '1..5'"),
    (_line(ROW[:5] + ["nan"] + ROW[6:]), "non-finite value: 'nan'"),
    (_line(ROW[:5] + ["inf"] + ROW[6:]), "non-finite value: 'inf'"),
    (_line(ROW[:17] + ["-inf"]), "non-finite value: '-inf'"),
    (_line(["1e999"] + ROW[1:]), "non-finite value: '1e999'"),
    (_line(ROW[:3] + ["inf"] + ROW[4:16] + ["oops", "1"]), "non-finite value: 'inf'"),
    (_line(ROW[:3] + ["oops"] + ROW[4:16] + ["inf", "1"]), "not a number: 'oops'"),
])
def test_pair_line_errors_keep_message_and_line(bad_line, message, later):
    lines = [_line(ROW), "# comment", "", bad_line + "  # trailing", later, _line(ROW)]
    with pytest.raises(ParseError) as got:
        read_pairs(io.StringIO("\n".join(lines)))
    with pytest.raises(ParseError) as want:
        _reference_pairs(lines)
    assert got.value.line == want.value.line == 4
    assert str(got.value) == str(want.value) == f"line 4: {message}"


@pytest.mark.parametrize("bad_vertex, message", [
    ("1", "vertex needs 3 coordinates"),
    ("x 0 0", "not a number: 'x'"),
    ("0 0 y", "not a number: 'y'"),
    ("0 nan 0", "non-finite value: 'nan'"),
    ("inf 0 0", "non-finite value: 'inf'"),
    ("0 0 -inf", "non-finite value: '-inf'"),
    ("0 1e999 0", "non-finite value: '1e999'"),
    ("0 0 0 nan", None),  # tokens past the third are not read
])
def test_off_vertex_errors_keep_message_and_line(bad_vertex, message):
    text = f"OFF\n# comment\n3 1 0\n0 0 0\n\n{bad_vertex}  # trailing\n0 1 0\n3 0 1 2\n"
    if message is None:
        assert read_off(io.StringIO(text)) == [((0, 0, 0), (0, 0, 0), (0, 1, 0))]
        return
    with pytest.raises(ParseError) as got:
        read_off(io.StringIO(text))
    assert got.value.line == 6
    assert str(got.value) == f"line 6: {message}"


def test_off_vertices_are_exact_tuples():
    faces = read_off(io.StringIO(OFF_TEXT.replace("1 1 0", "1e0\t1.0E0 -0.0")))
    assert repr(faces[0][2]) == "(1.0, 1.0, -0.0)"
    assert all(type(f) is tuple and all(type(p) is tuple for p in f) for f in faces)


# --- the chunked read ---------------------------------------------------------------

CHUNK = tritri.fileio._CHUNK_LINES
BAD_LINES = [
    (_line(ROW[:17]), "expected 18 numbers, got 17"),
    (_line(ROW + ["1"]), "expected 18 numbers, got 19"),
    (_line(ROW[:7] + ["1..5"] + ROW[8:]), "not a number: '1..5'"),
    (_line(ROW[:5] + ["nan"] + ROW[6:]), "non-finite value: 'nan'"),
    (_line(["-inf"] + ROW[1:]), "non-finite value: '-inf'"),
]


def _chunked_text(rng, count, commented_chunks=()):
    """``count`` lines: pair lines split by spaces, tabs, form feeds and vertical
    tabs, blank and whitespace-only lines, LF and CRLF ends; comment lines and
    trailing comments only in the chunks numbered in ``commented_chunks``."""
    lines = []
    for n in range(count):
        commented = n // CHUNK in commented_chunks
        if commented and n % CHUNK == 0:
            lines.append(f"# chunk {n // CHUNK}")
            continue
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "  ", "\t", "\f", " \v "]
                                    + (["# a comment line", "\t#"] if commented else [])))
            continue
        seps = [rng.choice([" ", "  ", "\t", "\f", " \v"]) for _ in range(17)]
        line = _number(rng) + "".join(sep + _number(rng) for sep in seps)
        if commented and rng.random() < 0.1:
            line += rng.choice(["  # note", "#1 2 3"])
        lines.append(rng.choice(["", "\t", " \f"]) + line)
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


@pytest.mark.parametrize("count, commented_chunks", [
    (0, ()), (1, ()), (CHUNK, ()), (CHUNK + 1, (1,)), (3 * CHUNK + 500, (1, 3)),
])
def test_chunked_read_equals_the_per_line_parser(tmp_path, count, commented_chunks):
    text = _chunked_text(random.Random(count), count, commented_chunks)
    assert text.count("\n") == count
    want = [repr(r) for r in _reference_pairs(io.StringIO(text, newline=""))]
    got_stream = read_pairs(io.StringIO(text, newline=""))  # lines keep their \r\n
    path = tmp_path / "pairs.txt"
    path.write_bytes(text.encode("utf-8"))
    got_path = read_pairs(path)
    assert [repr(r) for r in got_stream] == [repr(r) for r in got_path] == want
    assert [r.id for r in got_path] == list(range(len(want)))
    _assert_exact_types(got_path)
    # the comments change nothing: the same text with them stripped gives the same records
    stripped = re.sub(r"#[^\r\n]*", "", text)
    assert ("#" in text) == bool(commented_chunks) and "#" not in stripped
    assert [repr(r) for r in read_pairs(io.StringIO(stripped, newline=""))] == want


@pytest.mark.parametrize("line", [
    _line(ROW) + "#",  # 18 numbers: the last token is "9#"
    _line(ROW[:17]) + " #9",  # 17 numbers and a comment
    "#" + _line(ROW),  # a comment line of 18 tokens
])
def test_a_comment_in_an_18_token_row_is_a_comment(line):
    text = (_line(ROW) + "\n") * 100 + line + "\n" + (_line(ROW) + "\n") * 100
    try:
        want = [repr(r) for r in _reference_pairs(io.StringIO(text))]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_pairs(io.StringIO(text))
        assert (got.value.line, str(got.value)) == (exc.line, str(exc)) == (101, "line 101: expected 18 numbers, got 17")
    else:
        assert [repr(r) for r in read_pairs(io.StringIO(text))] == want
        assert len(want) in (200, 201)


@functools.cache
def _error_test_lines(commented):
    text = _chunked_text(random.Random(7), 3 * CHUNK + 500, (1, 3) if commented else ())
    return tuple(io.StringIO(text, newline="").readlines())  # splitlines would split at \f and \v


@pytest.mark.parametrize("later", [_line(ROW[:3]), _line(ROW[:5] + ["x"] + ROW[6:])])
@pytest.mark.parametrize("commented", [False, True])
@pytest.mark.parametrize("where", ["first of a chunk", "middle chunk", "last of a chunk", "last chunk"])
@pytest.mark.parametrize("bad_line, message", BAD_LINES)
def test_chunked_read_raises_the_per_line_error(commented, where, bad_line, message, later):
    lines = list(_error_test_lines(commented))
    lineno = {"first of a chunk": CHUNK + 1, "middle chunk": CHUNK + 300,
              "last of a chunk": 2 * CHUNK, "last chunk": 3 * CHUNK + 400}[where]
    lines[lineno - 1] = "\t" + bad_line + "\r\n"
    lines[lineno + 5] = later + "\n"  # a later error is not the one raised
    text = "".join(lines)
    with pytest.raises(ParseError) as got:
        read_pairs(io.StringIO(text, newline=""))
    with pytest.raises(ParseError) as want:
        _reference_pairs(io.StringIO(text, newline=""))
    assert got.value.line == want.value.line == lineno
    assert str(got.value) == str(want.value) == f"line {lineno}: {message}"


# --- the collector pause ---------------------------------------------------------

class _WatchedLines(io.StringIO):
    """A text stream that records whether the collector ran while it was read."""

    def __init__(self, text):
        super().__init__(text)
        self.collector_seen = set()

    def __iter__(self):
        for line in self.read().splitlines(keepends=True):
            self.collector_seen.add(gc.isenabled())
            yield line

    def readlines(self, hint=-1):
        return list(self)


@pytest.mark.parametrize("reader, text", [
    (read_pairs, PAIR_LINE + "\n" + PAIR_LINE + "\n"),
    (read_off, OFF_TEXT),
    (read_pairs, PAIR_LINE + "\n1 2 3\n"),  # a ParseError
    (read_off, "OFF\n1 0 0\n0 0 0\n"),  # EmptyMesh
])
def test_readers_pause_the_collector_and_restore_it(reader, text):
    assert gc.isenabled()
    stream = _WatchedLines(text)
    try:
        reader(stream)
    except (ParseError, EmptyMesh):
        pass
    assert stream.collector_seen == {False}
    assert gc.isenabled()
    gc.disable()
    try:
        try:
            reader(_WatchedLines(text))
        except (ParseError, EmptyMesh):
            pass
        assert not gc.isenabled()  # a caller's own pause is kept
    finally:
        gc.enable()


def test_reading_runs_no_collector_pass():
    """Not during the parse, and not on the way out while the records are alive."""
    text = "".join(PAIR_LINE + "\n" for _ in range(2000))
    passes = []

    def count(phase, info):
        passes.append(phase)

    gc.collect()
    gc.callbacks.append(count)
    try:
        records = read_pairs(io.StringIO(text))
    finally:
        gc.callbacks.remove(count)
    assert len(records) == 2000 and passes == []


def test_collector_pause_nests():
    assert gc.isenabled()
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    pause = collector_paused()  # one instance, as a decorator reuses it
    with pause:
        with pause:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("restored on the way out")
    assert gc.isenabled()
