import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import sys

import pytest

import tritri.cli
from tritri.cli import CONTACT_CASES, _record_json, main, run_meshes, run_pairs
from tritri.core import DEFAULT_TOLERANCE
from tritri.errors import DegenerateTriangle
from tritri.fileio import read_pairs
from tritri.intersect import CaseLabel
from tritri.oracle import oracle_intersect

from conftest import height_field, mixed_pairs, off_text

CROSSING = "0 0 0  4 0 0  0 4 0   1 1 -1  1 1 2  3 3 2"
PARALLEL = "0 0 0  4 0 0  0 4 0   0 0 1  4 0 1  0 4 1"
DEGENERATE = "0 0 0  1 1 1  2 2 2   0 0 0  4 0 0  0 4 0"
# a mixed pair translated by 1e7
FAR_FROM_ORIGIN = ("10000004.4375 9999995.15625 9999997.453125  "
                   "9999999.75 9999998.296875 9999991.375  "
                   "9999992.59375 9999991.46875 10000004.796875  "
                   "9999998.96875 10000006.59375 10000007.09375  "
                   "10000005.078125 10000000.96875 9999994.640625  "
                   "9999996.25 9999992.125 10000003.203125")

SQUARE_OFF = """\
OFF
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""

POKER_OFF = """\
OFF
3 1 0
0.6 0.3 -1
0.7 0.2 1
0.9 0.1 1
3 0 1 2
"""

FAR_OFF = """\
OFF
3 1 0
50 50 50
51 50 50
50 51 50
3 0 1 2
"""


def _pair_line(t1, t2):
    return " ".join(repr(c) for tri in (t1, t2) for v in tri for c in v)


def _write_pairs(path, pairs):
    path.write_text("".join(_pair_line(t1, t2) + "\n" for t1, t2 in pairs))


def _assert_counts_add_up(summary):
    assert summary["pairs"] == (sum(summary["cases"].values()) + summary["skipped"]
                                + summary["culled"])
    assert summary["skipped"] == sum(summary["skipped_by"].values())


def test_run_pairs_keeps_order_and_counts():
    records = read_pairs(io.StringIO("\n".join([CROSSING, PARALLEL, DEGENERATE, CROSSING])))
    results, summary = run_pairs(records, DEFAULT_TOLERANCE)
    # a record per pair the kernel did not skip, and the skipped pair counted
    assert [(rid, case) for rid, case, _, _ in results] == [
        (0, "crossing_segment"), (1, "parallel_planes"), (3, "crossing_segment")]
    assert summary["pairs"] == 4
    assert summary["emitted"] == 3
    assert summary["skipped"] == 1
    assert summary["skipped_by"] == {"DegenerateTriangle": 1}
    assert summary["cases"] == {"crossing_segment": 2, "parallel_planes": 1}


def test_pair_mode_records_are_plain_tuples():
    records = read_pairs(io.StringIO("\n".join([CROSSING, PARALLEL, DEGENERATE])))
    for timing in (False, True):
        results, _ = run_pairs(records, DEFAULT_TOLERANCE, timing=timing)
        assert len(results) == 2
        assert all(type(rec) is tuple and len(rec) == 4 for rec in results)
        assert all((type(us) is int) if timing else us is None for _, _, _, us in results)
    assert all(type(rec) is tuple and len(rec) == 3 for rec in records)


def test_mesh_mode_keeps_only_the_records_it_writes(monkeypatch):
    # a terraced field against itself: flat neighbours are coplanar, and
    # most candidate pairs are not contacts, which are counted, not kept
    calls = []
    kernel = tritri.cli.intersect

    def counted(t1, t2, tol):
        calls.append(1)
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", counted)
    rng = random.Random(2020)
    field = height_field([[rng.randint(0, 3) / 3 for _ in range(9)] for _ in range(9)])
    records, summary = run_meshes(field, field, DEFAULT_TOLERANCE)
    assert len(records) == summary["emitted"] > 0
    assert len(records) < len(calls) == sum(summary["cases"].values())
    assert {case for _, case, _, _ in records} <= CONTACT_CASES
    assert summary["cases"].keys() - CONTACT_CASES  # cases that were counted only


def test_pair_mode_end_to_end(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    src.write_text(f"{CROSSING}\n# comment\n{PARALLEL}\n{DEGENERATE}\n")
    out = tmp_path / "records.jsonl"
    assert main(["pair", "--input", str(src), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # the degenerate pair is skipped
    first = json.loads(lines[0])
    assert first["id"] == 0 and first["case"] == "crossing_segment"
    assert len(first["points"]) == 2
    assert "us" not in first
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == 3 and summary["emitted"] == 2 and summary["skipped"] == 1


def test_pair_far_from_origin_does_not_end_the_run(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    src.write_text(f"{CROSSING}\n{FAR_FROM_ORIGIN}\n{CROSSING}\n")
    out = tmp_path / "records.jsonl"
    assert main(["pair", "--input", str(src), "--output", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    ((_, t1, t2),) = read_pairs(io.StringIO(FAR_FROM_ORIGIN))
    want = oracle_intersect(t1, t2).label.value
    assert [(r["id"], r["case"]) for r in records] == [
        (0, "crossing_segment"), (1, want), (2, "crossing_segment")]
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == 3 and summary["skipped"] == 0
    assert summary["skipped_by"] == {}
    _assert_counts_add_up(summary)


def test_geometry_error_in_the_kernel_counts_as_skipped(monkeypatch):
    kernel = tritri.cli.intersect

    def failing_on_parallel(t1, t2, tol):
        if t2[0][2] == 1:
            raise DegenerateTriangle("triangle area below tolerance")
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", failing_on_parallel)
    records = read_pairs(io.StringIO("\n".join([CROSSING, PARALLEL, CROSSING])))
    results, summary = run_pairs(records, DEFAULT_TOLERANCE)
    assert [(rid, case) for rid, case, _, _ in results] == [
        (0, "crossing_segment"), (2, "crossing_segment")]
    assert summary["skipped"] == 1 and summary["emitted"] == 2
    assert summary["skipped_by"] == {"DegenerateTriangle": 1}
    _assert_counts_add_up(summary)


def test_pair_mode_stdout_default(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    src.write_text(CROSSING + "\n")
    assert main(["pair", "--input", str(src)]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out.strip())
    assert record["case"] == "crossing_segment"


def test_timing_flag_adds_us(tmp_path):
    src = tmp_path / "pairs.txt"
    src.write_text(CROSSING + "\n")
    out = tmp_path / "records.jsonl"
    assert main(["pair", "--input", str(src), "--output", str(out), "--timing"]) == 0
    record = json.loads(out.read_text())
    assert isinstance(record["us"], int) and record["us"] >= 0


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    _write_pairs(src, mixed_pairs(random.Random(17), 60))
    outputs = []
    for run in range(3):
        out = tmp_path / f"out{run}.jsonl"
        assert main(["pair", "--input", str(src), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_commented_crlf_copy_gives_the_same_records(tmp_path, capsys):
    """Over several read chunks: comment lines, trailing comments, blank lines, CRLF ends."""
    lines = [_pair_line(t1, t2) for t1, t2 in mixed_pairs(random.Random(23), 2500)]
    clean = tmp_path / "clean.txt"
    clean.write_text("".join(line + "\n" for line in lines))
    messy_lines = ["# a copy with comments"]
    for k, line in enumerate(lines):
        if k % 97 == 0:
            messy_lines += ["", f"# pair {k}", "\t"]
        messy_lines.append(line + ("  # note" if k % 13 == 0 else ""))
    messy = tmp_path / "messy.txt"
    messy.write_bytes("".join(line + "\r\n" for line in messy_lines).encode("utf-8"))
    outputs = []
    for src in (clean, messy):
        out = tmp_path / f"{src.stem}.jsonl"
        assert main(["pair", "--input", str(src), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 1000


def test_parse_failure_exits_1(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    src.write_text("1 2 3\n")
    assert main(["pair", "--input", str(src)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["path", "stream"])
@pytest.mark.parametrize("mode", ["pair", "mesh"])
def test_an_undecodable_byte_is_a_parse_failure(tmp_path, capsys, monkeypatch, mode, via):
    good = CROSSING + "\n" if mode == "pair" else SQUARE_OFF
    data = good.encode() + b"# caf\xff\n" + good.encode()
    if via == "path":
        src = tmp_path / "input"
        src.write_bytes(data)
        name = str(src)
    elif mode == "pair":  # stdin
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        name = "-"
    else:  # a pipe, opened by its /dev/fd path
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        name = f"/dev/fd/{read_end}"
    other = tmp_path / "square.off"
    other.write_text(SQUARE_OFF)
    out = tmp_path / "records.jsonl"
    argv = ["pair", "--input", name] if mode == "pair" else ["mesh", name, str(other)]
    try:
        assert main([*argv, "--output", str(out)]) == 1
    finally:
        if via == "stream" and mode == "mesh":
            os.close(read_end)
    # mesh mode names the file, since it reads two
    where = "" if mode == "pair" else f"{name}: "
    assert capsys.readouterr().err == f"error: {where}not utf-8 text: byte 0xff\n"
    assert not out.exists()  # no record written


def test_a_mesh_parse_error_names_its_file(tmp_path, capsys):
    good, bad = tmp_path / "good.off", tmp_path / "bad.off"
    good.write_text(SQUARE_OFF)
    bad.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n3 0 1 2\n")
    assert main(["mesh", str(good), str(bad), "--output", str(tmp_path / "o.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 6: vertex index 7 out of range\n"


def test_a_mesh_read_from_stdin_gives_the_stream_of_its_file(tmp_path, monkeypatch):
    mesh_a, mesh_b = tmp_path / "a.off", tmp_path / "b.off"
    mesh_a.write_text(off_text(height_field([[0, 1, 0], [1, 2, 1], [0, 1, 0]])))
    mesh_b.write_text(off_text(height_field([[1, 0, 1], [0, 2, 0], [1, 0, 1]], offset=(0.5, 0.5, 0))))
    from_files, from_stdin = tmp_path / "files.jsonl", tmp_path / "stdin.jsonl"
    assert main(["mesh", str(mesh_a), str(mesh_b), "--output", str(from_files)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(mesh_a.read_text()))
    assert main(["mesh", "-", str(mesh_b), "--output", str(from_stdin)]) == 0
    assert from_files.read_text() and from_stdin.read_text() == from_files.read_text()


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["pair", "--input", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_refused_eps_is_a_usage_error(capsys):
    # one check, --eps's conversion, however the value is spelled
    refused = ("nan", "inf", "-inf", "0", "-1", "-1e-9", "abc")
    argvs = [["pair", f"--eps={eps}"] for eps in refused]
    argvs += [["pair", "--eps", eps] for eps in refused]
    for argv in argvs:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: tritri pair ")
        assert err.splitlines()[-1].startswith("tritri pair: error: argument --eps: "), argv


def test_a_refused_value_names_what_its_option_accepts(capsys):
    # argparse builds the message from the conversion's __name__
    for argv, want in ((["pair", "--eps", "0"], "argument --eps: invalid positive finite float "
                                                "value: '0'"),
                       (["pair", "--jobs", "2"], "argument --jobs: invalid job count (only 1) "
                                                 "value: '2'")):
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().err.splitlines()[-1] == f"tritri pair: error: {want}"


def test_summary_splits_the_run_into_phases(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    _write_pairs(src, mixed_pairs(random.Random(5), 40))
    mesh = tmp_path / "a.off"
    mesh.write_text(SQUARE_OFF)
    out = str(tmp_path / "records.jsonl")
    for argv in (["pair", "--input", str(src)], ["mesh", str(mesh), str(mesh)]):
        assert main([*argv, "--output", out]) == 0
        summary = json.loads(capsys.readouterr().err.strip())
        phases = [summary[k] for k in ("parse_us", "elapsed_us", "emit_us", "total_us")]
        assert all(type(us) is int and us >= 0 for us in phases)
        assert summary["total_us"] >= sum(phases[:3]) - 3  # each phase is rounded
        # preparing the faces and the broad phase, a part of the compute phase
        assert type(summary["candidates_us"]) is int
        assert 0 <= summary["candidates_us"] <= summary["elapsed_us"]
        if argv[0] == "pair":
            assert summary["candidates_us"] == 0


def test_all_degenerate_exits_2(tmp_path, capsys):
    src = tmp_path / "pairs.txt"
    src.write_text(DEGENERATE + "\n" + DEGENERATE + "\n")
    assert main(["pair", "--input", str(src), "--output",
                 str(tmp_path / "o.jsonl")]) == 2
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["skipped"] == 2 and summary["emitted"] == 0
    assert summary["skipped_by"] == {"DegenerateTriangle": 2}


def test_mesh_mode_emits_contacts_only(tmp_path, capsys):
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(SQUARE_OFF)
    mesh_b.write_text(POKER_OFF)
    out = tmp_path / "contacts.jsonl"
    assert main(["mesh", str(mesh_a), str(mesh_b), "--output", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["id"] == [0, 0]
    assert records[0]["case"] in CONTACT_CASES
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == 2 and summary["emitted"] == 1


def test_mesh_mode_disjoint_meshes_empty_stream(tmp_path, capsys):
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(SQUARE_OFF)
    mesh_b.write_text(FAR_OFF)
    out = tmp_path / "contacts.jsonl"
    assert main(["mesh", str(mesh_a), str(mesh_b), "--output", str(out)]) == 0
    assert out.read_text() == ""
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == 2 and summary["emitted"] == 0 and summary["culled"] == 2


def test_mesh_against_itself_skips_diagonal(tmp_path, capsys):
    mesh = tmp_path / "a.off"
    mesh.write_text(SQUARE_OFF)
    out = tmp_path / "contacts.jsonl"
    assert main(["mesh", str(mesh), str(mesh), "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().err.strip())
    # two faces sharing the diagonal: one (0, 1) test, no self-pairs
    assert summary["pairs"] == 1


def test_a_mesh_named_twice_is_parsed_once(tmp_path, capsys, monkeypatch):
    mesh = tmp_path / "a.off"
    mesh.write_text(SQUARE_OFF)
    other = tmp_path / "b.off"
    other.write_text(SQUARE_OFF)
    out = str(tmp_path / "contacts.jsonl")
    parse = tritri.cli.read_off
    reads = []

    def counted(path):
        reads.append(path)
        return parse(path)

    monkeypatch.setattr(tritri.cli, "read_off", counted)
    # the same file, also when spelled differently, is read once and run as one mesh
    for second in (mesh, tmp_path / "." / "a.off"):
        reads.clear()
        assert main(["mesh", str(mesh), str(second), "--output", out]) == 0
        assert reads == [str(mesh)]
        assert json.loads(capsys.readouterr().err.strip())["pairs"] == 1
    reads.clear()
    assert main(["mesh", str(mesh), str(other), "--output", out]) == 0
    assert reads == [str(mesh), str(other)]
    assert json.loads(capsys.readouterr().err.strip())["pairs"] == 4


def test_mesh_summary_counts_every_candidate(tmp_path, capsys):
    ramp = height_field([[0.0] * 5, [1.0] * 5])  # 8 faces along y
    collinear = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(off_text(ramp + [collinear]))
    mesh_b.write_text(POKER_OFF)
    out = str(tmp_path / "contacts.jsonl")

    assert main(["mesh", str(mesh_a), str(mesh_b), "--output", out]) == 0
    summary = json.loads(capsys.readouterr().err.strip())
    # the poker reaches only the two faces of the first cell
    assert summary["pairs"] == 9 and summary["skipped"] == 1 and summary["culled"] == 6
    assert summary["skipped_by"] == {"DegenerateTriangle": 1}
    _assert_counts_add_up(summary)

    assert main(["mesh", str(mesh_a), str(mesh_a), "--output", out]) == 0
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == 36 and summary["skipped"] == 8 and summary["culled"] > 0
    assert summary["skipped_by"] == {"DegenerateTriangle": 8}
    _assert_counts_add_up(summary)


def test_all_degenerate_mesh_exits_2(tmp_path, capsys):
    # collinear faces far apart: no box overlaps, yet every pair is skipped
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(off_text([((0, 0, 0), (1, 1, 1), (2, 2, 2))]))
    mesh_b.write_text(off_text([((50, 50, 50), (51, 51, 51), (52, 52, 52)),
                                ((60, 0, 0), (61, 0, 0), (62, 0, 0))]))
    out = str(tmp_path / "contacts.jsonl")
    assert main(["mesh", str(mesh_a), str(mesh_b), "--output", out]) == 2
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == summary["skipped"] == 2 and summary["culled"] == 0
    assert summary["skipped_by"] == {"DegenerateTriangle": 2}
    assert main(["mesh", str(mesh_b), str(mesh_b), "--output", out]) == 2
    summary = json.loads(capsys.readouterr().err.strip())
    assert summary["pairs"] == summary["skipped"] == 1
    assert summary["skipped_by"] == {"DegenerateTriangle": 1}


def test_mesh_output_is_byte_identical_across_runs(tmp_path, capsys):
    rng = random.Random(23)

    def heights():
        return [[rng.randint(0, 2) / 2 for _ in range(6)] for _ in range(6)]

    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(off_text(height_field(heights())))
    mesh_b.write_text(off_text(height_field(heights(), offset=(0.25, 0.5, 0.25))))
    for meshes in ((mesh_a, mesh_b), (mesh_a, mesh_a)):
        outputs = []
        for run in range(2):
            out = tmp_path / f"out{run}.jsonl"
            assert main(["mesh", *map(str, meshes), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] and outputs[0] == outputs[1]


# SHA-256 of the record streams of the three runs below, recorded when plane
# distances moved to the triangle's first vertex (the two-mesh stream, whose
# first triangle comes from one file and second from another, was recorded
# later, on the same code).  A change that alters records on purpose updates
# these and says so in CHANGES.md.
PAIR_MIX_DIGEST = "172190c28fa132c8289c996697672fa0d292985da00f06d5d427f4b453084977"
HEIGHT_FIELD_DIGEST = "5fe4bca648abf1708a6f73504668ba42e4630c4581ac109795449170cbbc7a9a"
TWO_FIELDS_DIGEST = "778d92a4ca15e49f5c7ca4508ab257566464dee1421a006b598d59e80c6bf8b4"


def test_record_streams_match_the_recorded_digests(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(_pair_line(t1, t2) + "\n" for t1, t2 in mixed_pairs(random.Random(1010), 2000)))
    rng = random.Random(2020)
    heights = [[rng.randint(0, 3) / 3 for _ in range(9)] for _ in range(9)]
    field, moved = tmp_path / "field.off", tmp_path / "moved.off"
    field.write_text(off_text(height_field(heights)))
    moved.write_text(off_text(height_field(heights, offset=(0.25, 0.5, 0.0))))
    digests = []
    for args in (["pair", "--input", str(pairs)], ["mesh", str(field), str(field)],
                 ["mesh", str(field), str(moved)]):
        out = tmp_path / "out.jsonl"
        assert main([*args, "--output", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    summary = json.loads(capsys.readouterr().err.splitlines()[-1])
    # the terraces overlap flat and cross on the slopes
    assert {"coplanar_contour", "crossing_segment"} <= summary["cases"].keys()
    assert digests == [PAIR_MIX_DIGEST, HEIGHT_FIELD_DIGEST, TWO_FIELDS_DIGEST]


def test_output_path_in_a_missing_directory_exits_1_before_any_pair(tmp_path, capsys, monkeypatch):
    calls = []
    kernel = tritri.cli.intersect

    def counted(t1, t2, tol):
        calls.append(1)
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", counted)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(CROSSING + "\n")
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(SQUARE_OFF)
    mesh_b.write_text(POKER_OFF)
    out = str(tmp_path / "missing" / "records.jsonl")
    for argv in (["pair", "--input", str(pairs)], ["mesh", str(mesh_a), str(mesh_b)]):
        assert main([*argv, "--output", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert calls == []
        assert main(argv) == 0  # the same run with a writable output computes
        assert calls
        calls.clear()
        capsys.readouterr()


def test_jobs_other_than_1_is_refused(tmp_path, capsys, monkeypatch):
    calls = []
    kernel = tritri.cli.intersect

    def counted(t1, t2, tol):
        calls.append(1)
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", counted)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(CROSSING + "\n")
    mesh_a = tmp_path / "a.off"
    mesh_b = tmp_path / "b.off"
    mesh_a.write_text(SQUARE_OFF)
    mesh_b.write_text(POKER_OFF)
    for argv in (["pair", "--input", str(pairs)], ["mesh", str(mesh_a), str(mesh_b)]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert calls == []
        assert main([*argv, "--jobs", "1"]) == 0  # the one accepted value computes
        assert calls
        calls.clear()
        capsys.readouterr()


def _positive_finite(value: str) -> float:
    eps = float(value)
    if not 0.0 < eps < float("inf"):
        raise ValueError(value)
    return eps


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before it parsed its own command line.

    Its --eps refuses what ``Tolerance`` refuses, as the CLI's does.
    """
    parser = argparse.ArgumentParser(prog="tritri",
                                     description="triangle-triangle intersection batch driver")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--eps", type=_positive_finite, default=DEFAULT_TOLERANCE.eps_dist,
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


# the values each option is given, after '=' or as the next token
VALUES = {
    "--input": ["pairs.txt", "-", "", "-x.txt"],
    "--eps": ["1e-6", "0.25", "1_0", "nan", "inf", "0", "abc", "", "-1", "-1e-9", "-0.5", "-inf"],
    "--jobs": ["1", "2", "01", "+1", "x", "1.0"],
    "--output": ["out.jsonl", "-", "-x.jsonl"],
}
MESHES = ["a.off", "b.off", "-", "-1"]
UNKNOWN = ["--bogus", "--bogus=1", "-x", "-e", "--epsilon", "--timings", "---"]
# argparse takes '--' as a prefix of every option, so this is ambiguous to it
AMBIGUOUS = "--=1"
HELP = ["-h", "--help", "--h", "--hel"]


def _random_argv(rng: random.Random) -> list[str]:
    """A command line of the CLI's grammar, often with one mistake or more in it."""
    mode = rng.choice(["pair", "mesh", "foo", None])
    units: list[list[str]] = []
    for _ in range(rng.randint(0, 3)):
        name = rng.choice([*VALUES, "--timing"])
        spelled = name[:rng.randint(3, len(name))] if rng.random() < 0.4 else name
        if name == "--timing":
            units.append([spelled + "=x"] if rng.random() < 0.1 else [spelled])
        elif rng.random() < 0.5:
            units.append([spelled, rng.choice(VALUES[name])])
        else:
            units.append([f"{spelled}={rng.choice(VALUES[name])}"])
    count = rng.choice([0, 0, 0, 1] if mode == "pair" else [1, 2, 2, 2, 2, 3])
    units += [[rng.choice(MESHES)] for _ in range(count)]
    if rng.random() < 0.1:
        units.append([rng.choice(UNKNOWN)])
    rng.shuffle(units)
    if mode is not None:
        units.insert(0, [mode])
    if rng.random() < 0.05:
        units.append([AMBIGUOUS])
    if rng.random() < 0.2:
        units.insert(rng.randint(0, len(units)), [rng.choice(HELP)])
    if rng.random() < 0.05:
        units.insert(rng.randint(0, len(units)), ["--"])  # the end of the options
    if rng.random() < 0.05:
        units.append([rng.choice(list(VALUES))])  # its value missing
    return [token for unit in units for token in unit]


def _outcome(parse, argv):
    """``parse(argv)``'s values as a dict, NaN as "nan", or the code of its ``SystemExit``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = parse(argv)
        except SystemExit as exc:
            return exc.code
    values = parsed if isinstance(parsed, dict) else vars(parsed)
    return {k: v if v == v else "nan" for k, v in values.items()}


def test_the_parser_agrees_with_the_argparse_reference(monkeypatch):
    reference = _reference_parser()
    parse_by_argparse = tritri.cli._argparse
    slow = []
    monkeypatch.setattr(tritri.cli, "_argparse", lambda argv: slow.append(argv)
                        or parse_by_argparse(argv))
    rng = random.Random(30)
    outcomes = []
    for _ in range(3000):
        argv = _random_argv(rng)
        want = _outcome(reference.parse_args, argv)
        assert _outcome(tritri.cli._parse_args, argv) == want, argv
        outcomes.append(want if isinstance(want, int) else want["mode"])
    # every outcome is drawn often: a parse of either mode, help, a usage error;
    # and both the parse of a plain command line and argparse's
    assert all(outcomes.count(o) > 100 for o in ("pair", "mesh", 0, 2)), outcomes
    assert 100 < len(slow) < 2900, len(slow)


# each mode's help, byte for byte: argparse renders it from the rows at 80 columns
HELP_TEXT = {
    "pair": """\
usage: tritri pair [-h] [--input INPUT] [--eps EPS] [--jobs {1}]
                   [--output OUTPUT] [--timing]

options:
  -h, --help       show this help message and exit
  --input INPUT    pair file, one pair per line, '-' for stdin (default stdin)
  --eps EPS        distance tolerance (default 1e-09)
  --jobs {1}       runs are serial; only 1 is accepted
  --output OUTPUT  record stream (default stdout)
  --timing         add a per-record 'us' field (breaks byte-identical output)
""",
    "mesh": """\
usage: tritri mesh [-h] [--eps EPS] [--jobs {1}] [--output OUTPUT] [--timing]
                   mesh_a mesh_b

positional arguments:
  mesh_a           OFF mesh, '-' for stdin
  mesh_b           OFF mesh, '-' for stdin

options:
  -h, --help       show this help message and exit
  --eps EPS        distance tolerance (default 1e-09)
  --jobs {1}       runs are serial; only 1 is accepted
  --output OUTPUT  record stream (default stdout)
  --timing         add a per-record 'us' field (breaks byte-identical output)
""",
}


def test_each_mode_prints_its_help_text(capsys):
    for mode, text in HELP_TEXT.items():
        with pytest.raises(SystemExit) as exit_info:
            main([mode, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == text


def _help_options(mode, capsys) -> dict:
    """The long options ``tritri MODE --help`` prints, each with its metavar (None for a flag)."""
    with pytest.raises(SystemExit) as exit_info:
        main([mode, "--help"])
    assert exit_info.value.code == 0
    return dict(re.findall(r"^  (--[a-z]+)(?: (\S+))?", capsys.readouterr().out, re.M))


def test_each_mode_parses_what_its_help_lists_and_refuses_the_others(capsys):
    # the help and the parser come from one table; neither may list or take
    # an option the other does not
    samples = {"--input": "pairs.txt", "--eps": "1e-6", "--jobs": "1", "--output": "out.jsonl"}
    meshes = {"pair": [], "mesh": ["a.off", "b.off"]}
    listed = {mode: _help_options(mode, capsys) for mode in meshes}
    refused = []
    for mode, other in (("pair", "mesh"), ("mesh", "pair")):
        assert listed[mode]
        for name, metavar in listed[mode].items():
            value = [samples[name]] if metavar else []
            args = tritri.cli._parse_args([mode, name, *value, *meshes[mode]])
            assert args["mode"] == mode and name[2:] in args, name
        for name in listed[other].keys() - listed[mode].keys():
            value = [samples[name]] if listed[other][name] else []
            argv = [mode, name, *value, *meshes[mode]]
            assert _outcome(tritri.cli._parse_args, argv) == 2, argv
            refused.append(argv)
    assert ["mesh", "--input", "pairs.txt", "a.off", "b.off"] in refused


def test_serial_mesh_run_keeps_one_frame_at_a_time(monkeypatch):
    rng = random.Random(61)
    faces = height_field([[rng.randint(0, 3) / 3 for _ in range(7)] for _ in range(7)])
    other = height_field([[rng.randint(0, 3) / 3 for _ in range(7)] for _ in range(7)],
                         offset=(0.25, 0.5, 0.0))
    kernel = tritri.cli.intersect
    seen = {}
    holding = []

    def watched(t1, t2, tol):
        holding.append(sum(p._frame_window is not None for p in seen.values()))
        seen[id(t1)] = t1
        seen[id(t2)] = t2
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", watched)
    for b in (faces, other):
        seen.clear()
        holding.clear()
        run_meshes(faces, b, DEFAULT_TOLERANCE)
        assert len(holding) > 2 * len(faces)  # many first faces come and go
        assert max(holding) == 1


def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys, monkeypatch):
    src = tmp_path / "pairs.txt"
    src.write_text(CROSSING + "\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    kernel = tritri.cli.intersect
    seen = set()

    def watched(t1, t2, tol):
        seen.add(gc.isenabled())
        return kernel(t1, t2, tol)

    monkeypatch.setattr(tritri.cli, "intersect", watched)
    runs = ((["pair", "--input", str(src)], 0),
            (["pair", "--input", str(bad)], 1),
            (["pair", "--input", str(tmp_path / "nope.txt")], 1))
    for was_enabled in (True, False):
        if not was_enabled:
            gc.disable()
        try:
            for argv, code in runs:
                assert main([*argv, "--output", str(tmp_path / "out.jsonl")]) == code
                assert gc.isenabled() is was_enabled
        finally:
            gc.enable()
    assert seen == {False}
    capsys.readouterr()


def test_the_batch_leaves_no_cyclic_garbage(tmp_path):
    """What lets the CLI pause the collector: reference counting frees the whole batch."""
    rng = random.Random(41)
    lines = [_pair_line(t1, t2) for t1, t2 in mixed_pairs(rng, 300)] + [DEGENERATE, FAR_FROM_ORIGIN]
    records = read_pairs(io.StringIO("\n".join(lines)))
    src = tmp_path / "pairs.txt"
    src.write_text("\n".join(lines) + "\n")
    field = height_field([[rng.randint(0, 3) / 3 for _ in range(6)] for _ in range(6)])
    gc.disable()
    try:
        gc.collect()
        results, summary = run_pairs(records, DEFAULT_TOLERANCE, timing=True)
        assert summary["skipped_by"] == {"DegenerateTriangle": 1}
        mesh_results, mesh_summary = run_meshes(field, field, DEFAULT_TOLERANCE)
        assert mesh_summary["emitted"] > 0
        del results, mesh_results
        assert gc.collect() == 0
        # the whole command, argument parsing included
        assert main(["pair", "--input", str(src), "--output", str(tmp_path / "out.jsonl")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("rec", [
    (0, "crossing_segment", ((-0.0, 5e-324, 1e300), (0.1, -2.5, 1e-7)), None),
    (7, "touch_point", ((float("inf"), 0.0, 1.0),), None),
    (8, "touch_point", ((float("-inf"), float("nan"), 1.0),), None),
    ((3, 12), "coplanar_contour", ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.5)), None),
    ((0, 1), "touch_point", ((float("inf"), 2.0, 3.0),), 5),
    (3, "parallel_planes", (), None),
    (4, "crossing_segment", ((1.0, 2.0, 3.0), (1e16, -1e-16, 123456789.0)), 0),
])
def test_record_json_equals_json_dumps(rec):
    rid, case, points, us = rec
    payload = {
        "id": list(rid) if isinstance(rid, tuple) else rid,
        "case": case,
        "points": [list(p) for p in points],
    }
    if us is not None:
        payload["us"] = us
    assert _record_json(rec) == json.dumps(payload, separators=(",", ":"))


@pytest.mark.parametrize("label", list(CaseLabel))
def test_every_case_label_is_written_as_json_dumps_writes_it(label):
    rec = (1, label.value, (), None)
    assert _record_json(rec) == f'{{"id":1,"case":{json.dumps(label.value)},"points":[]}}'


def test_the_summary_line_is_what_json_dumps_writes(tmp_path, capsys):
    # the CLI writes its summary without json; each line must read back and
    # be written again by json.dumps to the same bytes
    src = tmp_path / "pairs.txt"
    src.write_text(f"{CROSSING}\n{PARALLEL}\n{DEGENERATE}\n")
    collinear = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    mesh_a, mesh_b = tmp_path / "a.off", tmp_path / "b.off"
    mesh_a.write_text(off_text(height_field([[0.0] * 5, [1.0] * 5]) + [collinear]))
    mesh_b.write_text(POKER_OFF)
    out = str(tmp_path / "o.jsonl")
    for argv in (["pair", "--input", str(src)], ["mesh", str(mesh_a), str(mesh_b)]):
        assert main([*argv, "--output", out]) == 0
        line = capsys.readouterr().err
        summary = json.loads(line)
        assert summary["skipped_by"] == {"DegenerateTriangle": 1}
        assert line == json.dumps(summary, separators=(",", ":")) + "\n"
    # no time elapsed: pairs_per_s is None, written null
    summary = tritri.cli._summarize({}, {"DegenerateTriangle": 3}, emitted=0, elapsed=0.0)
    summary.update(parse_us=0, emit_us=0, total_us=1)
    assert summary["pairs_per_s"] is None
    assert tritri.cli._json(summary) == json.dumps(summary, separators=(",", ":"))
