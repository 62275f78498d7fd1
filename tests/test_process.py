"""The CLI as a whole process: ``python -m tritri`` and the installed command.

Both run ``tritri.cli.entry_point``, which ends the process by ``os._exit``
once ``main`` has returned and the streams are flushed.  These tests run it
in a child interpreter and hold its records, exit codes and stderr to those
of ``main`` called in process.
"""

import ast
import codecs
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tritri.cli
from tritri.cli import main

from conftest import height_field, mixed_pairs, off_text

SRC = Path(tritri.cli.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"
DEGENERATE = "0 0 0  1 1 1  2 2 2   0 0 0  4 0 0  0 4 0\n"
TIMING_FIELDS = {"elapsed_us", "candidates_us", "pairs_per_s", "parse_us", "emit_us", "total_us"}


def _child(argv, stdout=subprocess.PIPE, stdin=None) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``argv``, with no ``PYTHON*`` setting but the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *argv], stdin=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def _pair_file(path, pairs):
    path.write_text("".join(" ".join(repr(c) for tri in pair for v in tri for c in v) + "\n"
                            for pair in pairs))
    return path


def _in_process(args, capsys, monkeypatch):
    """``main(args)``'s exit code, stdout and stderr; ``main`` must not end the process."""
    def refuse(code):
        raise AssertionError(f"main called os._exit({code})")

    monkeypatch.setattr(os, "_exit", refuse)
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _untimed(stderr: str) -> dict:
    """The summary, the last stderr line, without its timing fields."""
    summary = json.loads(stderr.splitlines()[-1])
    return {k: v for k, v in summary.items() if k not in TIMING_FIELDS}


@pytest.fixture
def inputs(tmp_path):
    pairs = _pair_file(tmp_path / "pairs.txt", mixed_pairs(random.Random(41), 60))
    with pairs.open("a") as f:
        f.write(DEGENERATE)
    rng = random.Random(43)
    heights = [[rng.randint(0, 2) / 2 for _ in range(6)] for _ in range(6)]
    field, moved = tmp_path / "field.off", tmp_path / "moved.off"
    field.write_text(off_text(height_field(heights)))
    moved.write_text(off_text(height_field(heights, offset=(0.25, 0.5, 0.25))))
    return {"pair": ["pair", "--input", str(pairs)], "mesh": ["mesh", str(field), str(moved)]}


@pytest.mark.parametrize("mode", ["pair", "mesh"])
def test_the_process_writes_what_main_writes(mode, inputs, tmp_path, capsys, monkeypatch):
    args = inputs[mode]
    want = tmp_path / "want.jsonl"
    code, _, err = _in_process([*args, "--output", str(want)], capsys, monkeypatch)
    assert code == 0 and want.read_bytes()

    to_stdout = _child(["-m", "tritri", *args])
    assert to_stdout.returncode == 0
    assert to_stdout.stdout == want.read_bytes()
    got = tmp_path / "got.jsonl"
    to_file = _child(["-m", "tritri", *args, "--output", str(got)])
    assert to_file.returncode == 0 and to_file.stdout == b""
    assert got.read_bytes() == want.read_bytes()
    for run in (to_stdout, to_file):
        assert _untimed(run.stderr.decode()) == _untimed(err)


def test_a_byte_order_mark_opening_an_input_is_dropped(inputs, tmp_path):
    # the last argument of each mode is an input file; read with a mark, from
    # its path and from stdin, it gives the records it gives without one
    for args in inputs.values():
        plain = _child(["-m", "tritri", *args])
        assert plain.returncode == 0 and plain.stdout
        marked = tmp_path / f"bom-{Path(args[-1]).name}"
        marked.write_bytes(codecs.BOM_UTF8 + Path(args[-1]).read_bytes())
        from_path = _child(["-m", "tritri", *args[:-1], str(marked)])
        with marked.open("rb") as stdin:
            from_stdin = _child(["-m", "tritri", *args[:-1], "-"], stdin=stdin)
        for run in (from_path, from_stdin):
            assert run.returncode == 0, run.stderr
            assert run.stdout == plain.stdout
            assert _untimed(run.stderr.decode()) == _untimed(plain.stderr.decode())


def test_the_process_exits_as_main_returns(inputs, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    degenerate = tmp_path / "degenerate.txt"
    degenerate.write_text(DEGENERATE * 2)
    cases = [
        (1, ["pair", "--input", str(bad)]),
        (1, ["pair", "--input", str(tmp_path / "missing.txt")]),
        (1, ["mesh", str(tmp_path / "missing.off"), str(tmp_path / "missing.off")]),
        (2, ["pair", "--input", str(degenerate)]),
        (2, [*inputs["pair"], "--jobs", "2"]),
        (2, [*inputs["mesh"], "--jobs", "2"]),
        (2, []),
        (2, ["mesh", "a.off"]),
        (0, ["--help"]),
        (0, ["pair", "--help"]),
        (0, ["mesh", "--help"]),
    ]
    for code, args in cases:
        want_code, want_out, want_err = _in_process(args, capsys, monkeypatch)
        assert want_code == code, args
        run = _child(["-m", "tritri", *args])
        assert run.returncode == code, args
        assert run.stdout.decode() == want_out, args  # help text, or nothing
        if want_err.startswith("{"):  # the summary of a run whose every pair was skipped
            assert _untimed(run.stderr.decode()) == _untimed(want_err)
        else:  # an error or a usage message, with no timing in it
            assert run.stderr.decode() == want_err, args
        if not args:  # no mode: the program's usage line
            assert want_err.startswith("usage: tritri [-h] {pair,mesh} ...\n")


def _into_a_closed_pipe(tmp_path, count) -> subprocess.CompletedProcess:
    """``tritri pair`` on ``count`` pairs, its stdout a pipe whose read end is closed."""
    pairs = _pair_file(tmp_path / "pairs.txt", mixed_pairs(random.Random(47), count))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _child(["-m", "tritri", "pair", "--input", str(pairs)], stdout=write_end)
    finally:
        os.close(write_end)


def test_a_closed_pipe_on_stdout_exits_1_with_one_line(tmp_path):
    # enough records to outgrow stdout's buffer, so the write fails inside main
    run = _into_a_closed_pipe(tmp_path, 1000)
    assert run.returncode == 1
    assert run.stderr == b"error: [Errno 32] Broken pipe\n"


def test_records_that_fit_the_buffer_fail_on_a_closed_pipe_as_well(tmp_path):
    # 3 records fit in stdout's buffer, so only main's flush of them reaches
    # the pipe; a failure there is main's error too, not one at exit
    run = _into_a_closed_pipe(tmp_path, 3)
    assert run.returncode == 1
    assert run.stderr == b"error: [Errno 32] Broken pipe\n"


def test_the_module_run_skips_finalization(inputs, tmp_path):
    # run ``tritri.__main__`` as ``-m`` does, under an atexit handler: the
    # handler runs only on a normal exit, which --help still takes
    code = ("import atexit, runpy, sys\n"
            "atexit.register(print, 'finalized', file=sys.stderr)\n"
            "runpy.run_module('tritri', run_name='__main__', alter_sys=True)\n")
    out = tmp_path / "records.jsonl"
    run = _child(["-c", code, *inputs["mesh"], "--output", str(out)])
    assert run.returncode == 0 and out.read_bytes()
    assert "finalized" not in run.stderr.decode()
    assert json.loads(run.stderr.decode().splitlines()[-1])["emitted"]
    helped = _child(["-c", code, "--help"])
    assert helped.returncode == 0
    assert helped.stderr.decode() == "finalized\n"


def _main_module_target() -> str:
    """``module:function`` of the call that ``tritri/__main__.py`` makes."""
    tree = ast.parse((SRC / "tritri" / "__main__.py").read_text(encoding="utf-8"))
    origin = {alias.asname or alias.name: f"tritri.{node.module}:{alias.name}"
              for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names}
    calls = [node.value.func.id for node in tree.body
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)]
    assert len(calls) == 1
    return origin[calls[0]]


def test_the_installed_command_runs_what_the_module_runs():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml beside the package: not a source checkout")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["tritri"] == _main_module_target() == "tritri.cli:entry_point"
