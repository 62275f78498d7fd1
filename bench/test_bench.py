"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest bench/test_bench.py

Checks the output contract against BENCHMARK.json, and that the
correctness check catches a record stream corrupted on purpose.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _cli_stream(inputs, tmp_path):
    from tritri.cli import main

    for name, text in inputs.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = [a if a not in inputs.files else str(tmp_path / a) for a in inputs.cli_args]
    out = tmp_path / "out.jsonl"
    assert main([*args, "--output", str(out)]) == 0
    return out.read_bytes()


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] >= 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert "failed_share=" in proc.stdout.splitlines()[-3]


def test_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        a = workload.build(random.Random(11), True)
        b = workload.build(random.Random(11), True)
        c = workload.build(random.Random(12), True)
        assert a.files == b.files
        assert a.files != c.files


def test_corrupted_pair_stream_fails_the_check(tmp_path):
    inputs = WORKLOADS["pair_mix"].build(random.Random(5), True)
    stream = _cli_stream(inputs, tmp_path)
    clean = check.check_stream(inputs, stream, None, random.Random(0))
    assert not clean.problems and clean.failed == 0 and clean.checked == inputs.candidates

    lines = stream.splitlines(keepends=True)
    assert check.check_stream(inputs, b"".join(lines[1:]), None, random.Random(0)).problems
    assert check.check_stream(inputs, b"".join(lines[:3]) + b"{oops\n" + b"".join(lines[4:]),
                              None, random.Random(0)).problems

    record = json.loads(lines[0])
    record["case"] = ("touch_point" if record["case"] == "crossing_planes_no_contact"
                      else "crossing_planes_no_contact")
    lines[0] = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    relabelled = check.check_stream(inputs, b"".join(lines), None, random.Random(0))
    assert relabelled.failed == 1 and relabelled.failures[0].startswith("0: ")


def test_corrupted_mesh_stream_fails_the_check(tmp_path):
    inputs = WORKLOADS["mesh_self"].build(random.Random(5), True)
    stream = _cli_stream(inputs, tmp_path)
    lines = stream.splitlines(keepends=True)
    summary = {"pairs": inputs.candidates, "emitted": len(lines)}
    assert not check.check_stream(inputs, stream, summary, random.Random(0)).problems
    assert check.check_stream(inputs, b"".join(lines[1:]), summary, random.Random(0)).problems
    swapped = b"".join([lines[1], lines[0], *lines[2:]])
    assert check.check_stream(inputs, swapped, summary, random.Random(0)).problems


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "pair_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
