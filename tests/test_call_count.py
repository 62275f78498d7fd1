"""Python-level calls per ``intersect``, counted exactly with ``sys.setprofile``.

The kernel's cost per pair is mostly calls: each Python-level call costs
more than the float arithmetic of a side line or a vertex code.  The count
is exact, so it holds on any host.  The steps ``bench/tracing.py`` wraps
must stay calls looked up in their module's globals, or their rows would
read 0.
"""

import importlib
import random
import sys

from tritri.cli import main
from tritri.intersect import intersect

from conftest import height_field, mixed_pairs, off_text

MAX_CALLS_PER_PAIR = 6
TRACED = {
    "tritri.intersect": ("project_triangle_edges", "clip_segment_to_triangle", "intersect_coplanar"),
    "tritri.cli": ("intersect", "read_pairs", "read_off", "run_pairs", "run_meshes"),
}


def _calls(t1, t2) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        intersect(t1, t2)
    finally:
        sys.setprofile(None)
    return calls


def test_intersect_makes_at_most_six_calls_per_pair():
    counts = [_calls(t1, t2) for t1, t2 in mixed_pairs(random.Random(11), 1000)]
    assert max(counts) <= MAX_CALLS_PER_PAIR, (max(counts), sum(counts) / len(counts))


def _counting(monkeypatch, module_name) -> list:
    """Wrap the traced names of a module as the tracer does; the list records every call."""
    module = importlib.import_module(module_name)  # tritri.intersect is also a function's name
    calls = []
    for name in TRACED[module_name]:
        step = getattr(module, name)

        def wrapped(*args, _step=step, _name=name, **kwargs):
            calls.append(_name)
            return _step(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_the_kernel_steps_are_calls_through_module_globals(monkeypatch):
    pairs = mixed_pairs(random.Random(5), 200)
    want = [repr(intersect(t1, t2)) for t1, t2 in pairs]
    calls = _counting(monkeypatch, "tritri.intersect")
    assert [repr(intersect(t1, t2)) for t1, t2 in pairs] == want
    assert set(calls) == set(TRACED["tritri.intersect"])


def test_the_cli_steps_are_calls_through_module_globals(monkeypatch, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(" ".join(repr(float(x)) for t in pair for v in t for x in v) + "\n"
                             for pair in mixed_pairs(random.Random(3), 20)))
    mesh = tmp_path / "a.off"
    mesh.write_text(off_text(height_field([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])))
    calls = _counting(monkeypatch, "tritri.cli")
    assert main(["pair", "--input", str(pairs), "--output", str(tmp_path / "p.jsonl")]) == 0
    assert main(["mesh", str(mesh), str(mesh), "--output", str(tmp_path / "m.jsonl")]) == 0
    assert set(calls) == set(TRACED["tritri.cli"])
