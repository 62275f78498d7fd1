"""Traced CLI run: spans at the layer boundaries, aggregated in memory.

Run as ``python3 bench/tracing.py STATS_JSON -- CLI_ARGS...`` with the
package on PYTHONPATH.  It wraps the names that ``tritri.cli``,
``tritri.intersect`` and ``tritri.coplanar`` call, in the namespace of the
calling module, so the package itself is not edited; then it runs
``tritri.cli.main`` and writes one aggregate per boundary to STATS_JSON.

Modules are looked up with ``importlib``: ``import tritri.intersect as m``
would bind the function that ``tritri/__init__.py`` re-exports, not the
module.  A boundary whose name a later version of the package no longer
calls is skipped and reports zero calls.

A span's self time is its duration minus the time of the wrapped spans it
encloses.  Durations go into log-spaced histograms (32 buckets an octave,
about 2% wide), so memory stays bounded however many pairs the run has.
"""

import importlib
import json
import math
import sys
import time
from pathlib import Path

# (calling module, name it calls, boundary)
BOUNDARIES = (
    ("tritri.cli", "main", "cli.main"),
    ("tritri.cli", "read_pairs", "fileio.read_pairs"),
    ("tritri.cli", "read_off", "fileio.read_off"),
    ("tritri.cli", "run_pairs", "cli.run_pairs"),
    ("tritri.cli", "run_meshes", "cli.run_meshes"),
    ("tritri.cli", "intersect", "intersect.intersect"),
    ("tritri.intersect", "plane_from_triangle", "core.plane_from_triangle"),
    ("tritri.intersect", "classify_planes", "core.classify_planes"),
    ("tritri.intersect", "closest_point_on_plane", "core.closest_point_on_plane"),
    ("tritri.intersect", "build_frame", "frame.build_frame"),
    ("tritri.intersect", "to_plane", "frame.to_plane"),
    ("tritri.intersect", "from_plane", "frame.from_plane"),
    ("tritri.intersect", "project_triangle_edges", "lineplane.project_triangle_edges"),
    ("tritri.intersect", "Triangle2", "clip2d.Triangle2"),
    ("tritri.intersect", "clip_segment_to_triangle", "clip2d.clip_segment_to_triangle"),
    ("tritri.intersect", "point_in_triangle", "clip2d.point_in_triangle"),
    ("tritri.intersect", "intersect_coplanar", "coplanar.intersect_coplanar"),
    ("tritri.coplanar", "trace_contour", "coplanar.trace_contour"),
)
BUCKETS_PER_OCTAVE = 32


class Span:
    """Aggregate of every span at one boundary (or of one intersect label)."""

    __slots__ = ("calls", "self_ns", "raised", "hist")

    def __init__(self):
        self.calls = self.self_ns = self.raised = 0
        self.hist = {}

    def add(self, dt: int) -> None:
        self.calls += 1
        bucket = int(math.log2(dt) * BUCKETS_PER_OCTAVE) if dt > 0 else 0
        self.hist[bucket] = self.hist.get(bucket, 0) + 1

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns, "raised": self.raised,
                "hist": self.hist}


def quantile_us(hist: dict, q: float) -> float:
    """Quantile of a bucket histogram, at the bucket's geometric midpoint, in µs."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank, seen = q * total, 0
    for bucket in sorted(hist, key=int):
        seen += hist[bucket]
        if seen >= rank:
            return 2.0 ** ((int(bucket) + 0.5) / BUCKETS_PER_OCTAVE) / 1e3
    return 0.0


class Tracer:
    """Wraps boundary names and keeps the per-boundary aggregates."""

    def __init__(self):
        self.spans = {}
        self.labels = {}  # intersect.<label> -> Span of intersect calls with that label
        self._child_ns = [0]  # per open span: time covered by its wrapped children

    def wrap(self, fn, boundary: str):
        span = self.spans.setdefault(boundary, Span())
        stack = self._child_ns
        clock = time.perf_counter_ns
        by_label = self.labels if boundary == "intersect.intersect" else None

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dt = clock() - start
                child = stack.pop()
                stack[-1] += dt
                span.self_ns += dt - child
                span.add(dt)
            if by_label is not None:
                by_label.setdefault(out[0].value, Span()).add(dt)
            return out

        return traced

    def install(self) -> None:
        for module_name, name, boundary in BOUNDARIES:
            module = importlib.import_module(module_name)
            self.spans.setdefault(boundary, Span())
            if hasattr(module, name):
                setattr(module, name, self.wrap(getattr(module, name), boundary))

    def stats(self) -> dict:
        return {"spans": {k: s.as_dict() for k, s in self.spans.items()},
                "labels": {k: s.as_dict() for k, s in self.labels.items()}}


def main(argv) -> int:
    stats_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        print("usage: tracing.py STATS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 64
    tracer = Tracer()
    tracer.install()
    try:
        return importlib.import_module("tritri.cli").main(cli_args)
    finally:
        Path(stats_path).write_text(json.dumps(tracer.stats()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
