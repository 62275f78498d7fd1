"""Exact opcode counts of kernel functions, from ``sys.settrace`` opcode events.

Timings on a shared host drift; the number of bytecodes a function
executes does not.  Counting every opcode executed while a target
function is on the stack (its callees included) gives a per-call work
figure that repeats exactly for the same inputs and the same code.
"""

import importlib
import sys

# (module, function) -> boundary name; a function a later version drops counts 0
TARGETS = (
    ("tritri.intersect", "intersect", "intersect.intersect"),
    ("tritri.lineplane", "project_triangle_edges", "lineplane.project_triangle_edges"),
    ("tritri.clip2d", "clip_segment_to_triangle", "clip2d.clip_segment_to_triangle"),
    ("tritri.coplanar", "intersect_coplanar", "coplanar.intersect_coplanar"),
)


def count_opcodes(pairs, tol) -> dict:
    """{boundary: (calls, opcodes)} over ``intersect(t1, t2, tol)`` for each pair.

    Raises whatever ``intersect`` raises other than its documented input
    errors, so the caller can count the pair as failed.
    """
    from tritri.errors import DegenerateTriangle, NonFiniteInput

    codes = {}
    for module_name, name, boundary in TARGETS:
        fn = getattr(importlib.import_module(module_name), name, None)
        if fn is not None and hasattr(fn, "__code__"):
            codes[fn.__code__] = boundary
    calls = dict.fromkeys(codes.values(), 0)
    ops = dict.fromkeys(codes.values(), 0)
    depth = dict.fromkeys(codes.values(), 0)
    active = []  # boundaries with a frame on the stack

    def local(frame, event, arg):
        if event == "opcode":
            for boundary in active:
                ops[boundary] += 1
        elif event == "return":
            boundary = codes.get(frame.f_code)
            if boundary is not None:
                depth[boundary] -= 1
                if not depth[boundary]:
                    active.remove(boundary)
        return local

    def on_call(frame, event, arg):
        boundary = codes.get(frame.f_code)
        if boundary is not None:
            calls[boundary] += 1
            if not depth[boundary]:
                active.append(boundary)
            depth[boundary] += 1
        frame.f_trace_opcodes = True
        return local

    intersect = importlib.import_module("tritri.intersect").intersect
    sys.settrace(on_call)
    try:
        for t1, t2 in pairs:
            try:
                intersect(t1, t2, tol)
            except (DegenerateTriangle, NonFiniteInput):
                pass
    finally:
        sys.settrace(None)
    return {b: (calls[b], ops[b]) for b in codes.values()}
