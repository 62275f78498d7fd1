"""Benchmark of the tritri batch CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

NAME is one of ``workloads.WORKLOADS``.  The seed makes the input files;
the CLI (``python3 -m tritri ... --jobs 1``, from this checkout's ``src``)
receives only those files, one child process per run.

--trace 0 measures the end-to-end metrics for S seconds: pairs decided per
second of CLI wall time (spawn to exit), set-up time (a fresh interpreter
that imports tritri and parses the input) and the child's peak RSS.  Times
are scaled by the speed probe in ``measure.py``.

--trace 1 alternates untraced CLI runs with runs under ``tracing.py`` for S
seconds and reports the per-layer split, the tracing overhead, and exact
opcode counts of the kernel on a fixed sample of the workload.

Either way the record stream is checked, untimed, by ``check.py``.  The
last stdout line is the result object ``{"correct", "attempted", "failed",
"metrics"}``: ``attempted`` counts the pairs checked against the oracle and
``failed`` those that failed, so failed / attempted is ``failed_share``.
The line before it carries the run's metadata, and the one before that a
readable summary with units.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import measure
import opcount
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_MIN_REPS = 7
SETUP_SECONDS = 2.0  # short set-ups repeat until this much time has passed
MIN_CLI_REPS = 3
OPCODE_SAMPLE = 500

END_TO_END = {"pairs_per_s": "pairs/s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_BOUNDARIES = tuple(b for _, _, b in tracing.BOUNDARIES if b != "coplanar.trace_contour")
PERCENTILE_BOUNDARIES = ("lineplane.project_triangle_edges", "clip2d.clip_segment_to_triangle",
                         "coplanar.intersect_coplanar")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for b in LAYER_BOUNDARIES:
        units[f"{b}.calls_per_pair"] = "calls/pair"
        units[f"{b}.self_us_per_pair"] = "us/pair"
        if b in PERCENTILE_BOUNDARIES:
            units[f"{b}.us_p50"] = "us"
            units[f"{b}.us_p99"] = "us"
    for label in sorted(check.CASES):
        units[f"intersect.{label}.us_p50"] = "us"
        units[f"intersect.{label}.us_p99"] = "us"
    units["cli.kernel_calls_per_pair"] = "calls/pair"
    units["cli.contact_yield"] = "share"
    units["coplanar.fallback_share"] = "share"
    units["trace.overhead_share"] = "ratio"
    for _, _, t in opcount.TARGETS:
        units[f"{t}.opcodes_per_call"] = "opcodes/call"
    return units


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _summary(stderr_path: Path):
    """The CLI's JSON summary: the last stderr line, or None."""
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


class Bench:
    """One benchmark run of one workload, in its own work directory."""

    def __init__(self, inputs, work: Path, seed: int):
        self.inputs = inputs
        self.work = work
        self.seed = seed
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(SRC)
        self.runner = measure.Runner(work, env)
        self.cli_args = [*inputs.cli_args, "--jobs", "1", "--output", "out.jsonl"]
        self.streams = []  # record stream of every CLI run
        self.summary = None  # the first CLI run's stderr summary
        self.crashed = False
        self.problems = []
        self.meta = {}

    def _cli_run(self, prefix):
        out = self.work / "out.jsonl"
        out.unlink(missing_ok=True)
        run = self.runner.run([*prefix, *self.cli_args], self.work / "stdout.txt",
                              self.work / "stderr.txt")
        self.streams.append(out.read_bytes() if out.exists() else b"")
        if self.summary is None:
            self.summary = _summary(self.work / "stderr.txt")
        if run.exit_code != 0:
            self.crashed = True
            tail = (self.work / "stderr.txt").read_text(errors="replace")[-400:]
            self.problems.append(f"CLI exited {run.exit_code}: {tail}")
        return run

    def setup_times(self) -> list:
        """Scaled set-up seconds: a fresh interpreter imports tritri and parses the input."""
        files = [a for a in self.inputs.cli_args if a in self.inputs.files]
        reader = "read_pairs" if self.inputs.mode == "pair" else "read_off"
        code = (f"import sys, tritri; from tritri.fileio import {reader}\n"
                f"for f in sys.argv[1:]: {reader}(f)")
        argv = [sys.executable, "-c", code, *files]
        times = []
        warm = True  # the first run fills the bytecode cache and is not counted
        start = time.perf_counter()
        while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SECONDS:
            run = self.runner.run(argv, self.work / "stdout.txt", self.work / "stderr.txt")
            if run.exit_code != 0:
                self.problems.append(f"set-up child exited {run.exit_code}")
                break
            if not warm:
                times.append(run.scaled_s)
            warm = False
        return times

    def end_to_end(self, seconds: float) -> dict:
        setup = self.setup_times()
        cli = [sys.executable, "-m", "tritri"]
        rates, rss = [], []
        start = time.perf_counter()
        while not self.crashed and (len(rates) < MIN_CLI_REPS
                                    or time.perf_counter() - start < seconds):
            run = self._cli_run(cli)
            rates.append(self.inputs.candidates / run.scaled_s)
            rss.append(run.maxrss_kib / 1024.0)
        self.meta["setup_reps"] = len(setup)
        self.meta["cli_reps"] = len(rates)
        return {
            "pairs_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mib": statistics.median(rss),
        }

    def per_layer(self, seconds: float) -> dict:
        stats_path = self.work / "trace.json"
        plain = [sys.executable, "-m", "tritri"]
        traced = [sys.executable, str(BENCH / "tracing.py"), str(stats_path), "--"]
        per_run = []
        start = time.perf_counter()
        while not self.crashed and (not per_run or time.perf_counter() - start < seconds):
            untraced_run = self._cli_run(plain)
            traced_run = self._cli_run(traced)
            if self.crashed:
                break
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            metrics = self._layer_metrics(stats, traced_run.scale)
            metrics["trace.overhead_share"] = traced_run.scaled_s / untraced_run.scaled_s
            per_run.append(metrics)
        self.meta["traced_runs"] = len(per_run)
        layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]} if per_run else {}
        layer.update(self._opcode_metrics())
        return layer

    def _layer_metrics(self, stats: dict, scale: float) -> dict:
        n = self.inputs.candidates
        spans, labels = stats["spans"], stats["labels"]
        out = {}
        for b in LAYER_BOUNDARIES:
            span = spans[b]
            out[f"{b}.calls_per_pair"] = span["calls"] / n
            out[f"{b}.self_us_per_pair"] = span["self_ns"] / 1e3 * scale / n
            if b in PERCENTILE_BOUNDARIES:
                out[f"{b}.us_p50"] = tracing.quantile_us(span["hist"], 0.50) * scale
                out[f"{b}.us_p99"] = tracing.quantile_us(span["hist"], 0.99) * scale
        for label in sorted(check.CASES):
            hist = labels.get(label, {}).get("hist", {})
            out[f"intersect.{label}.us_p50"] = tracing.quantile_us(hist, 0.50) * scale
            out[f"intersect.{label}.us_p99"] = tracing.quantile_us(hist, 0.99) * scale
        kernel_calls = spans["intersect.intersect"]["calls"]
        contacts = sum(labels.get(c, {}).get("calls", 0) for c in check.CONTACT_CASES)
        contour = spans["coplanar.trace_contour"]
        out["cli.kernel_calls_per_pair"] = kernel_calls / n
        out["cli.contact_yield"] = contacts / kernel_calls if kernel_calls else 0.0
        out["coplanar.fallback_share"] = (contour["raised"] / contour["calls"]
                                          if contour["calls"] else 0.0)
        return out

    def _opcode_metrics(self) -> dict:
        from tritri.core import Tolerance

        rng = random.Random(self.seed * 7919 + 1)
        sample = sorted(rng.sample(range(self.inputs.candidates),
                                   min(OPCODE_SAMPLE, self.inputs.candidates)))
        pairs = [self.inputs.pair(self.inputs.candidate(k)) for k in sample]
        eps = Tolerance().eps_dist  # the CLI's tolerance at its default --eps
        try:
            counts = opcount.count_opcodes(pairs, Tolerance(eps_dist=eps, eps_param=eps))
        except Exception as exc:  # a kernel error on the sample is a correctness finding
            self.problems.append(f"opcode sample raised {type(exc).__name__}: {exc}")
            counts = {}
        self.meta["opcode_sample"] = len(pairs)
        return {f"{t}.opcodes_per_call": counts[t][1] / counts[t][0]
                if counts.get(t, (0, 0))[0] else 0.0
                for _, _, t in opcount.TARGETS}

    def check(self) -> check.CheckResult:
        """Check the first stream; a CLI that exits non-zero fails every pair of the run."""
        if self.crashed:
            n = self.inputs.candidates
            return check.CheckResult(checked=n, failed=n)
        if any(s != self.streams[0] for s in self.streams[1:]):
            self.problems.append("record streams differ between runs")
        result = check.check_stream(self.inputs, self.streams[0], self.summary,
                                    random.Random(self.seed * 7919))
        self.problems += result.problems
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.build(random.Random(seed), small)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for fname, text in inputs.files.items():
            (work / fname).write_text(text, encoding="utf-8")
        bench = Bench(inputs, work, seed)
        if trace:
            metrics, units = bench.per_layer(seconds), per_layer_units()
        else:
            metrics, units = bench.end_to_end(seconds), END_TO_END
        result = bench.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    runs = bench.runner.runs
    meta = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "small": small, "candidates": inputs.candidates,
        "records": len(bench.streams[0].splitlines()) if bench.streams else 0,
        "cli_summary": bench.summary,
        "failed_share": {"value": result.failed / max(1, result.checked), "unit": "share"},
        "failures": result.failures, "problems": bench.problems,
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "python": platform.python_version(), "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "probe_ref_s": measure.PROBE_REF_S,
        "probe_mean_s": [statistics.fmean(r.probes_s) for r in runs],
        "probes": [len(r.probes_s) for r in runs],
        "wall_s": [r.wall_s for r in runs],
        "scaled_s": [r.scaled_s for r in runs],
        **bench.meta,
    }
    return {
        "meta": meta,
        "result": {
            "correct": not bench.problems,
            "attempted": max(1, result.checked),
            "failed": result.failed,
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
        },
    }


def _human(out: dict) -> str:
    meta, res = out["meta"], out["result"]
    shown = {**res["metrics"], "failed_share": meta["failed_share"]}
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items()]
    verdict = "correct" if res["correct"] else "INCORRECT: " + "; ".join(meta["problems"])
    return (f"{meta['workload']} seed={meta['seed']}: " + "  ".join(parts)
            + f"  ({res['failed']} of {res['attempted']} checked pairs failed; {verdict})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "tritri" / "cli.py").is_file():
        print(f"error: no tritri package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # the oracle and the opcode count import the checkout's package
    sys.path.insert(0, str(SRC))
    measure.pin_to_one_cpu()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        print(_human(out))
        print(json.dumps({"meta": out["meta"]}))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
