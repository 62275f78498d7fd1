"""Wall-clock measurement of child processes, corrected for host speed drift.

On shared hosts a virtual CPU flips between a fast and a slow state (about
1.7x apart) every second or so, independently of the other CPUs, which
swamps the differences the benchmark must resolve.  So the benchmark pins
itself and its children to one CPU, and while a child runs a probe thread
on that CPU times a short fixed piece of kernel-like Python every
``PROBE_GAP_S`` (the child is niced, so the probe gets the CPU at once).
The probes sample the speed the child saw; a run's time is reported as

    (wall - probe time) * mean(PROBE_REF_S / probe)

i.e. the time the run would have taken at the nominal speed where one probe
takes ``PROBE_REF_S``.  On a 2-vCPU shared VM a calibration loop timed only
before and after each run tracked the drift worse than no correction at all.  The raw wall seconds
and probe statistics travel with every result.
"""

import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

PROBE_ITERS = 300  # about 1.3 ms a probe on a 2020s x86 core
PROBE_GAP_S = 0.025  # pause between probes: about 5% of the CPU goes to probing
PROBE_REF_S = 0.0013  # nominal probe time the scaled figures refer to
CHILD_NICE = 10


class _P(NamedTuple):
    x: float
    y: float
    z: float


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _plane(t):
    n = _cross(_sub(t[1], t[0]), _sub(t[2], t[0]))
    nn = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    q, w, u = n[0] / nn, n[1] / nn, n[2] / nn
    return q, w, u, -(q * t[0][0] + w * t[0][1] + u * t[0][2])


def _side(p, pl):
    return pl[0] * p[0] + pl[1] * p[1] + pl[2] * p[2] + pl[3]


_TRIS = [t for t in (tuple(_P((i * 7 + k * 3) % 11 - 5.0, (i * 5 + k) % 13 - 6.0,
                              (i + k * 11) % 7 - 3.0) for k in range(3)) for i in range(64))
         if any(_cross(_sub(t[1], t[0]), _sub(t[2], t[0])))]


def probe(iters: int = PROBE_ITERS) -> float:
    """Seconds a fixed piece of kernel-like work takes right now.

    Calls, tuple and NamedTuple building and float arithmetic, as in the
    kernel; a bare arithmetic loop reacts differently to the host's states.
    """
    start = time.thread_time()  # CPU time: a probe preempted by the child does not look slow
    hits = []
    n = len(_TRIS)
    for i in range(iters):
        a, b = _TRIS[i % n], _TRIS[(i * 7 + 3) % n]
        pl = _plane(a)
        d = [_side(v, pl) for v in b]
        if min(d) < 0.0 < max(d):
            hits.append(_P(*(x * 0.5 for x in b[0])))
    return time.thread_time() - start


@dataclass(frozen=True)
class ChildRun:
    wall_s: float  # spawn to exit
    probes_s: tuple  # probe times taken while the child ran
    exit_code: int
    maxrss_kib: int  # the child's own peak RSS, from wait4

    @property
    def scaled_s(self) -> float:
        speed = statistics.fmean(PROBE_REF_S / p for p in self.probes_s)
        return (self.wall_s - sum(self.probes_s)) * speed

    @property
    def scale(self) -> float:
        """Factor that turns a time measured inside this run into reference time."""
        return self.scaled_s / self.wall_s


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Runner:
    """Runs children one at a time, each sampled by the probe."""

    def __init__(self, cwd, env):
        self.cwd = cwd
        self.env = env
        self.runs: list[ChildRun] = []

    def run(self, argv, stdout_path, stderr_path) -> ChildRun:
        samples = []
        done = threading.Event()

        def sample():
            while not done.is_set():
                samples.append(probe())
                done.wait(PROBE_GAP_S)

        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                os.setpriority(os.PRIO_PROCESS, proc.pid, CHILD_NICE)
            except ProcessLookupError:
                pass  # already gone; wait4 still reaps it
            sampler = threading.Thread(target=sample)
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                done.set()
                sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = ChildRun(wall, tuple(samples), proc.returncode, usage.ru_maxrss)
        self.runs.append(run)
        return run
