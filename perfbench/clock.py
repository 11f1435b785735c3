"""Timing of child processes against a machine-speed yardstick.

On a shared two-CPU machine the speed of pure-Python code drifts between
regimes that last from seconds to tens of seconds and differ by 30% or
more (the load of neighbouring tenants), so raw times of identical runs
spread wider than any useful regression bound. The yardstick is a fixed
pure-Python kernel of the same kinds of arithmetic the workloads spend their
time on, kept in the benchmark so that no change to ``src/`` can move it.

``Clock.run`` pins itself and the child to one CPU, and every
``SAMPLE_EVERY_S`` of the child's run stops the child (SIGSTOP), times one
pass of the yardstick, and resumes it (SIGCONT), so the readings follow the
speed of that CPU through the run. The stopped intervals are
taken out of the child's wall time. The child's times are then scaled by
``REFERENCE_S`` over the mean yardstick reading around and during the run:
seconds at the speed the machine had when the reference was taken.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

SAMPLE_EVERY_S = 0.5

# About one yardstick pass on the 2-vCPU x86-64 container (CPython 3.11.7)
# where the baseline was measured, in its faster regime: scaled times are
# seconds at that speed.
REFERENCE_S = 0.040


def chain():
    """The residue engine's second-order chain, mod a 26-bit modulus (as in
    dense scans) and a 37-bit one (as in sparse mirror lookups)."""
    for x in (49_995_001, 129_600_359_999):
        prev, cur = 0, 1
        for j in range(1, 60_001):
            prev, cur = cur, ((j + 2) * (cur - prev)) % x
    return cur


def fraction():
    """Continued fractions over Fraction, as in the theorem1 suite."""
    total = Fraction(0)
    for m in range(3, 27):
        value = Fraction(m)
        for j in range(120, 1, -1):
            value = j - Fraction(j + 1) / value
        total += 1 / value
    return total


def reading():
    """Seconds for one pass of the yardstick."""
    start = time.perf_counter()
    chain()
    fraction()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    code: int
    wall_s: float     # wall time the child was running, stopped intervals excluded
    cpu_s: float      # user + system CPU time of the child
    scale: float      # REFERENCE_S over the mean yardstick reading

    @property
    def wall_ref_s(self):
        return self.wall_s * self.scale

    @property
    def cpu_ref_s(self):
        return self.cpu_s * self.scale


class Clock:
    """Times child processes one at a time."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._last = reading()

    def run(self, cmd, stdout_path, stderr_path, limit_s, **popen):
        """Run ``cmd`` to completion (killed after ``limit_s``) and time it."""
        readings = [self._last]
        stopped = 0.0
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    **popen)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                    if time.perf_counter() - start > limit_s:
                        proc.kill()
                        break
                    paused = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    try:
                        readings.append(reading())
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    stopped += time.perf_counter() - paused
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted: leave no child behind, stopped or not
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start - stopped
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._last = reading()
        readings.append(self._last)
        return Timing(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      REFERENCE_S / statistics.mean(readings))
