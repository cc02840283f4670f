"""What one run of one workload produced, and the readings taken of the machine.

Linux only: peak memory and child CPU time come from ``/proc``, because
``getrusage(RUSAGE_CHILDREN)`` sees a shard worker only after it has been
reaped, and then only the largest one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def child_pids() -> list[int]:
    """Live child processes of this one (the shard workers, when there are any)."""
    return [child.pid for child in multiprocessing.active_children()]


def children_cpu_seconds(children: list[int]) -> float:
    """User + system CPU time of the processes ``children`` so far."""
    total = 0.0
    for pid in children:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields 14 and 15, counted after the parenthesised command name.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb(children: list[int]) -> float:
    """Sum of the peak resident set sizes of this process and ``children``."""
    total_kb = 0
    for pid in [os.getpid(), *children]:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def _kernel() -> int:
    total = 0
    for i in range(1500):
        total += i * i
    return total


class Calibrator:
    """Measures how much slower than its quiet speed the machine runs, moment by moment.

    On a shared box the CPU's speed changes by a third within tens of
    milliseconds, for every piece of code alike: ten 10-second runs of one
    commit spread their medians over 10 to 20 percent, which no bound
    could resolve.  The drivers therefore run a fixed pure-Python kernel
    about twice a millisecond between the operations they time (never
    inside one), and divide every timed sample by the *slowdown* around
    it: the kernel's CPU time over :data:`QUIET_KERNEL_S`.  What is
    reported is the time the operation takes on this machine when nothing
    disturbs it; the same samples, so normalised, repeat within 2 to 3
    percent.  ``loadgen.slowdown_p50`` reports the factor, so raw wall
    times can be recovered.
    """

    #: CPU seconds :func:`_kernel` takes on the box the baseline was
    #: recorded on, when nothing else runs.  A constant: a reference taken
    #: from each run's own fastest sample made the runs disagree whenever
    #: a run never saw the box quiet.
    QUIET_KERNEL_S = 42e-6
    #: Samples are taken at least this far apart, so the kernel costs at most
    #: 8% of a run (none of it inside a timed operation).
    SPACING_S = 0.0005

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.cpu: list[float] = []  # this process's CPU time at each sample

    def sample(self) -> float:
        """Run the kernel once; returns the wall-clock time when it ended."""
        before = time.thread_time()
        _kernel()
        self.costs.append(time.thread_time() - before)
        self.cpu.append(time.process_time())
        now = time.perf_counter()
        self.times.append(now)
        return now

    def open_bracket(self) -> float:
        """Start timing a stretch that cannot be sampled inside (a set-up): returns the time."""
        for _ in range(5):
            started = self.sample()
        return started

    def close_bracket(self, started: float) -> float:
        """Seconds since ``started`` at quiet speed, by the samples on both sides of the stretch."""
        ended = time.perf_counter()
        for _ in range(5):
            self.sample()
        return (ended - started) / float(np.median(self.slowdown(self.times[-10:])))

    def slowdown(self, at) -> np.ndarray:
        """The slowdown factor at each wall-clock time in ``at``.

        A running median over five samples drops the odd sample an
        interrupt landed in; between samples the factor is interpolated.
        """
        costs = np.array(self.costs)
        padded = np.pad(costs, 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1)
        return np.interp(at, self.times, smooth / self.QUIET_KERNEL_S)

    def quiet_cpu(self, begin: float, children_s: float = 0.0) -> float:
        """CPU seconds this process used since ``begin``, at quiet speed.

        Each stretch between two samples is divided by the slowdown in its
        middle.  ``children_s`` (worker processes, read from ``/proc`` at
        both ends only) is divided by the window's mean slowdown.
        """
        times, cpu = np.array(self.times), np.array(self.cpu)
        inside = times >= begin
        times, cpu = times[inside], cpu[inside]
        factor = 1.0 / self.slowdown((times[1:] + times[:-1]) / 2)
        return float(np.sum(np.diff(cpu) * factor) + children_s * factor.mean())

    def quiet(self, samples) -> np.ndarray:
        """``(seconds, when)`` pairs to seconds at quiet speed."""
        seconds, when = np.array(samples).T
        return seconds / self.slowdown(when)


def tail(values) -> float:
    """The highest percentile of ``values`` with at least ten samples beyond it, at most p99."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 20:
        return float(np.median(values))
    return float(np.percentile(values, min(99.0, 100.0 * (1.0 - 10.0 / len(values)))))


@dataclass
class Outcome:
    """Samples of one measured window; ``run.py`` turns them into metrics.

    Every duration and rate has been divided (multiplied) by the slowdown
    the :class:`Calibrator` measured around it, except ``wall_s``.
    """

    updates: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    #: Updates per second of write time, one value per segment of the run.
    write_rates: list[float]
    #: Per write call (engines) or per update (server): milliseconds from
    #: handing the update over until a reader can see its effect.
    visible_ms: np.ndarray
    #: Per lookup burst: microseconds per lookup as the caller saw it.
    lookup_us: np.ndarray
    #: Tuples per second, one value per full drain.
    drain_rates: list[float]
    attempted: int
    failed: int
    #: The offered rate, not the program, sets the wall time per update.
    paced: bool = False
    #: Seconds per set-up; filled in by the workload's ``run``.
    setup_s: list[float] = field(default_factory=list)
    #: Final output equals the ``repro.naive`` recompute (and, for the
    #: server, the subscriber's dict equals ``server.enumerate()``).
    correct: bool = False
    #: Per-layer numbers only the driver can know (``loadgen.*``, and the
    #: ``serve.*`` ones read off the engine proxy and the change feed).
    facts: dict[str, float] = field(default_factory=dict)
