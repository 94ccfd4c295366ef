"""A speed probe, so timings can be given at a reference machine speed.

On a shared VM each vCPU runs up to about 1.7x slower or faster for seconds
at a time, and how much of the time it is slow drifts over minutes with the
load on the host.  Everything in the process slows together: the
interpreter, numpy and the program.  A run of the benchmark that falls in a
slow period reads slow on every rep, so medians over reps cannot remove it.

The probe is a fixed piece of work that does not touch adasg.  While a rep
sets up and runs, a `Sampler` times the probe on a wall-clock timer, in the
rep's own process and on its own vCPU, and counts the vCPU's steal time: the
time the host ran something else on it.  The mean speed of the samples times
the share of wall time not stolen is the share of the reference speed the
rep ran at, and `scale` turns the rep's wall times into times at the
reference speed.  A change to adasg moves the
scaled times as it moves the raw ones; a change of host speed moves the rep
and the probe together and cancels.

The probe mixes what the workloads spend their time on: interpreted tuple
and dict work (index-set bookkeeping), numpy gathers and products (batch
evaluation) and JSON encoding of floats (checkpoints).  It stays in the
core's own caches: memory traffic from other tenants slows array-heavy code
such as `eval_saved` more than it slows the probe, and scaling leaves that
part of the drift in.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np

# harmonic mean probe time on the reference machine (2-vCPU KVM guest, Intel Xeon
# Sapphire Rapids, Python 3.11.7, numpy 2.4.6) at its usual speed
REFERENCE_S = 0.0004
INTERVAL_S = 0.025

_INDEX = np.random.default_rng(0).integers(0, 4096, size=8192)
_TABLE = np.linspace(-1.0, 1.0, 4096)
_FLOATS = [float(v) for v in np.sin(np.arange(48.0))]


def _current_cpu() -> int:
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def steal_s(cpu: int) -> float:
    """Time the host has taken `cpu` away from this guest, from /proc/stat."""
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == f"cpu{cpu}":
                steal = int(fields[8]) if len(fields) > 8 else 0
                return steal / os.sysconf("SC_CLK_TCK")
    return 0.0


def probe() -> float:
    counts: dict[tuple, int] = {}
    for i in range(200):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if (key[0] + 1, key[1], key[2]) not in counts:
            counts[(key[0] + 1, key[1], key[2])] = 0
    acc = _TABLE[_INDEX] * _TABLE[_INDEX[::-1]]
    text = json.dumps([_FLOATS] * 2)
    return len(counts) + float(acc[0]) + len(text)


class Sampler:
    """Times `probe()` every `interval` s of wall time while it is active.

    Runs in the main thread from a SIGALRM handler, so it measures the
    process's own vCPU; its cost, about 2%, lands on the rep.  While active
    it pins the process to the vCPU it started on and counts that vCPU's
    steal time:
    while the host runs something else on it, the rep stalls, but a short
    probe rarely spans such a gap and so cannot see it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []
        self.wall_s = self.steal_s = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._cpu, self._affinity = _current_cpu(), os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpu})
        self._steal0, self._t0 = steal_s(self._cpu), time.perf_counter()
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = time.perf_counter() - self._t0
        self.steal_s = steal_s(self._cpu) - self._steal0
        os.sched_setaffinity(0, self._affinity)
        return False

    def speed(self) -> float:
        """Share of the reference speed the process ran at while sampled:
        the mean probe speed times the share of wall time not stolen."""
        running = max(0.0, 1.0 - self.steal_s / self.wall_s) if self.wall_s else 1.0
        return running * sum(REFERENCE_S / t for t in self.times) / len(self.times)


def scale(seconds: float, speed: float) -> float:
    """`seconds` measured at `speed` (a share of the reference), at reference speed."""
    return seconds * speed
