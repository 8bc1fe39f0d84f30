"""Host speed, sampled all through a timed section.

Other tenants of a shared host slow a core by up to 1.9x.  Their load
switches within a second and holds at one level for minutes, so no timed
pass of a few seconds runs free of it, and a run's median pass moves with
the load of its minute.  ``Sampler`` measures that load while the section
runs: a CPU-time interval timer (``SIGVTALRM``) interrupts the section
every ``PROBE_EVERY_S`` seconds of process CPU time and times ``probe``, a
fixed piece of pure-Python work that does not touch the package.  Because
the probes are spread evenly over the section, their mean time rises with
the load just as the section's does.  ``scaled`` removes the probes' own
time from the section and rescales the rest to a host on which the probe
takes ``PROBE_REF_S``.

In a trial on a 2-vCPU VM with Python 3.11, over 83 passes of the
``balanced`` workload whose raw times varied with a coefficient of
variation of 0.15, pass time divided by the mean time of probes doing the
same three kinds of work varied by 0.03, and the two were proportional
(log-log slope 1.0).  Under the heaviest load the package slows somewhat
more than the probe, so rescaled times read up to about 10% high there.
"""

from __future__ import annotations

import signal
from math import fsum
from statistics import fmean
from time import perf_counter

# Seconds of process CPU time between two probes: the probes add about 4%
# to a run and are not counted in the sections they interrupt.
PROBE_EVERY_S = 0.025
# The probe's fastest time, run back to back, on the reference machine
# (2-vCPU VM, Python 3.11.7), so a scaled section reads in seconds on a
# core of that machine at a fixed speed.
PROBE_REF_S = 0.00075

_INT_KEYS = list(range(256))
_STR_KEYS = [f"p{i:05d}" for i in range(2048)]


class _Node:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def get(self):
        return self.value


_NODES = [_Node(i) for i in range(512)]


def probe() -> None:
    """About 1 ms of the package's kind of work: int- and string-keyed dict
    updates, float arithmetic, ``fsum`` and a scan that calls a method on
    every element and keeps the best."""
    d = {}
    acc = 0.0
    for i in range(1500):
        key = _INT_KEYS[i & 255]
        d[key] = d.get(key, 0.0) + i
        acc += abs(i - 0.5)
    table = {}
    for i, key in enumerate(_STR_KEYS):
        table[key] = i * 0.5
    for key in _STR_KEYS:
        acc += table[key]
    fsum(table.values())
    best = -1
    for _ in range(6):
        for node in _NODES:
            value = node.get()
            if value > best:
                best = value


class Sampler:
    """Context manager that probes the host while its block runs.  One
    sampler can be entered many times; ``scaled`` applies to the block just
    left and falls back to every probe so far when that block was too short
    for one."""

    def __init__(self):
        self.all: list[float] = []
        self.block: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.block.append(perf_counter() - t0)

    def __enter__(self):
        self.block = []
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.all += self.block

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the last block, less its probes, on the reference
        host."""
        samples = self.block or self.all
        if not samples:
            return seconds
        return (seconds - fsum(self.block)) * PROBE_REF_S / fmean(samples)
