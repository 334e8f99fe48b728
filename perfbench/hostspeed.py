"""Host speed, from a reference sample that runs no program code.

On a shared host the same pass can take twice as long from one minute to
the next.  The benchmark takes a reference sample at every cell boundary
of a pass and rescales the pass's host time by ``REF_NOMINAL_S`` over the
median of those samples, so host times read as seconds on a *nominal* host
on which one reference sample takes ``REF_NOMINAL_S``.  A change to the
program moves the pass time but cannot move the reference.
"""

from __future__ import annotations

import heapq
from random import Random
from time import perf_counter

#: host seconds one reference sample takes on the nominal host.  Timed
#: host metrics are reported in seconds of this host.
REF_NOMINAL_S = 0.005
REF_STEPS = 1500
#: kernel events between two reference samples inside a simulation run.
REF_EVENTS_PER_SAMPLE = 4096


class _RefEvent:
    __slots__ = ("time", "seq", "proc")

    def __init__(self, time, seq, proc):
        self.time = time
        self.seq = seq
        self.proc = proc

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


def _ref_process(index):
    total = 0
    while True:
        total += yield index


def reference_sample() -> float:
    """Host seconds a fixed piece of stdlib-only interpreter work takes.

    The work mimics a discrete-event kernel's inner loop (a heap of slotted
    events, generator resumes, dict stores) and runs no program code, so a
    change to the program cannot move it: only the host's speed does.
    """
    rng = Random(7)
    heap: list = []
    table: dict = {}
    procs = [_ref_process(i) for i in range(64)]
    for proc in procs:
        next(proc)
    start = perf_counter()
    for step in range(REF_STEPS):
        heapq.heappush(heap, _RefEvent(rng.random(), step, procs[step & 63]))
        if len(heap) > 256:
            event = heapq.heappop(heap)
            table[event.seq & 511] = event.proc.send(1)
    return perf_counter() - start
