"""Calibration kernel: how fast the host is at the moment of measuring.

The simulator's host time is spent on three things: interpreter work
(generator resumes, heap operations, dict and attribute access), the
garbage collector chasing pointers through the object graph, and memory
bandwidth for payload copies.  On a shared host, other tenants slow
each of them by different, drifting amounts.  The kernel below does a
fixed amount of each, timed separately and summed; dividing a unit's
time by the kernel time measured just before and just after it cancels
most of that drift.

Changing anything here moves every calibrated number, so the kernel is
frozen: it imports nothing from ``repro`` and must not be tuned.
"""

from __future__ import annotations

import array
import gc
import heapq
import random
import time

import numpy as np

#: Kernel seconds on the reference host (2 vCPUs of an Intel Xeon VM,
#: Python 3.11.7, NumPy 2.4.6).  Calibrated times are stated at that speed.
REFERENCE_S = 0.040

_PROCS, _STEPS = 200, 120
_NODES = 100_000
_COPY_ELEMS = 2 << 20   # 16 MiB of float64 per buffer
_COPIES = 6


class _Node:
    __slots__ = ("a", "b")


class Calibrator:
    """Scales raw host seconds to the reference host's speed.

    Call :meth:`scale` right after each timed interval: the interval is
    bracketed by the kernel run that ended the previous call (or the
    constructor) and a fresh one.
    """

    def __init__(self) -> None:
        rng = random.Random(1)
        # Plain int arrays: the garbage collector does not track them, so
        # they add nothing to the collections the simulator itself runs.
        self._link_a = array.array("l", (rng.randrange(_NODES) for _ in range(_NODES)))
        self._link_b = array.array("l", (rng.randrange(_NODES) for _ in range(_NODES)))
        self._src = np.ones(_COPY_ELEMS)
        self._dst = np.empty_like(self._src)
        self.seconds()  # first touch of the buffers
        #: Every bracketing kernel time, in order.
        self.kernel_s = [self.seconds()]

    def scale(self, raw_s: float) -> float:
        """``raw_s`` at reference speed."""
        before, after = self.kernel_s[-1], self.seconds()
        self.kernel_s.append(after)
        return raw_s * 2.0 * REFERENCE_S / (before + after)

    def seconds(self) -> float:
        """One kernel run, in raw seconds."""
        return self._interpreter() + self._gc_walk() + self._copy()

    def _interpreter(self) -> float:
        """A tiny discrete-event loop: heap of generators plus dict updates."""
        t0 = time.perf_counter()
        heap, seq, log = [], 0, {}

        def proc(pid):
            acc = 0.0
            for i in range(_STEPS):
                acc += ((i * 7 + pid) % 13) * 1e-7
                key = (pid & 15, i & 7)
                log[key] = log.get(key, 0) + 1
                yield acc

        for pid in range(_PROCS):
            seq += 1
            heapq.heappush(heap, (0.0, seq, proc(pid)))
        while heap:
            t, _, gen = heapq.heappop(heap)
            try:
                dt = next(gen)
            except StopIteration:
                continue
            seq += 1
            heapq.heappush(heap, (t + dt, seq, gen))
        return time.perf_counter() - t0

    def _gc_walk(self) -> float:
        """One young-generation collection over a randomly linked graph."""
        gc.collect(0)
        enabled = gc.isenabled()
        gc.disable()  # keep the nodes in generation 0 until the timed pass
        try:
            nodes = [_Node() for _ in range(_NODES)]
            for node, a, b in zip(nodes, self._link_a, self._link_b):
                node.a, node.b = nodes[a], nodes[b]
            t0 = time.perf_counter()
            gc.collect(0)
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        for node in nodes:  # break the cycles so refcounting frees them now
            node.a = node.b = None
        return elapsed

    def _copy(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_COPIES):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0
