"""Correction of wall times for the host's slow spells.

On a shared virtual machine the same work can run 1.5 to 1.7 times slower
for a fraction of a second up to minutes at a time. A spell slows all
code by a similar factor, so a fixed calibration loop timed during the work
shows how fast the host was at that moment. A probe runs the loop on a timer
signal every ``PERIOD_S`` seconds, between the interpreter's bytecodes, and
records the thread CPU time the loop took. CPU time, so that waiting for the
interpreter lock held by another of the program's threads does not read as a
slow host. A timed interval's corrected duration is its wall time times
``REF_S`` over the mean probe time inside it: about the time the work would
have taken with the host at full speed.

The loop is the benchmark's own code, so no change to the program moves it.
"""
from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

REF_S = 1.65e-4  # one probe pass on the reference host in its fast state (2-core VM, Python 3.11)
PERIOD_S = 0.05

_RNG = np.random.default_rng(0)
_A, _W, _V = _RNG.random((64, 88)), _RNG.random((88, 48)), _RNG.random((48, 48))
_WORDS = [f"w{i}x{i * 7 % 13}" for i in range(64)]
_INDEX = {word: i for i, word in enumerate(_WORDS[::2])}


def _fnv(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _loop() -> None:
    """A fixed mix like taxpath's own: hashing, dict and set work, small matmuls."""
    for word in _WORDS:
        _fnv(word)
    hits = {word for word in _WORDS if word in _INDEX}
    sorted(hits & set(_WORDS[::3]))
    x = np.tanh(_A @ _W)
    for _ in range(8):
        x = np.tanh(x @ _V)


class HostSpeed:
    """Timestamped probe times, taken on a timer or on demand."""

    def __init__(self) -> None:
        self.at: list[float] = []  # probe start times, ascending
        self.took: list[float] = []
        self._previous = None
        self._probing = False

    def probe(self, *_signal_args) -> None:
        if self._probing:  # a timer signal that lands inside a probe is dropped
            return
        self._probing = True
        try:
            _loop()  # warms the caches, so the timed pass sees the core's speed, not the program's cache use
            at, t0 = time.perf_counter(), time.thread_time()
            _loop()
            self.at.append(at)
            self.took.append(time.thread_time() - t0)
        finally:
            self._probing = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        previous, self._previous = self._previous, None
        signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)

    @contextmanager
    def pause(self):
        """No timer probes inside the block; the caller probes where it chooses."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time in [start, end] over REF_S; the nearest probe if none."""
        if not self.at:
            return 1.0
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi == lo:  # no probe inside: take the nearer neighbour
            after_is_nearer = lo < len(self.at) and (lo == 0 or self.at[lo] - end < start - self.at[lo - 1])
            lo = lo if after_is_nearer else lo - 1
            hi = lo + 1
        took = self.took[lo:hi]
        return sum(took) / len(took) / REF_S

    def corrected(self, start: float, end: float) -> float:
        return (end - start) / self.slowdown(start, end)
