"""Stage timing in seconds of a quiet host.

The benchmark host is shared. Other tenants change how fast it runs this
process by up to 1.9x, for bursts of a few seconds and for stretches of more
than a minute. CPU time slows with wall time, so neither the fastest nor the
median pass of one run removes a slow stretch that covers the whole run.

``HostClock`` brackets every timed stage with a fixed reference task: a
small numpy MLP forward and backward pass of the same shape as the run model,
written here and calling nothing in ``rholoss``, so a change to the program
does not move it. A stage's host time is its wall time scaled by
``REFERENCE_MS`` over the mean of the reference task's times just before and
just after it. That is the stage's time on a host where the reference task
takes ``REFERENCE_MS``, as it does on the quiet development box; on a quiet
host the two read the same.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# The reference task's time on the quiet 2-core development box (Intel Xeon,
# OpenBLAS 0.3.31, 1 BLAS thread); 9-10 ms when a tenant slows the host.
REFERENCE_MS = 5.0
REPEATS = 3  # the median of these is one reference sample

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 32))
_W1 = _rng.standard_normal((32, 128)) * 0.1
_W2 = _rng.standard_normal((128, 128)) * 0.1
_W3 = _rng.standard_normal((128, 10)) * 0.1


def _reference_task() -> float:
    total = 0.0
    for _ in range(40):
        h1 = np.maximum(_X @ _W1, 0.0)
        h2 = np.maximum(h1 @ _W2, 0.0)
        logits = h2 @ _W3
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        d2 = (p @ _W3.T) * (h2 > 0)
        d1 = (d2 @ _W2.T) * (h1 > 0)
        for g in (h2.T @ p, h1.T @ d2, _X.T @ d1):
            total += float((g * g).sum())
    return total


def reference_ms() -> float:
    """Milliseconds the reference task takes now: the median of REPEATS."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


class HostClock:
    """Times named stages back to back; each stage shares its reference
    samples with its neighbours. ``start`` begins a new group of stages."""

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.host: dict[str, float] = {}
        self._before = reference_ms()

    def start(self) -> None:
        self.wall, self.host = {}, {}
        self._before = reference_ms()

    def time(self, stage: str, fn, *args):
        """Runs ``fn(*args)``, records its wall and host seconds under
        ``stage`` and returns its result."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = reference_ms()
        self.wall[stage] = wall
        self.host[stage] = wall * REFERENCE_MS / ((self._before + after) / 2.0)
        self._before = after
        return result
