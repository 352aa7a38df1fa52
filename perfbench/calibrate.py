"""Reference loop that measures how fast the shared host runs right now.

The host's speed swings by up to 1.7x over minutes as other tenants load
its cores and caches, and CPU time swings with wall time. ``run.py`` times
this fixed loop just before and just after each unit and scales the unit's
times by ``REFERENCE_S / measured``: it reports them at the host's
reference speed. The loop mixes the kinds of work the workloads do
(dataclass objects, small-function calls, ``repr`` and CSV formatting, small
and mid-size numpy calls) and never runs program code, so it cannot favour
one commit over another.
"""
from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.050   # the loop's median time on the reference host
REPEATS = 5


@dataclass
class _Sample:
    a: float
    b: float


def _kernel(s: _Sample, x: float) -> float:
    y = min(0.0, s.a * (x - s.b)) + max(0.0, s.b * (s.a - x))
    return 1.0 / (1.0 + math.exp(-y))


def _once(window: np.ndarray, series: np.ndarray) -> float:
    t0 = perf_counter()
    acc = 0.0
    rows = []
    for i in range(6000):
        s = _Sample(i * 1e-4, 0.3)
        acc += _kernel(s, acc * 1e-3)
        rows.append([repr(acc), repr(s.a)])
        if i % 5 == 0:
            acc += float(np.median(window[:200 + i % 300]))
        if i % 50 == 0:
            acc += float(np.mean(np.maximum(0.0, series * acc)))
    csv.writer(io.StringIO()).writerows(rows)
    return perf_counter() - t0


def measure() -> float:
    """Median time of the reference loop, in seconds."""
    window = np.random.default_rng(0).standard_normal(500)
    series = np.random.default_rng(1).standard_normal(6000)
    return statistics.median(_once(window, series) for _ in range(REPEATS))
