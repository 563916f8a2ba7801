"""The reference kernel every benchmark timing is scaled by.

Pure-Python speed on a shared host swings by up to half, in phases that
last seconds.  The benchmark therefore runs this fixed kernel just
before and just after each timed pass and reports the pass's wall time
multiplied by `K_NOMINAL_MS / mean(kernel before, kernel after)`.  The
kernel does the kind of work `pec` does (`Fraction` arithmetic, dict
merges, sorted tuples) and does not import `pec`.

Changing `kernel` or `K_NOMINAL_MS` is a change to the benchmark.
"""

from __future__ import annotations

import time
from fractions import Fraction

K_NOMINAL_MS = 4.0

_WEIGHTS = tuple(Fraction(n, d) for n, d in
                 ((49, 100), (1, 50), (7, 10), (1, 13), (12, 13), (9, 10)))


def kernel() -> tuple:
    acc = Fraction(0)
    state = {"F1": "V1", "F2": "V2", "F3": "V3", "A1": "false", "A2": "true"}
    seen = {}
    for i in range(300):
        if i % 12 == 0:
            acc = Fraction(0)
        acc = acc * _WEIGHTS[i % 6] + Fraction(i % 7 + 1, i % 11 + 2)
        state = {**state, f"F{i % 3 + 1}": f"V{i % 5}", "A1": ("true", "false")[i % 2]}
        key = tuple(sorted(state.items()))
        seen[key] = seen.get(key, Fraction(0)) + acc
    return acc, len(seen)


def kernel_ms() -> float:
    """Wall time of one kernel run, in milliseconds."""
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6
