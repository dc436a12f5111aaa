"""A frozen pure-Python yardstick for normalising host time.

On a shared machine the same Python loop can run 25% slower from one
second to the next.  The benchmark therefore times this loop next to
every operation and reports host times rescaled to the reference
machine: ``wall * REF_MS / median(yardstick samples next to the op)``.

The loop must never change.  Every normalised number in the committed
baseline is relative to it, so editing it would rescale them all.
"""

from __future__ import annotations

import time

#: The scale of normalised times: they read as if every yardstick
#: sample had taken this long.  The reference machine (2-vCPU x86-64
#: Linux container, CPython 3.11.7) runs the loop in 13-24 ms.
REF_MS = 15.0

_ROUNDS = 12
_KEYS = 4093


def yardstick_ms() -> float:
    """Run the fixed dict/list churn once; return its wall time in ms."""
    start = time.perf_counter()
    checksum = 0
    for round_no in range(_ROUNDS):
        table = {}
        items = []
        for i in range(3000):
            key = (i * 7919 + round_no) % _KEYS
            table[key] = table.get(key, 0) + i
            items.append((key, i))
            if len(items) >= 512:
                items.sort()
                checksum += items[0][1] + len(table)
                del items[:256]
        checksum += sum(table.values()) % 1000
    if checksum < 0:  # never true; keeps the work observable
        raise AssertionError(checksum)
    return (time.perf_counter() - start) * 1000.0
