"""Machine-speed calibration: the benchmark reports times in reference seconds.

The machines this benchmark runs on share their cores with other
tenants; the same interpreter work can take 30% longer from one minute
to the next.  Before every round (and every set-up) the client times
:func:`kernel`, a fixed slice of interpreter work that allocates almost
nothing, so it never triggers the collector itself.  The median of the
samples around a round estimates how fast the machine ran at that
moment, relative to :data:`REFERENCE_S`, the kernel's time on a quiet
calibration machine.  Each measured time is divided by that factor:
``reference seconds = seconds / (kernel seconds / REFERENCE_S)``.

Counts, bytes and memory are not scaled.  The raw seconds are printed on
standard error beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from operator import itemgetter

__all__ = ["REFERENCE_S", "WINDOW", "factors", "kernel", "sample"]

#: The kernel's time, in seconds, on the quiet calibration machine
#: (2-core x86 container, Python 3.11).
REFERENCE_S = 0.0006

#: Samples on each side of a round that its factor is the median of.
WINDOW = 5

_ROWS = [(i, i * 7919 % 1009, f"k{i}") for i in range(5000)]
_INDEX = {key: value for _, value, key in _ROWS}
_KEYS = [key for _, _, key in _ROWS]
_BY_VALUE = itemgetter(1)


def kernel() -> int:
    """Sort, look up and sum over data built once at import."""
    ordered = sorted(_ROWS, key=_BY_VALUE)
    index = _INDEX
    return ordered[0][0] + sum(index[key] for key in _KEYS)


def sample() -> float:
    """Seconds one :func:`kernel` call takes now, with its data in cache.

    A first, untimed call brings the kernel's data back into the caches,
    so the timed call does not pay for whatever the last round evicted.
    """
    kernel()
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def factors(samples: list[float]) -> list[float]:
    """Per-sample slowdown against the reference: windowed median / reference."""
    return [
        statistics.median(samples[max(0, i - WINDOW) : i + WINDOW + 1])
        / REFERENCE_S
        for i in range(len(samples))
    ]
