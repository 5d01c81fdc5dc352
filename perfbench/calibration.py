"""How fast the machine runs right now, from a fixed computation of the benchmark's own.

On a shared host the speed of one core drifts by tens of per cent over seconds
and minutes, and interpreted Python slows more than numpy's compiled loops.
A run times this reference computation before its first round and after every
round; ``scale`` turns a round's time into its time at the reference speed,
the speed at which the reference computation takes ``REFERENCE_S``. The
reference computation imports nothing from ``ubnin``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of reference() on the machine the benchmark was defined on (see
# README.md, "Environment"). It fixes only the scale of the reported times.
REFERENCE_S = 0.09

_RNG = np.random.default_rng(20230602)
_VALUES = _RNG.random(4005)                  # the upper triangle of 90 regions
_MATRIX = _RNG.random((90, 90))


def reference() -> float:
    """About equal times of interpreted and of numpy work, of the kinds the
    program does; returns a value so that no part can be skipped."""
    # Interpreted: tuples in and out of a set, driven by integer arithmetic,
    # as in edge-swapping loops.
    present = set()
    x = 12345
    for _ in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        edge = (x % 97, (x >> 8) % 89)
        if edge in present:
            present.discard(edge)
        else:
            present.add(edge)
    # numpy: ranking and small matrix products, as in thresholding,
    # correlation and clustering.
    total = 0.0
    m = _MATRIX
    for _ in range(80):
        order = np.argsort(-_VALUES, kind="stable")
        m = (m @ _MATRIX) / 90.0
        m = (m @ _MATRIX.T) / 90.0
        total += float(order[0]) + float(m[0, 0])
    return total + len(present)


def measure() -> float:
    """Wall time of one reference() call, in seconds."""
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference times, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
