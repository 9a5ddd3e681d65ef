"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np


def traced_peak(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` under tracemalloc; return its result and
    the peak bytes allocated during the call beyond those held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def assert_same_float32(samples, ref):
    """The float32 samples URF1 would store of ``samples`` and of ``ref``
    agree: equal with +-0 equated, or, for a value below 2^-100, one float32
    step apart (a change of a few 2^-150 in the float64 sum there can cross
    a float32 rounding midpoint)."""
    with np.errstate(over="ignore"):       # beyond float32's range: +-inf
        a = np.asarray(samples).astype(np.float32)
        b = np.asarray(ref).astype(np.float32)
    moved = a != b
    assert np.all(np.nextafter(b[moved], a[moved]) == a[moved])
    assert np.all(np.abs(b[moved]) < 2.0 ** -100)
