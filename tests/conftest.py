import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` -> ``(fn(), bytes)``: the call's result and the peak
    of its traced allocations above what was held before the call."""
    def measure(fn):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
    return measure
