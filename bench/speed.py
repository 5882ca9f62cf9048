"""Machine-speed reference for a shared, noisy host.

On a shared 2-core x86-64 VM (Python 3.11, numpy 2.4), the same job's
wall time swings by up to 1.7x between runs a minute apart (host
contention, not the program): one run is fast throughout, the next slow throughout, so
medians inside a run cannot remove it. The benchmark therefore times this
fixed pure-Python loop next to every measurement and scales each measured
time by ``REF_S / reference time``: the result reads as seconds on a
machine where the loop takes ``REF_S``. The loop does not touch the
program under test, so no change to it can move the reference.

Run as a script, it measures one set-up sample in a fresh interpreter:
``reference, import time of hyperwalk.cli, reference`` on one line.
"""

import time

REF_S = 0.010  # the loop's time on the reference host (2-core x86-64 VM) when uncontended
_LOOPS = 160_000


def reference() -> float:
    """Seconds the fixed reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOPS):
        total += i * i
    return time.perf_counter() - start


if __name__ == "__main__":
    before = reference()
    start = time.perf_counter()
    import hyperwalk.cli  # noqa: F401
    took = time.perf_counter() - start
    print(before, took, reference())
