"""The reference kernel that gauges the host's speed, outside the benchmarked process.

Separate processes on a shared host run the same code up to a third slower
or faster from one minute to the next.  The kernel mixes what the package
spends its time on (small-int bitsets, a tuple-keyed dict, set literals)
and never changes, so scaling times by its nominal over its measured time
removes most of that drift and none of a change in the package.  It only
ever runs in processes that have not imported the package (probe.py before
its import, speed_watch.py), so nothing a call leaves behind in the
benchmark process (threads, a pool, a large heap) can move the factor.
"""

import time


def reference_kernel() -> int:
    cache: dict = {}
    acc = 0
    for i in range(2000):
        key = (i % 61, i % 53)
        m = cache.get(key)
        if m is None:
            m = (1 << (i % 97)) | (1 << ((i * 7) % 97))
            cache[key] = m
        acc ^= m & -m
        acc += len({i % 3, (i // 3) % 3, (i // 9) % 3})
    return acc


def kernel_seconds() -> float:
    """Time of one run of the reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
