"""Times the reference kernel at short intervals until its stdin closes.

Runs beside the benchmark process for the whole run, so every pass has
host-speed samples taken while it ran.  Samples are kept in memory and
printed at the end, one `<time.monotonic()> <kernel seconds>` per line.
"""

import sys
import threading
import time

from refkernel import kernel_seconds

INTERVAL_S = 0.02  # about a tenth of one core at the kernel's ~2 ms
WARMUP = 3

stop = threading.Event()
threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
for _ in range(WARMUP):
    kernel_seconds()
samples = []
while not stop.wait(INTERVAL_S):
    took = kernel_seconds()
    samples.append(f"{time.monotonic()} {took}")
print("\n".join(samples))
