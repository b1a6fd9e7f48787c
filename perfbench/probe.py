"""One fresh-process probe: the host's speed, then the workload's set-up time.

Reads a JSON spec on stdin (family texts and instance parameters).  First
times the reference kernel (refkernel.py), before the package is imported,
so the figure owes nothing to the code under test.  Then times importing
`sunflower` and building every family and instance object through the
public API.  Prints {"ref_s": seconds, "setup_s": seconds} on stdout.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from refkernel import kernel_seconds

KERNEL_WARMUP = 3
KERNEL_REPS = 31

spec = json.load(sys.stdin)
ref_s = statistics.median([kernel_seconds() for _ in range(KERNEL_WARMUP + KERNEL_REPS)][KERNEL_WARMUP:])
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import sunflower as sf  # noqa: E402  (the import is what is timed)

for moduli, text in spec["vector_texts"]:
    sf.parse_vector_family(text, moduli)
for moduli in spec["vector_instances"]:
    sf.VectorInstance(sf.as_modulus_vector(moduli))
for k, m in spec["uniform_instances"]:
    sf.UniformInstance(k, m)
elapsed = time.perf_counter() - start

print(json.dumps({"ref_s": ref_s, "setup_s": elapsed}))
