"""Host-speed probe that the benchmark's timings are scaled by.

The shared host this benchmark was built on changes speed by 13-19% (CV)
between 8-second windows, and CPU time follows wall time, so the change is
in the processor, not in scheduling.  A fixed kernel that never touches
klcert -- interpreter arithmetic, vectorized numpy and Python object / JSON
work, the three kinds of work klcert does -- is timed between operations;
dividing by its median cut the same windows' CV to 4-6%.

Every reported time is `raw * REFERENCE_S / kernel median`: seconds on a
host where the kernel takes REFERENCE_S.  The raw times are kept in the
result details.
"""

import json
import time

# Median kernel time on the host the benchmark was built on (2 CPUs);
# a unit, not a tuning knob.
REFERENCE_S = 0.012

_data = {}


def kernel_seconds() -> float:
    """Time one run of the fixed kernel."""
    import numpy as np
    if not _data:
        rng = np.random.default_rng(0)
        _data["A"] = rng.uniform(-0.5, 0.5, (3, 3))
        _data["P"] = rng.uniform(-1.0, 1.0, (20000, 3))
    A, P = _data["A"], _data["P"]
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for _ in range(3):
        r = P @ A.T
        int(np.argmin(np.einsum("ij,ij->i", r, r) + np.abs(P).sum(axis=1)))
    rows = [{"k": i, "v": i * 0.5, "s": str(i)} for i in range(3000)]
    json.loads(json.dumps(rows))
    return time.perf_counter() - start
