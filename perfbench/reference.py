"""A reference kernel that tells how fast the machine is running at the moment.

On a shared host the same code runs up to twice as slow for seconds at a time
while neighbours load the machine. So each run times a kernel that shares no
code with wqent right after every operation and every set-up, and reports each
round (or set-up) scaled by the kernel's speed measured beside it:

    scaled = measured time * NOMINAL / mean(kernel times beside it)

In-process operations are followed by passes of a small-matrix loop lasting a
tenth of the operation's time (at least one pass); operations that start a
process, CLI calls and set-ups, by one fresh interpreter importing numpy.

The scaling cancels the machine's momentary speed and keeps the program's
own cost, because a change to wqent cannot change the kernel.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# The kernels' wall times in a quiet period on the 2-core Xeon the benchmark
# was defined on; they only set the scale of the reported figures.
NOMINAL_S = 0.001
SPAWN_NOMINAL_S = 0.1
SPAWN_CODE = "import numpy, click, json"


def _small_matrix_loop(iterations: int = 100) -> float:
    # the program's own mix: interpreted arithmetic around small complex numpy ops
    a = np.arange(16, dtype=complex).reshape(4, 4) / 100.0
    a = a + a.conj().T
    s = 0.0
    for i in range(iterations):
        b = a @ a
        s += float(np.abs(b - b.conj().T).max()) + math.hypot(i, s) * 1e-9
        a = 0.5 * (a + np.einsum("ij->ji", b).conj() * 1e-3)
    return s


def kernel_time(at_least: float = 0.0) -> float:
    """Mean seconds per pass of the kernel, over passes lasting ``at_least`` in all."""
    passes, t0 = 0, time.perf_counter()
    while True:
        _small_matrix_loop()
        passes += 1
        spent = time.perf_counter() - t0
        if spent >= at_least:
            return spent / passes


def spawn_time(env: dict) -> float:
    """Seconds for a fresh interpreter importing the CLI's third-party dependencies.

    Operations that start a process are scaled by this instead of the
    in-process kernel, which does not see the cost of starting one.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], env=env, capture_output=True, check=True,
                   timeout=120)
    return time.perf_counter() - t0
