"""Fixed reference kernel that measures the host's current speed.

The benchmark times this kernel next to every op and reports op time as a
multiple of it, so a host whose speed drifts during a run (frequency
scaling, neighbours on shared cores) moves both numbers largely together. The
kernel mixes interpreted Python with numpy elementwise work, as apsrec's
ops do, and never imports apsrec: a change to the library cannot change
the yardstick.
"""

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 2048)


def reference_kernel():
    """About 2 ms of fixed work on an unloaded core; returns a checksum so
    nothing can be skipped."""
    acc = 0.0
    for k in range(1, 45):
        acc += float(np.sum(np.sin(_X * k) * np.exp(-_X)))
        for j in range(80):
            acc += (j * k) % 7 * 0.5
    return acc


def reference_samples(repeats):
    """Wall times of ``repeats`` back-to-back kernel calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return samples
