"""Calibration loop: a fixed, sglab-free job whose duration tracks machine speed.

The shared VM this benchmark was built on changes speed by a third within
minutes, so every child runs this loop between ops, at most every
``EVERY_S``, and the parent scales op times by its mean duration.  It runs
in the child, on the same core and caches as the ops, because a loop run in
another process tracked the ops' speed far worse (see README.md).

Once built, the loop allocates no buffer: its rows, matrices and 1 MB array
are made before the warm-up op, without temporaries, and a run holds at
most one short string at a time.  So sglab's heap state does not change its
duration.  (``peak_rss_mb`` comes from other children, which run no loop.)
"""
from __future__ import annotations

import gc
import math
import time

EVERY_S = 0.25


class Canary:
    """String formatting of dict rows, 64x64 complex matrix products and
    passes over a 1 MB complex buffer: interpreter, BLAS and memory speed.
    Runs with the garbage collector off.
    """

    ROWS = 1000
    PASSES = 24
    PRODUCTS = 16
    SCALINGS = 24

    def __init__(self):
        import numpy as np  # not at module top: setup_s times sglab's numpy import
        self.np = np
        # np.full makes no temporaries.  A freed temporary of 128 kB or more
        # would raise glibc's mmap threshold, and so move sglab's arrays.
        self.matrix = np.full((64, 64), 0.1 + 0.1j)
        self.product = np.empty_like(self.matrix)
        self.buffer = np.full((256, 256), 1.0 + 0.0j)
        self.phase = np.complex128(complex(math.cos(0.1), math.sin(0.1)))  # |phase| = 1
        self.rows = [{"shot": i, "word": format(i & 7, "03b")} for i in range(self.ROWS)]
        self.samples: list[float] = []  # durations
        self.times: list[float] = []  # perf_counter() at the middle of each run
        self._loop()  # warms caches, BLAS and the interpreter; not a sample
        self.run()

    def maybe_run(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.run()

    def run(self) -> None:
        gc_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        self.times.append((self.last + t0) / 2)
        if gc_enabled:
            gc.enable()

    def _loop(self) -> None:
        np = self.np
        for _ in range(self.PASSES):
            for row in self.rows:
                line = f"{row['shot']},{row['word']}"  # freed when the next one is bound
        del line
        for _ in range(self.PRODUCTS):
            np.matmul(self.matrix, self.matrix, out=self.product)
        for _ in range(self.SCALINGS):
            np.multiply(self.buffer, self.phase, out=self.buffer)
