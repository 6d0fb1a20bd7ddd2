"""How fast the machine runs right now, from a fixed reference kernel.

The vCPUs of the shared host the benchmark runs on change speed by up to 2x
within seconds and stay changed for seconds to minutes (README.md, Noise), so
one repetition's wall time says as much about its neighbours as about the
program. Every repetition therefore times this kernel between the program's
solver steps and reports its times scaled by ``nominal / mean(kernel time)``:
seconds at the reference speed, i.e. as fast as the kernel ran when
``NOMINAL_S`` was measured.

The kernel is the benchmark's own code and calls numpy only, never falm, so a
change to the program moves the scaled time by exactly as much as the raw one.
It mirrors the shape of a solver step on each workload's instance: one
gradient pass, then conjugate-gradient iterations on ``I/sigma + s A^T A``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Instance shape, gradient passes over the objective's matrix, steps per
# sample. "small" is the 50x10 QP of the CLI workloads, whose steps are
# dominated by per-call overhead; "gemv" is the 1000x200 least-squares
# instance, whose steps stream an 8 MB matrix.
KERNELS = {"small": (50, 10, 1, 33), "gemv": (1000, 200, 2, 5)}
CG_ITERS = 8
# Sample time of each kernel on the machine the bounds were set on (2-vCPU
# Xeon, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread) in its fast state.
NOMINAL_S = {"small": 0.0028, "gemv": 0.0088}


class Reference:
    def __init__(self, kind: str):
        n, p, self.passes, self.steps = KERNELS[kind]
        rng = np.random.default_rng(2111_09370)
        self.m = rng.standard_normal((n, n)) / np.sqrt(n)
        self.a = rng.standard_normal((p, n)) / np.sqrt(n)
        self.x0 = rng.standard_normal(n)
        self.nominal = NOMINAL_S[kind]
        self.times: list[float] = []
        self.seconds = 0.0  # total time spent sampling, to subtract from walls
        self.kernel()  # first touch of the arrays and numpy's dispatch caches

    def kernel(self) -> float:
        m, a = self.m, self.a
        x = self.x0.copy()
        for _ in range(self.steps):
            g = m @ x if self.passes == 1 else m.T @ (m @ x)
            rhs = x - 0.1 * g
            r = rhs - (x + a.T @ (a @ x))
            d = r.copy()
            rs = float(np.dot(r, r))
            for _ in range(CG_ITERS):
                ad = d + a.T @ (a @ d)
                alpha = rs / float(np.dot(d, ad))
                x = x + alpha * d
                r = r - alpha * ad
                rs_new = float(np.dot(r, r))
                d = r + (rs_new / rs) * d
                rs = rs_new
            x = x / float(np.linalg.norm(x))
        return float(x[0])

    def sample(self) -> None:
        t = perf_counter()
        self.kernel()
        took = perf_counter() - t
        self.times.append(took)
        self.seconds += took

    def scale(self) -> float:
        """Factor that turns seconds measured now into reference seconds."""
        if not self.times:  # the program stopped before its first step
            self.sample()
        return self.nominal / statistics.fmean(self.times)
