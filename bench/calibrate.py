"""Calibration kernels: how fast the host runs right now.

A shared virtual machine can switch between speed regimes within tens of
milliseconds to seconds; on a 2-vCPU x86-64 one, the same read took 11 ms
or 20 ms. Process CPU time followed wall time, so the slowdown is
contention for the core, not preemption. Fixed kernels timed right before
and right after each operation slow down with it, so an operation's
latency divided by the kernels' slowdown against a quiet host is its
latency on that quiet host. The kernels are benchmark code: a change to
the program never changes them.

Two kernels cover the two kinds of work in a solve. The Python kernel
does dict and string work to stamp a small nodal matrix, then Gaussian
elimination in pure Python; it imports nothing, so it can also run before
the set-up is timed. The BLAS kernel factors a dense 160x160 matrix with
numpy, as the dense nodal solve does. On five seeds per workload the
mean of both slowdowns gave the lowest worst-case spread: the Python
kernel alone left write_wire noisier, the BLAS kernel alone read_scan.
"""

from __future__ import annotations

import gc
import time

# Kernel times on a quiet core of a 2-vCPU x86-64 virtual machine (Python
# 3.11, numpy 2.4, OpenBLAS at its default thread count). Any constants
# work for comparing commits on one host; these keep calibrated figures
# close to quiet-host figures.
PYTHON_REFERENCE_S = 1.8e-4
BLAS_REFERENCE_S = 4.0e-4

_NODES = 24
_BLAS_ORDER = 160


def python_kernel():
    n = _NODES
    g = [[0.0] * n for _ in range(n)]
    rhs = [1.0] * n
    index = {f"n{i}": i for i in range(n)}
    for a in range(n):
        for b in (a + 1, a + 7):
            if b < n:
                i, j = index[f"n{a}"], index[f"n{b}"]
                g[i][i] += 1.0
                g[j][j] += 1.0
                g[i][j] -= 1.0
                g[j][i] -= 1.0
        g[a][a] += 0.01
    for c in range(n):
        pivot_row = g[c]
        for r in range(c + 1, n):
            f = g[r][c] / pivot_row[c]
            if f:
                row = g[r]
                for k in range(c, n):
                    row[k] -= f * pivot_row[k]
                rhs[r] -= f * rhs[c]
    return rhs


def blas_kernel():
    import numpy as np

    a = np.full((_BLAS_ORDER, _BLAS_ORDER), 1.0 / _BLAS_ORDER)
    a[np.diag_indices(_BLAS_ORDER)] += 2.0
    return np.linalg.solve(a, np.ones(_BLAS_ORDER))


def _time(kernel):
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(blas=True):
    """How many times slower than the quiet reference host the host runs now.

    ``blas=False`` times only the Python kernel, which leaves numpy
    unimported.
    """
    python = _time(python_kernel) / PYTHON_REFERENCE_S
    if not blas:
        return python
    return 0.5 * (python + _time(blas_kernel) / BLAS_REFERENCE_S)


def steady_slowdown(samples=5, blas=True):
    """Median slowdown over ``samples`` calls, after as many warm-up calls."""
    values = [slowdown(blas) for _ in range(2 * samples)]
    return sorted(values[samples:])[samples // 2]


def scale(seconds, before, after):
    """``seconds`` on the quiet reference host, from the slowdowns around it."""
    return seconds / (before * after) ** 0.5
