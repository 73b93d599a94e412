"""Fixed reference work that measures the host's speed, in a process of its own.

The speed of a CPU of the host swings by up to a factor of two within a
second or two, and not alike for all kinds of code.  The benchmark
therefore times a short run of fixed work of the kind each workload does
after every operation, on the same CPU, and scales each operation's time
by the runs around it.  The reference runs in this separate process, which imports
numpy but no ``contractpricing`` code, so that the program's heap, garbage
collector and allocator state cannot slow the reference down along with
the program and cancel out of the scaled figures.

Protocol: the parent writes one kernel name per line on standard input;
the child runs that kernel and answers with its duration in seconds on a
line of standard output.  End of input ends the child.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: array length of the vectorized kernel, that of one simulated band
VECTOR_SAMPLES = 10 ** 6


def interpreter_kernel() -> None:
    """Fixed interpreter-bound work (small numpy calls, plain Python)."""
    acc = 0.0
    x = np.linspace(0.1, 1.0, 64)
    for i in range(1250):
        y = np.asarray(x * (1.0 + i * 1e-7))
        acc += float(np.min(y[1:] - y[:-1]))
    table: dict = {}
    for i in range(32500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i


def vector_kernel() -> None:
    """Fixed vectorized work on arrays of 10**6 elements."""
    u = np.random.default_rng(0).uniform(0.0, 1.0, VECTOR_SAMPLES)
    np.mean(np.stack([u * 2.0 - 1.0, u * u, 0.5 * u]).max(axis=0) >= 0.5)


KERNELS = {"interpreter": interpreter_kernel, "vector": vector_kernel}


def main() -> None:
    for line in sys.stdin:
        kernel = KERNELS[line.strip()]
        t0 = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()
