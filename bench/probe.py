"""CPU speed probes of the cavtel benchmark.

On a shared host the speed of a vCPU drifts by tens of percent within
seconds.  A short fixed kernel (small numpy algebra and interpreted
Python, the mix cavtel spends its time on) slows down with it, so
``run.py`` divides each timed interval by the kernel's mean time over the
same interval.  A sample is ``(t_start, t_end, kernel_s)``: start and end
on ``time.monotonic``, the kernel's own CPU time.  There are two probes:

- ``Inline``, used by ``child.py`` in loops the benchmark owns: between
  two calls it runs the kernel in the same thread, at most every
  INLINE_PERIOD_S.  This tracks the work's speed closely.
- ``python3 bench/probe.py <cpu>``, for CLI passes that cannot be
  interrupted: a process pinned to the work's CPU that runs the kernel
  every PERIOD_S.  When its standard input closes it prints its samples
  as JSON and exits; its first line, ``ready``, comes once it is warm.
  It tracks less closely.

Either takes about 2-3% of the CPU it measures.
"""

import json
import os
import select
import sys
import time

import numpy as np

PERIOD_S = 0.1
INLINE_PERIOD_S = 0.05

_A = np.random.default_rng(0).standard_normal((8, 8)) + 8.0 * np.eye(8)
_V = np.random.default_rng(1).standard_normal(1 << 15)


def kernel():
    """A fixed amount of work: about 1.3 ms of CPU at reference speed."""
    x = 0.0
    for _ in range(40):
        b = _A @ _A
        x += float(np.linalg.inv(b)[0, 0])
    x += float(np.dot(_V, _V))
    d = {}
    for i in range(2000):
        d[i % 61] = d.get(i % 61, 0.0) * 0.5 + i * 1.5
    return x + sum(d.values())


class Inline:
    """Samples the kernel in the caller's thread, between its calls."""

    def __init__(self):
        kernel()
        self.samples = []
        self.next = 0.0

    def tick(self):
        t = time.monotonic()
        if t < self.next:
            return
        c = time.thread_time()
        kernel()
        dt = time.thread_time() - c
        end = time.monotonic()
        self.samples.append((t, end, dt))
        self.next = end + INLINE_PERIOD_S


def main():
    cpu = int(sys.argv[1])
    os.sched_setaffinity(0, {cpu})
    kernel()
    print("ready", flush=True)
    samples = []
    clock = time.thread_time
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            break
        t = time.monotonic()
        c = clock()
        kernel()
        dt = clock() - c
        samples.append((t, time.monotonic(), dt))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
