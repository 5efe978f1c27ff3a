"""Reference kernels: how fast this machine runs right now.

The benchmark runs on a few cores of a shared host. Its speed moves in
steps that last a few seconds, by up to a half, with no steal time to show
for it; a workload's median wall time over a run therefore moves between
runs of the same code more than the bounds allow. So the worker times the
workload's reference kernels just before and just after each repetition,
outside the timed phase, and run.py reports `norm_wall_s`: each
repetition's wall time divided by its `slowdown`, how much slower than on
the reference machine the kernels ran around it; then the median. The
kernels call no dqipe code, so a change to dqipe moves `norm_wall_s` as it
moves the wall time, while much of the machine's drift cancels out. The raw
wall time is printed beside it.

Two kernels: `python` (the interpreter's loop, integer and dict operations)
and `numpy` (a BLAS matrix product and a memory-bound vector pass, one BLAS
thread). Each workload names the ones like its own work
(perfbench/workloads.py); with two, the slowdown is the geometric mean of
both.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median seconds of one call of each kernel on the reference machine, a
# shared 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 with
# one thread): norm_wall_s is in seconds of that machine.
REFERENCE_S = {"python": 0.0035, "numpy": 0.0042}
CALLS = 10  # kernel calls per timed sample
SAMPLES = 2  # samples of each kernel before and after each repetition


class Reference:
    """The reference kernels of one workload, with their inputs made once."""

    def __init__(self, names: tuple[str, ...]):
        unknown = set(names) - set(REFERENCE_S)
        if unknown or not names:
            raise ValueError(f"unknown reference kernels {sorted(unknown)}; known: {sorted(REFERENCE_S)}")
        import numpy as np  # here, so that run.py can use slowdown without numpy

        self.names = names
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((192, 192))
        self._vector = rng.standard_normal(1 << 19)  # 4 MiB

    def _python(self) -> int:
        total, table = 0, {}
        for i in range(20_000):
            total += i * i % 7
            table[i & 1023] = total
        return total

    def _numpy(self) -> float:
        out = 0.0
        for _ in range(4):
            out += float((self._matrix @ self._matrix)[0, 0])
            out += float((self._vector * 1.5).sum())
        return out

    def sample(self) -> dict[str, list[float]]:
        """SAMPLES timings of CALLS calls of each kernel, in seconds per
        call, with the garbage collector off so that the workload's heap does
        not slow the kernels."""
        times: dict[str, list[float]] = {}
        gc.disable()
        try:
            for name in self.names:
                body = getattr(self, f"_{name}")
                for _ in range(SAMPLES):
                    start = time.perf_counter()
                    for _ in range(CALLS):
                        body()
                    times.setdefault(name, []).append((time.perf_counter() - start) / CALLS)
        finally:
            gc.enable()
        return times


def slowdown(times: dict[str, list[float]]) -> float:
    """How much slower than the reference machine this one ran: the
    geometric mean over kernels of median kernel time / REFERENCE_S."""
    ratios = [statistics.median(t) / REFERENCE_S[name] for name, t in times.items()]
    return statistics.geometric_mean(ratios)
