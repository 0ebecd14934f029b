"""The speed of the machine right now, read from a fixed reference loop.

On a shared machine the speed of this process swings by up to 2x within
seconds, as neighbours load the cores and caches it shares; CPU time swings
with wall time, so it does not help.  `Reference` times a fixed loop: small
Hermitian eigendecompositions and array arithmetic, then reading and
formatting record-like dicts scattered over a few megabytes.  That is the
mix of the program's hot path and of its report writer, with none of the
program's code; the scattered reads make the loop slow down, as the program
does, when a neighbour evicts the shared caches.

`workloads.run_pass` times the loop just before and just after the timed
part of each pass, and of each report I/O repeat, while no program code
runs, and multiplies the wall times between by
`factor(before, after) = ITER_SECONDS / (mean seconds per iteration of the
two)`: the seconds the work would have taken at the speed where one
iteration takes `ITER_SECONDS`.  The speed is measured only at the edges,
so a swing in between still shows in the times.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# A measurement times CHUNKS chunks of CHUNK_ITERS iterations (about 6 ms
# each at ITER_SECONDS) and takes the median chunk, so that one burst of a
# neighbour's load does not set the speed of a whole pass.
CHUNK_ITERS = 100
CHUNKS = 5
# One reference iteration on an unloaded 2 vCPU machine with Python 3.11 and
# numpy 2.4 (OpenBLAS 0.3.31, one thread); any fixed value would do.
ITER_SECONDS = 60e-6
# Record-like dicts the loop reads and formats at scattered places, so that it
# depends on the caches as a sweep with thousands of live records does.
RECORDS = 8000
TOUCHES = 4


def _format(obj) -> str:
    """A small recursive encoder, the shape of the report writer's."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_format(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return str(obj)


class _Loop:
    """One copy of the reference loop's data; `run` makes one chunk."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._matrix = G @ G.conj().T + np.eye(3)
        self._eigh = np.linalg.eigh   # bound now, so a tracer never counts it
        values = rng.random((RECORDS, 2)).tolist()
        self._records = [{"lhs": a, "rhs": b, "k": i, "norm": {"variant": "kyfan", "k": i % 7}}
                         for i, (a, b) in enumerate(values)]
        self._order = rng.permutation(RECORDS).tolist()
        self._next = 0

    def run(self) -> None:
        M, eigh, records, order = self._matrix, self._eigh, self._records, self._order
        acc = 0.0
        j = self._next
        for _ in range(CHUNK_ITERS):
            A = M.copy()
            defect = float(np.abs(A - A.conj().T).max())
            w, V = eigh(0.5 * (A + A.conj().T))
            w, V = w[::-1].copy(), V[:, ::-1].copy()
            wx = np.where(np.abs(w) <= 1e-12 * w.max(), 0.0, w) ** 0.5
            acc += float(((V * wx) @ V.conj().T)[0, 0].real) + defect
            for _ in range(TOUCHES):
                rec = records[order[j]]
                j = (j + 1) % RECORDS
                acc += rec["lhs"] + len(_format(rec))
        self._next = j


class Reference:
    """The reference loop, run by up to `threads` threads at once, as a
    workload with a pool of that many workers runs: two threads share the
    interpreter lock as the pool does, and slow down with it when a
    neighbour loads one of the cores.  Calling it returns seconds per
    iteration (wall time over the iterations of all threads), now: the
    median of `chunks` chunks, each run by `threads` threads (all by
    default)."""

    def __init__(self, threads: int = 1):
        self._loops = [_Loop() for _ in range(threads)]

    def __call__(self, chunks: int = CHUNKS, threads: int | None = None) -> float:
        loops = self._loops[:threads]
        return statistics.median(self._chunk(loops) for _ in range(chunks))

    @staticmethod
    def _chunk(loops) -> float:
        start = time.perf_counter()
        others = [threading.Thread(target=loop.run) for loop in loops[1:]]
        for thread in others:
            thread.start()
        loops[0].run()
        for thread in others:
            thread.join()
        return (time.perf_counter() - start) / (CHUNK_ITERS * len(loops))


def factor(before: float, after: float) -> float:
    """The factor that takes a wall time to reference seconds, for work done
    between two measurements of `Reference` (seconds per iteration)."""
    return ITER_SECONDS / (0.5 * (before + after))
