"""Row blocks on threads: how a full-array pass is spread over the CPUs.

A pass splits its rows (or columns) into contiguous blocks, one per CPU this
process may run on, but never more blocks than rows and none with less than
MIN_BLOCK_WORK array points times steps to do (a single pass over an array
counts as one step), and runs each block on a thread of its own; numpy's FFT
and ufunc loops release the GIL. A thread's start and join cost about as
much as 1e4 point-steps (0.2 ms against 22 ns per point-step at 512^2 on a
2-vCPU Xeon), so a block carries at least ten times that. The first block
runs on the calling thread; all threads have finished when run_blocks
returns, and an error in any block is raised there.

A block function must not call the public decwt functions that a profiler
may wrap with a single-threaded span stack; it calls the private helpers
underneath them instead.
"""

from __future__ import annotations

import os
import threading

WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
MIN_BLOCK_WORK = 1 << 17


def row_blocks(rows: int, work: int) -> list[slice]:
    """Contiguous blocks of rows for a pass of work points times steps: one
    per CPU this process may run on, none empty, and none with less than
    MIN_BLOCK_WORK to do."""
    nb = max(1, min(WORKERS, rows, work // MIN_BLOCK_WORK))
    return [slice(rows * i // nb, rows * (i + 1) // nb) for i in range(nb)]


def run_blocks(fn, jobs) -> None:
    """fn(*job) for each job, the first on the calling thread and the rest on
    one thread each; returns when all have finished, re-raising the first
    error."""
    errors = []

    def guarded(job):
        try:
            fn(*job)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(job,)) for job in jobs[1:]]
    for t in threads:
        t.start()
    guarded(jobs[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
