"""Row-block map of the batched kernels, and of the localization
spectrum, over the usable CPUs.

A kernel whose rows are independent hands `map_rows` a private function
of its batched arrays, which runs on row blocks of them.  Each row goes
through the same numpy calls on the same data whichever thread runs it,
and the output takes the memory layout of the first block's, which is the
layout the whole batch gets in one call, so the output bytes (and what
later kernels compute from them) do not depend on the CPU count.  The
block functions call no public entry point, so every public call is
still made once, from the caller's thread.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# large enough that each block's numpy calls outweigh their Python overhead,
# and that a 1-ring drop's per-UE batches (210 rows) stay one call
BLOCK_ROWS = 256

_pool = None          # (workers, ThreadPoolExecutor), made on first use


def _workers() -> int:
    """Pool threads beside the calling thread: one per further usable
    CPU (`taskset` limits them)."""
    return len(os.sched_getaffinity(0)) - 1


def _forget_pool() -> None:
    # a forked child has none of the parent's pool threads
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _executor(workers: int):
    global _pool
    if _pool is None or _pool[0] != workers:
        from concurrent.futures import ThreadPoolExecutor
        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (workers, ThreadPoolExecutor(
            workers, thread_name_prefix="devmimo-rows"))
    return _pool[1]


def _rows(fn, arrays, b):
    return fn(*(a[b] for a in arrays))


def map_rows(fn, *arrays, block_rows=None):
    """fn(*arrays), computed in blocks of `block_rows` rows (BLOCK_ROWS
    unless given) of the arrays' common leading axis.

    fn returns an array, or a tuple of arrays, whose leading axis holds
    the rows of its inputs.  With one usable CPU or one block the batch
    is one call.  Otherwise the calling thread computes the first block,
    whose layout the preallocated outputs copy, while the pool threads
    take the next blocks; the caller then takes blocks too, so no more
    threads are runnable than there are usable CPUs.  Returns or raises
    only after every started block has finished.
    """
    rows = BLOCK_ROWS if block_rows is None else block_rows
    n = len(arrays[0])
    n_workers = _workers()
    if n_workers < 1 or n <= rows:
        return fn(*arrays)
    todo = iter([slice(lo, min(lo + rows, n)) for lo in range(rows, n, rows)])
    lock = threading.Lock()
    ready = threading.Event()
    outs = []

    def fill(b, res):
        for out, r in zip(outs, res if isinstance(res, tuple) else (res,)):
            out[b] = r

    def drain():
        while True:
            with lock:
                b = next(todo, None)
            if b is None:
                return
            res = _rows(fn, arrays, b)
            ready.wait()
            if not outs:              # the first block failed
                return
            fill(b, res)

    pool = _executor(n_workers)
    futures = [pool.submit(drain)
               for _ in range(min(n_workers, -(-n // rows) - 1))]
    try:
        first = _rows(fn, arrays, slice(0, rows))
        outs.extend(np.empty_like(r, shape=(n,) + r.shape[1:]) for r in
                    (first if isinstance(first, tuple) else (first,)))
        fill(slice(0, rows), first)
        ready.set()
        drain()
    finally:
        ready.set()
        # a drain no pool thread has started would find no block left
        started = [f for f in futures if not f.cancel()]
        for f in started:
            f.exception()             # waits; the error is raised below
    for f in started:
        f.result()
    return tuple(outs) if isinstance(first, tuple) else outs[0]
