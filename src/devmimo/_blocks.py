"""Row-block map of the batched kernels, and of the localization
spectrum, over the usable CPUs.

A kernel whose rows are independent hands `map_rows` a private function
of its batched arrays, which runs on the row blocks `_slices` makes;
this module alone decides how a batch splits.  Each row goes through the
same numpy calls on the same data whichever thread runs it, and the
output takes the memory layout of the first block's, which is the layout
the whole batch gets in one call, so the output bytes (and what later
kernels compute from them) do not depend on the CPU count or on the
blocks.  The block functions call no public entry point, so every
public call is still made once, from the caller's thread.

`simloop.map_drops` runs drops in processes sized by the same CPU count,
and gives each process's blocks its share of the CPUs (`cpu_share`).
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

# most rows in a block; 128 kept the spectrum's peak RSS but raised the
# UL's and saved no time
BLOCK_ROWS = 256

_pool = None          # (workers, ThreadPoolExecutor), made on first use
_share = None         # CPUs of this process's share of a drop pool


def _workers() -> int:
    """Pool threads beside the calling thread: one per further usable
    CPU (`taskset` limits them where the OS reports the affinity), or per
    further CPU of the share `cpu_share` sets."""
    if _share is not None:
        return _share - 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


@contextlib.contextmanager
def cpu_share(cpus: int):
    """Run the row blocks of the code inside the `with` on `cpus` CPUs."""
    global _share
    saved, _share = _share, cpus
    try:
        yield
    finally:
        _share = saved


def _forget_pool() -> None:
    # a forked child has none of the parent's pool threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):       # not on Windows, which has no fork
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


def _slices(n: int, cpus: int) -> list:
    """Row blocks of an n-row batch on `cpus` usable CPUs:
    k = min(n, cpus * ceil(n / (BLOCK_ROWS * cpus))) blocks whose sizes
    differ by at most 1, the longer ones first: the fewest blocks of at
    most BLOCK_ROWS rows that every CPU takes the same number of (on 2
    CPUs, 78 rows run as 2 x 39 and 570 as 4 x ~143).  An empty batch is
    one block."""
    k = max(1, min(n, cpus * -(-n // (BLOCK_ROWS * cpus))))
    size, longer = divmod(n, k)
    ends = [i * size + min(i, longer) for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def map_rows(fn, *arrays):
    """fn(*arrays), computed in the row blocks `_slices` makes of the
    arrays' common leading axis.

    fn returns an array, or a tuple of arrays, whose leading axis holds
    the rows of its inputs.  With one usable CPU or one block the batch
    is one call.  Otherwise the calling thread computes the first block,
    whose layout the preallocated outputs copy, while the pool threads
    take the next blocks; the caller then takes blocks too, so no more
    threads are runnable than there are usable CPUs.  Returns or raises
    only after every started block has finished.
    """
    n = len(arrays[0])
    n_workers = _workers()
    blocks = _slices(n, n_workers + 1)
    if n_workers < 1 or len(blocks) < 2:
        return fn(*arrays)
    todo = iter(blocks[1:])
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
               for _ in range(min(n_workers, len(blocks) - 1))]
    try:
        first = _rows(fn, arrays, blocks[0])
        outs.extend(np.empty_like(r, shape=(n,) + r.shape[1:]) for r in
                    (first if isinstance(first, tuple) else (first,)))
        fill(blocks[0], first)
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
