"""Process map of the seed-keyed units over the usable CPUs.

`map_items` runs units that seed their own generators (drops,
localization trials, a calibration's channel tables) in processes, one
per usable CPU.  Inside a unit every batched kernel runs its whole batch
in one call, in the process that runs the unit.
"""

from __future__ import annotations

import os
import sys

# how map_items starts its workers: a forked child shares the parent's
# imports and pages; macOS system libraries are not fork-safe
_START_METHOD = ("fork" if hasattr(os, "fork") and sys.platform != "darwin"
                 else "spawn")


def _workers() -> int:
    """Worker processes `map_items` may start beside the calling one: one
    per further usable CPU (`taskset` limits them where the OS reports
    the affinity; elsewhere `os.cpu_count()` counts the CPUs)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _replaced(entry) -> bool:
    """Whether `entry` is not the function its module defines under its
    name, i.e. a benchmark tracer or a test put a wrapper in its place."""
    owner = sys.modules.get(entry.__module__)
    for name in entry.__qualname__.split("."):
        owner = getattr(owner, name, None)
    return owner is not entry


def _serve(conn, fn, cfg, items) -> None:
    # a worker: send (None, results) or (its traceback, the exception)
    try:
        res = None, [fn(cfg, x) for x in items]
    except BaseException as exc:
        import traceback
        res = traceback.format_exc(), exc
    conn.send(res)
    conn.close()


def map_items(fn, cfg, items, entry) -> list:
    """[fn(cfg, x) for x in items], computed on P = min(usable CPUs,
    len(items)) processes.

    Each item seeds its generators from its own key, so its bytes do not
    depend on the process that runs it.  The calling process runs
    items[0::P] itself, and P - 1 worker processes that live only for
    this call run items[k::P] for k = 1 .. P-1: forked, or spawned where
    the OS has no safe fork.  fn, cfg and the items go to a worker by
    pickle when spawned, and the results come back by pickle over a pipe
    that the caller reads once its own share is done.

    `entry` is the public function whose calls the items make, as the
    caller looks it up.  With P = 1, or when `entry` has been replaced (a
    tracer or a test would not see the calls a worker makes), every item
    runs in the calling process.  An item's exception reaches the caller
    with its type and message (a worker's traceback chained to it), a
    worker that dies raises RuntimeError, and no worker outlives the
    call.
    """
    items = list(items)
    procs = min(_workers() + 1, len(items))
    if procs < 2 or _replaced(entry):
        return [fn(cfg, x) for x in items]
    # imported here, so a process that never pools pays no import time
    import multiprocessing
    ctx = multiprocessing.get_context(_START_METHOD)
    out = [None] * len(items)
    workers = []
    try:
        for k in range(1, procs):
            recv, send = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_serve,
                            args=(send, fn, cfg, items[k::procs]))
            p.start()
            workers.append((recv, p))
            send.close()              # so a dead worker reads as EOF
        out[0::procs] = [fn(cfg, x) for x in items[0::procs]]
        for k, (recv, p) in enumerate(workers, 1):
            try:
                tb, res = recv.recv()
            except EOFError:
                p.join()
                raise RuntimeError(f"a worker process exited with code "
                                   f"{p.exitcode}") from None
            if tb is not None:
                raise res from RuntimeError(f"in a worker process:\n{tb}")
            out[k::procs] = res
    finally:
        for recv, p in workers:
            recv.close()
            p.kill()
            p.join()
    return out
