"""Ordered fan-out of per-graph work to a process pool.

SUBSEC_THREADS caps the worker count; the default, and the ceiling, is the
machine's CPU count. Items go to the workers in chunks of an eighth of each
worker's share, rounded up, so a corpus of many small solves costs about
eight round trips per worker instead of one per graph, while the chunks stay
small enough to even out unequal solves.
Results always come back in input order, so reports are byte-identical no
matter how many workers ran.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    cpus = os.cpu_count() or 1
    env = os.environ.get("SUBSEC_THREADS")
    if env is not None:
        try:
            return max(1, min(int(env), cpus))
        except ValueError:
            raise ValueError(f"SUBSEC_THREADS={env!r} is not an integer") from None
    return cpus


def ordered_map(fn, items, workers: int | None = None) -> list:
    items = list(items)
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    chunksize = -(-len(items) // (8 * workers))
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
