"""Ordered fan-out of per-graph work to forked worker processes.

SUBSEC_THREADS caps the worker count; the default, and the ceiling, is the
machine's CPU count. The calling process is one of the workers: it forks the
others, which inherit the function and the items, so neither is pickled and
no worker starts from a fresh import.

Items go out in chunks of an eighth of each worker's share, rounded up, so a
corpus of many small solves costs a few handouts per worker instead of one
per graph, while the chunks stay small enough to even out unequal solves.
Each chunk's number is a fixed-size record in one pipe, written before the
fork; every worker, the caller too, takes the next record whenever it is
free, until the pipe is empty. A forked worker then sends its chunks'
results, pickled, through a pipe of its own and exits. Results always come
back in input order, so reports are byte-identical no matter how many
workers ran.

A worker's exception is raised again in the caller; one that cannot be
pickled arrives as a RuntimeError naming it, and a worker that ends without
sending its results raises RuntimeError. On every way out the caller has
reaped every worker it forked, SIGKILLing those it did not wait for to the
end. Without ``os.fork`` the work runs in the calling process.
"""

from __future__ import annotations

import os

_RECORD = 4  # bytes per chunk number in the handout pipe
# At most this many chunks, so the whole handout fits in one page, the least
# a pipe holds, and writing it before any worker reads never blocks. Below
# 128 workers the eighth-of-a-share rule stays under it.
_MAX_CHUNKS = 4096 // _RECORD


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
    if workers <= 1 or len(items) <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    size = max(-(-len(items) // (8 * workers)), -(-len(items) // _MAX_CHUNKS))
    chunks = [items[start:start + size] for start in range(0, len(items), size)]
    done = _fan_out(fn, chunks, workers)
    return [result for index in range(len(chunks)) for result in done[index]]


def _fan_out(fn, chunks: list[list], workers: int) -> dict[int, list]:
    """{chunk number: its results} from the caller and ``workers - 1`` forks."""
    import pickle
    import signal

    handout, feed = os.pipe()
    forked = {}  # pid -> read end of the pipe its results come back on
    try:
        # Closed before the fork, so a worker that finds the pipe empty is done.
        with open(feed, "wb") as pipe:
            pipe.write(b"".join(index.to_bytes(_RECORD, "little") for index in range(len(chunks))))
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _serve(fn, chunks, handout, write_end)
            os.close(write_end)
            forked[pid] = read_end
        done = _work(fn, chunks, handout)
        for pid, read_end in list(forked.items()):
            # A worker blocks in its write until the caller reads, so read
            # to the end before waiting. The pipe ends when the worker exits,
            # and it exits with 0 only once all it sent was written.
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(forked.pop(pid))
            if code != 0:
                raise RuntimeError(f"pool worker {pid} exited with code {code} before sending its results")
            sent = pickle.loads(data)
            if isinstance(sent, BaseException):
                raise sent
            done.update(sent)
        return done
    finally:
        os.close(handout)
        for pid, read_end in forked.items():  # the workers not yet reaped
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fn, chunks: list[list], handout: int) -> dict[int, list]:
    done = {}
    while record := os.read(handout, _RECORD):
        index = int.from_bytes(record, "little")
        done[index] = [fn(item) for item in chunks[index]]
    return done


def _serve(fn, chunks: list[list], handout: int, out: int) -> None:
    """A forked worker's whole life: work, send what it did or the exception
    it met, and leave with ``os._exit``, so that nothing of the caller's stack
    (its ``finally`` blocks, buffered output, exit handlers) runs twice."""
    import pickle  # already loaded by the caller

    status = 1
    try:
        try:
            data = pickle.dumps(_work(fn, chunks, handout))
        except Exception as exc:
            data = _pickled_error(exc)
        with open(out, "wb", closefd=False) as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: Exception) -> bytes:
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)  # some exceptions pickle but cannot be rebuilt
        return data
    except Exception:
        return pickle.dumps(RuntimeError(
            f"a pool worker raised {type(exc).__name__}: {exc} (which cannot be pickled)"))
