"""Ordered fan-out of per-graph work to forked worker processes.

``ordered_map(fn, items, workers)`` gives the results of ``fn`` on
``items`` as a generator of lists, whose concatenation is the results in
input order. SUBSEC_THREADS caps the worker count; the default, and the
ceiling, is the number of CPUs this process may run on. For more than one
worker the calling process forks them all, and they inherit the function
and the items, so neither is pickled and no worker starts from a fresh
import. The caller computes nothing itself: it only waits for results and
hands them on, so it is free to read a worker's pipe whenever the worker
writes.

Items go out in chunks of an eighth of each worker's share, rounded up, so a
corpus of many small solves costs a few handouts per worker instead of one
per graph, while the chunks stay small enough to even out unequal solves.
Each chunk's number is a fixed-size record in one pipe, written before the
fork; every worker takes the next record whenever it is free, until the pipe
is empty. A worker sends the results of each chunk it finishes as one
``marshal`` frame, its length first, through a pipe of its own, so results
must be values ``marshal`` carries (numbers, strings, None, tuples, lists,
dicts). The caller waits on those pipes and reads a frame whole as soon as
its pipe is readable. It hands on one list per chunk, in input order, as
soon as every earlier chunk is in, holding only the chunks that finished
out of order. So output is byte-identical however many workers ran. With
one worker, or without ``os.fork``, the items are mapped lazily in the
calling process, one list per item, and the results are passed through
unchecked.

The handout is dynamic (the chunk-number pipe, ``poll``, the reorder buffer)
because it is faster: a round-robin pool was 25 lines shorter, but this one
won 12 of 14 alternating 15 s ``corpus7`` benchmark pairs on a 2-core host
(medians 1.047 s against 1.081 s).

A worker's exception, a result ``marshal`` cannot carry included, is raised
again in the caller at its chunk's place, after the results before it; one
that cannot be pickled arrives as a RuntimeError naming it, and a worker
that ends without sending its results raises RuntimeError. ``pickle`` is
loaded only to carry an exception. On every way out (the last result, an
exception, or a consumer that stops early and closes the generator) the
caller has reaped every worker it forked, SIGKILLing those it did not see
end.
"""

from __future__ import annotations

import marshal
import os

_RECORD = 4  # bytes per chunk number in the handout pipe
_LENGTH = 8  # bytes of a result frame's length
# At most this many chunks, so the whole handout fits in one page, the least
# a pipe holds, and writing it before any worker reads never blocks. Below
# 128 workers the eighth-of-a-share rule stays under it.
_MAX_CHUNKS = 4096 // _RECORD


def worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get("SUBSEC_THREADS")
    if env is not None:
        try:
            return max(1, min(int(env), cpus))
        except ValueError:
            raise ValueError(f"SUBSEC_THREADS={env!r} is not an integer") from None
    return cpus


def ordered_map(fn, items, workers: int | None = None):
    items = list(items)
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1 or not hasattr(os, "fork"):
        return ([fn(item)] for item in items)
    workers = min(workers, len(items))
    size = max(-(-len(items) // (8 * workers)), -(-len(items) // _MAX_CHUNKS))
    chunks = [items[start:start + size] for start in range(0, len(items), size)]
    return _fan_out(fn, chunks, workers)


def _fan_out(fn, chunks: list[list], workers: int):
    """The results of ``chunks`` from ``workers`` forks, one list per chunk,
    in input order."""
    import select
    import signal

    handout, feed = os.pipe()
    forked = {}  # read end of a worker's result pipe -> its pid, until reaped
    try:
        # Closed before the fork, so a worker that finds the pipe empty is done.
        with open(feed, "wb") as pipe:
            pipe.write(b"".join(index.to_bytes(_RECORD, "little") for index in range(len(chunks))))
        for _ in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _serve(fn, chunks, handout, write_end, (read_end, *forked))
            os.close(write_end)
            forked[read_end] = pid
        poller = select.poll()
        for read_end in forked:
            poller.register(read_end, select.POLLIN)
        done = {}  # chunk number -> its results (or a pickled exception), not yet handed on
        for index in range(len(chunks)):
            while index not in done:
                if not forked:
                    raise RuntimeError("the pool workers ended before sending every result")
                for read_end, _ in poller.poll():
                    # A worker writes each frame whole, once its chunk is
                    # done, so reading one to its end waits on no solve.
                    length = _read(read_end, _LENGTH)
                    if len(length) == _LENGTH:
                        frame = _read(read_end, size := int.from_bytes(length, "little"))
                        if len(frame) == size:
                            chunk, sent = marshal.loads(frame)
                            done[chunk] = sent
                            continue
                    # The pipe ends when its worker exits, which it does with
                    # 0 only once all it sent was written.
                    pid = forked.pop(read_end)
                    poller.unregister(read_end)
                    os.close(read_end)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code != 0 or length:
                        raise RuntimeError(f"pool worker {pid} exited with code {code} before sending its results")
            sent = done.pop(index)
            if not isinstance(sent, list):  # the exception the chunk's worker met
                import pickle

                raise pickle.loads(sent)
            yield sent
    finally:
        os.close(handout)
        for read_end, pid in forked.items():  # the workers not yet reaped
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``, or fewer if the pipe ends first."""
    data = bytearray()
    while len(data) < size and (part := os.read(fd, size - len(data))):
        data += part
    return data


def _serve(fn, chunks: list[list], handout: int, out: int, read_ends: tuple[int, ...]) -> None:
    """A forked worker's whole life: work chunk by chunk, sending each one's
    results, or the exception it met and then stop, and leave with
    ``os._exit``, so that nothing of the caller's stack (its ``finally``
    blocks, buffered output, exit handlers) runs twice. The read ends of the
    result pipes it inherited are closed first: if the caller dies, the
    worker's next write fails instead of waiting for a reader for ever."""
    status = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        with open(out, "wb", closefd=False) as pipe:
            failed = False
            while not failed and (record := os.read(handout, _RECORD)):
                index = int.from_bytes(record, "little")
                try:
                    frame = marshal.dumps((index, [fn(item) for item in chunks[index]]))
                except Exception as exc:
                    frame = marshal.dumps((index, _pickled_error(exc)))
                    failed = True
                pipe.write(len(frame).to_bytes(_LENGTH, "little"))
                pipe.write(frame)
                pipe.flush()
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
