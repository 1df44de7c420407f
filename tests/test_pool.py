import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from subsec import _pool, bounds, bundled_corpus, run_corpus

from conftest import ENV, assert_no_child_left, python

PARENT = os.getpid()
CALLER = """
import time
from subsec import _pool

def fn(x):
    time.sleep(0.05)
    return "x" * 100_000

results = _pool.ordered_map(fn, range(40), 2)
next(results)
print("first", flush=True)
time.sleep(60)
"""


class _Unpicklable(Exception):
    def __init__(self, a, b):  # pickles, but cannot be rebuilt from its args
        super().__init__(f"{a}-{b}")


def flat(chunks):
    """The results that ``ordered_map`` gives as lists, in one list."""
    return [result for chunk in chunks for result in chunk]


def uneven(x):
    # Some items take longer, so later chunks can finish before earlier ones.
    time.sleep(0.002 if x % 7 < 3 else 0)
    return -x


class TestOrderedMap:
    @pytest.mark.parametrize("count, workers", [(57, 2), (57, 4), (3, 4)])
    def test_input_order_kept_over_many_chunks(self, deadline, count, workers):
        items = list(range(count))
        assert flat(_pool.ordered_map(uneven, items, workers)) == [-i for i in items]
        assert_no_child_left()

    def test_a_lambda_runs_in_the_forks(self, deadline):
        assert flat(_pool.ordered_map(lambda x: x * 10, range(20), 2)) == [x * 10 for x in range(20)]
        assert_no_child_left()

    def test_the_forks_do_all_the_work(self, deadline):
        def pid(x):
            time.sleep(0.005)
            return os.getpid()

        pids = set(flat(_pool.ordered_map(pid, range(50), 2)))
        assert PARENT not in pids and len(pids) == 2
        assert_no_child_left()

    def test_the_first_result_comes_before_the_last_item_is_done(self, deadline):
        # The last item waits for a byte that is sent only once the first
        # result is in: a pool that held its results until the end would
        # wait for ever (and the deadline would fail the test).
        gate, release = os.pipe()

        def fn(x):
            if x == 49:
                os.read(gate, 1)
            return x

        try:
            results = _pool.ordered_map(fn, range(50), 2)
            first = next(results)
            assert first[0] == 0 and 49 not in first
            os.write(release, b"!")
            assert first + flat(results) == list(range(50))
        finally:
            os.close(gate)
            os.close(release)
        assert_no_child_left()

    def test_a_worker_that_ends_first_is_reaped_where_its_pipe_ends(self, deadline):
        # Two one-item chunks, one per worker: item 0 waits until item 1 is
        # taken, and item 1 waits on a gate. So the worker of item 0 exits
        # while the caller still waits for item 1, and the caller next polls
        # that worker's pipe at its end, before the last chunk is in.
        taken, take = os.pipe()
        gate, release = os.pipe()

        def fn(x):
            if x == 0:
                os.read(taken, 1)
            else:
                os.write(take, b"!")
                os.read(gate, 1)
            return x

        try:
            results = _pool.ordered_map(fn, [0, 1], 2)
            assert next(results) == [0]
            # a child that has exited, seen without reaping it
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                time.sleep(0.01)
            os.write(release, b"!")
            assert flat(results) == [1]
        finally:
            for fd in (taken, take, gate, release):
                os.close(fd)
        assert_no_child_left()

    def test_an_exception_in_a_fork_reaches_the_caller(self, deadline):
        def fail(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(ValueError, match=r"^bad item \d+$"):
            list(_pool.ordered_map(fail, range(50), 2))
        assert_no_child_left()

    def test_a_fork_exception_is_raised_at_its_place(self, deadline):
        # 48 items on 2 workers go out in chunks of 3, so item 30 starts a
        # chunk: every result before it arrives first.
        def fail_at_30(x):
            if x == 30:
                raise ValueError("item 30")
            return uneven(x)

        got = []
        with pytest.raises(ValueError, match="^item 30$"):
            for chunk in _pool.ordered_map(fail_at_30, range(48), 2):
                got.extend(chunk)
        assert got == [-x for x in range(30)]
        assert_no_child_left()

    def test_a_result_marshal_cannot_carry_raises_at_its_place(self, deadline):
        # As above, item 30 starts a chunk of 3; its Fraction cannot cross
        # the worker's pipe.
        def fraction_at_30(x):
            return Fraction(x, 7) if x == 30 else uneven(x)

        got = []
        with pytest.raises(ValueError, match="unmarshallable object"):
            for chunk in _pool.ordered_map(fraction_at_30, range(48), 2):
                got.extend(chunk)
        assert got == [-x for x in range(30)]
        assert_no_child_left()

    def test_results_larger_than_a_pipe_arrive_whole_and_in_order(self, deadline):
        # Each chunk's frame outgrows a 64 KiB pipe, so the caller must read
        # it while its worker is still writing.
        def large(x):
            return uneven(x), bytes([x]) * 100_000

        assert flat(_pool.ordered_map(large, range(40), 2)) == [(-x, bytes([x]) * 100_000) for x in range(40)]
        assert_no_child_left()

    def test_an_unpicklable_exception_arrives_named(self, deadline):
        def fail(x):
            raise _Unpicklable("x", "y")

        with pytest.raises(RuntimeError, match="raised _Unpicklable: x-y"):
            list(_pool.ordered_map(fail, range(50), 2))
        assert_no_child_left()

    def test_a_fork_that_dies_raises(self, deadline):
        def die(x):
            os._exit(3)

        with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
            list(_pool.ordered_map(die, range(50), 2))
        assert_no_child_left()

    @pytest.mark.parametrize("stop", ["close", "raise"])
    def test_a_consumer_that_stops_early_leaves_no_child(self, deadline, stop):
        def slow_after_the_first(x):
            if x >= 25:  # in a later chunk than item 0
                time.sleep(60)  # killed, not waited for
            return x

        def write(row):
            if stop == "raise":
                raise BrokenPipeError  # the reader of the rows is gone

        results = _pool.ordered_map(slow_after_the_first, range(50), 4)
        try:
            write(next(results))
        except BrokenPipeError:
            pass
        finally:
            results.close()
        assert_no_child_left()

    def test_workers_end_when_their_caller_is_killed(self, deadline):
        # The caller stops reading after the first result, so its workers
        # block writing their large results; once it is killed, no reader is
        # left on their pipes and their writes fail. The caller's process
        # group holds only it and its workers.
        caller = subprocess.Popen([sys.executable, "-c", CALLER], env=ENV, stdout=subprocess.PIPE,
                                  start_new_session=True)
        try:
            assert caller.stdout.readline() == b"first\n"
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
        for _ in range(200):
            try:
                os.killpg(caller.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.1)
        os.killpg(caller.pid, signal.SIGKILL)
        pytest.fail("a worker outlived its caller")

    @pytest.mark.parametrize("items, workers", [([1, 2, 3], 1), ([7], 4), ([], 4)])
    def test_in_process_for_one_worker_or_at_most_one_item(self, monkeypatch, items, workers):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        results = _pool.ordered_map(lambda x: x * 10, items, workers=workers)
        assert flat(results) == [x * 10 for x in items]

    def test_in_process_is_lazy(self):
        done = []
        results = _pool.ordered_map(done.append, range(3), workers=1)
        assert done == []
        next(results)
        assert done == [0]


class TestWorkerCount:
    @pytest.mark.parametrize("env, cpus, expected", [
        ("100000", 2, 2), ("3", 8, 3), ("0", 4, 1), (None, 6, 6), (None, None, 1), ("5", None, 1),
    ])
    def test_capped_at_the_cpu_count(self, monkeypatch, env, cpus, expected):
        # where the CPUs a process may run on cannot be asked for
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        if env is None:
            monkeypatch.delenv("SUBSEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("SUBSEC_THREADS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _pool.worker_count() == expected

    @pytest.mark.parametrize("env, allowed, expected", [
        (None, {0}, 1), ("2", {0}, 1), (None, {0, 1, 2}, 3), ("2", {1, 3, 5}, 2), ("9", {1, 3, 5}, 3),
    ])
    def test_capped_at_the_cpus_this_process_may_run_on(self, monkeypatch, env, allowed, expected):
        # as under `taskset -c 0` on a machine of 8 CPUs
        if env is None:
            monkeypatch.delenv("SUBSEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("SUBSEC_THREADS", env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _pool.worker_count() == expected


class TestRunCorpusForked:
    def test_two_workers_equal_one_from_an_empty_cache(self, deadline):
        corpus = bundled_corpus()[:40]
        theorems = ["prop1", "g12", "conj"]
        # Pool first, from an empty solve cache, so no fork inherits a solve
        # made in this process.
        bounds._solve.cache_clear()
        pooled = run_corpus(corpus, theorems, workers=2)
        lone = run_corpus(corpus, theorems, workers=1)
        assert len(lone) == 120 and lone == pooled
        assert_no_child_left()


def test_cli_import_starts_no_pool_machinery():
    # A gamma-s run or an empty input never starts a pool, so it should not
    # pay for importing one.
    code = "import sys, subsec.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = python("-c", code, stdin="")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
