import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import subsec
from subsec import _pool, bounds, bundled_corpus, run_corpus

PARENT = os.getpid()


@pytest.fixture
def deadline():
    """Fail a test that has not finished within 30 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("the pool did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def slow_in_parent(x):
    # The caller works more slowly than its forks, so every fork takes chunks.
    if os.getpid() == PARENT:
        time.sleep(0.005)
    return x


class _Unpicklable(Exception):
    def __init__(self, a, b):  # pickles, but cannot be rebuilt from its args
        super().__init__(f"{a}-{b}")


class TestOrderedMap:
    @pytest.mark.parametrize("count, workers", [(57, 2), (57, 4), (3, 4)])
    def test_input_order_kept_over_many_chunks(self, deadline, count, workers):
        items = list(range(count))
        assert _pool.ordered_map(lambda x: -slow_in_parent(x), items, workers) == [-i for i in items]
        assert_no_child_left()

    def test_a_lambda_runs_in_the_forks(self, deadline):
        assert _pool.ordered_map(lambda x: x * 10, range(20), 2) == [x * 10 for x in range(20)]
        assert_no_child_left()

    def test_the_caller_works_too(self, deadline):
        def pid(x):
            time.sleep(0.005)
            return os.getpid()

        pids = set(_pool.ordered_map(pid, range(50), 2))
        assert PARENT in pids and len(pids) == 2

    def test_an_exception_in_a_fork_reaches_the_caller(self, deadline):
        def fail_in_fork(x):
            if os.getpid() != PARENT:
                raise ValueError(f"bad item {x}")
            return slow_in_parent(x)

        with pytest.raises(ValueError, match=r"^bad item \d+$"):
            _pool.ordered_map(fail_in_fork, range(50), 2)
        assert_no_child_left()

    def test_an_unpicklable_exception_arrives_named(self, deadline):
        def fail_in_fork(x):
            if os.getpid() != PARENT:
                raise _Unpicklable("x", "y")
            return slow_in_parent(x)

        with pytest.raises(RuntimeError, match="raised _Unpicklable: x-y"):
            _pool.ordered_map(fail_in_fork, range(50), 2)
        assert_no_child_left()

    def test_a_fork_that_dies_raises(self, deadline):
        def die_in_fork(x):
            if os.getpid() != PARENT:
                os._exit(3)
            return slow_in_parent(x)

        with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
            _pool.ordered_map(die_in_fork, range(50), 2)
        assert_no_child_left()

    def test_an_exception_in_the_caller_stops_the_forks(self, deadline):
        def fail_in_caller(x):
            if os.getpid() == PARENT:
                raise KeyError(x)
            time.sleep(60)  # killed, not waited for

        with pytest.raises(KeyError):
            _pool.ordered_map(fail_in_caller, range(50), 4)
        assert_no_child_left()

    @pytest.mark.parametrize("items, workers", [([1, 2, 3], 1), ([7], 4), ([], 4)])
    def test_in_process_for_one_worker_or_at_most_one_item(self, monkeypatch, items, workers):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _pool.ordered_map(lambda x: x * 10, items, workers=workers) == [x * 10 for x in items]


class TestWorkerCount:
    @pytest.mark.parametrize("env, cpus, expected", [
        ("100000", 2, 2), ("3", 8, 3), ("0", 4, 1), (None, 6, 6), (None, None, 1), ("5", None, 1),
    ])
    def test_capped_at_the_cpu_count(self, monkeypatch, env, cpus, expected):
        if env is None:
            monkeypatch.delenv("SUBSEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("SUBSEC_THREADS", env)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
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
    src = str(Path(subsec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, subsec.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
