import operator
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import subsec
from subsec import _pool, bounds, bundled_corpus, run_corpus


class _RecordingPool(ProcessPoolExecutor):
    """A real process pool that records the chunk size of each map call."""

    chunksizes: list[int] = []

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        self.chunksizes.append(chunksize)
        return super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "chunksizes", [])
    # ordered_map imports the pool class only when it starts a pool.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


class TestOrderedMap:
    def test_input_order_kept_across_multi_item_chunks(self, recording_pool):
        items = list(range(50))
        assert _pool.ordered_map(operator.neg, items, workers=2) == [-i for i in items]
        # 50 items over 2 workers go out in chunks of ceil(50 / 16) = 4.
        assert recording_pool.chunksizes == [4]

    def test_chunks_shrink_to_one_item_on_short_inputs(self, recording_pool):
        assert _pool.ordered_map(operator.neg, [1, 2, 3], workers=4) == [-1, -2, -3]
        assert recording_pool.chunksizes == [1]

    @pytest.mark.parametrize("items, workers", [([1, 2, 3], 1), ([7], 4), ([], 4)])
    def test_in_process_for_one_worker_or_at_most_one_item(self, monkeypatch, items, workers):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _NoPool)
        # A lambda cannot be pickled, so this passes only without a pool.
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


class TestRunCorpusChunked:
    def test_two_workers_equal_one(self, recording_pool):
        corpus = bundled_corpus()[:40]
        theorems = ["prop1", "g12", "conj"]
        # Pool first, from an empty solve cache, so no worker inherits a
        # solve made in this process.
        bounds._solve.cache_clear()
        pooled = run_corpus(corpus, theorems, workers=2)
        lone = run_corpus(corpus, theorems, workers=1)
        assert recording_pool.chunksizes == [3]
        assert len(lone) == 120 and lone == pooled


def test_cli_import_starts_no_pool_machinery():
    # A gamma-s run or an empty input never starts a pool, so it should not
    # pay for importing one.
    src = str(Path(subsec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, subsec.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
