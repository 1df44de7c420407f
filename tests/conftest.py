import contextlib
import io
import os
import signal
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

import subsec
from subsec import cli, generate, is_connected, make_graph
from subsec.solver import DEFAULT_BUDGET, _exact, _first_naive

# The directory that holds the package under test, and the environment of a
# test's subsec process: that directory first on PYTHONPATH, and without
# PYTHONUNBUFFERED, so printed rows wait in the stdout buffer until a flush,
# as they do for a user. Two warnings are errors in it: an EncodingWarning,
# so a child fails on I/O that depends on the locale, and, on Python 3.12+,
# the DeprecationWarning of a fork from a process with threads.
SRC = Path(subsec.__file__).resolve().parents[1]
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"} | {
    "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
    "PYTHONWARNDEFAULTENCODING": "1",
    "PYTHONWARNINGS": "error::EncodingWarning,error:This process:DeprecationWarning"}
# The seconds a test gives a run of the CLI, in-process or as a child, so a
# hang fails the test instead of stalling the suite.
LIMIT = 60


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed, and again
    on the way out if the body caught it (``cli.main`` turns every OSError
    into an exit code). Inside another limit the outer alarm stays alone."""
    if signal.getitimer(signal.ITIMER_REAL)[0]:
        yield
        return
    expired = []

    def expire(signum, frame):
        expired.append(signum)
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise TimeoutError(f"no return within {seconds} s")


@pytest.fixture
def deadline():
    """Fail a test that has not finished within 30 s instead of letting it hang."""
    with time_limit(30):
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_main(argv, stdin=b""):
    """``cli.main(argv)`` on ``stdin`` (bytes, or text sent as UTF-8) with
    its three streams backed by bytes, bounded to LIMIT seconds: the exit
    code, stdout and stderr as text. The run must leave no child process."""
    if isinstance(stdin, str):
        stdin = stdin.encode()
    out, err = io.BytesIO(), io.BytesIO()
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    try:
        with time_limit(LIMIT):
            code = cli.main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
        # before the wrappers are dropped, which closes the buffers
        printed = out.getvalue().decode(), err.getvalue().decode()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams
    assert_no_child_left()
    return code, *printed


def python(*args, stdin=b"", **kwargs):
    """``python *args`` run in ENV on ``stdin``, bounded to LIMIT seconds, with
    stdout and stderr captured; a str ``stdin`` makes it a text-mode run.
    ``kwargs`` go to ``subprocess.run`` and override those defaults."""
    defaults = {"env": ENV, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                "text": isinstance(stdin, str), "timeout": LIMIT}
    return subprocess.run([sys.executable, *args], input=stdin, **(defaults | kwargs))


def naive_exact(g, secure=True):
    """gamma_s (or gamma, unless ``secure``) of ``g`` by the naive scan: the
    definitional check on every subset of each size in lexicographic order,
    the reference the tests check the branch search against."""
    return _exact(g, DEFAULT_BUDGET, secure, _first_naive)


def path(n):
    return generate("path", n)


def cycle(n):
    return generate("cycle", n)


def star(n):
    return generate("star", n)


def complete(n):
    return generate("complete", n)


def wheel_rim6():
    """Hexagon rim plus a hub adjacent to all six rim vertices (7n, 12m)."""
    return generate("wheel", 6)


@st.composite
def graphs(st_draw, min_n=1, max_n=8):
    n = st_draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = st_draw(st.integers(0, (1 << len(pairs)) - 1))
    return make_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@st.composite
def bipartite_graphs(st_draw, max_n=10):
    """Random graphs with every edge across a split of the ids: triangle-free."""
    n = st_draw(st.integers(1, max_n))
    side = st_draw(st.integers(0, n))
    pairs = [(u, v) for u in range(side) for v in range(side, n)]
    mask = st_draw(st.integers(0, (1 << len(pairs)) - 1))
    return make_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@st.composite
def connected_graphs(st_draw, min_n=1, max_n=7):
    g = st_draw(graphs(min_n=min_n, max_n=max_n).filter(is_connected))
    return g


@pytest.fixture(scope="session")
def small_connected_corpus():
    """All connected graphs on at most 5 vertices (31 of them)."""
    from subsec import enumerate_connected

    out = []
    for n in range(1, 6):
        out.extend(enumerate_connected(n))
    return out
