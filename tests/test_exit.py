"""The process exit: ``python -m subsec`` leaves with ``os._exit`` once its
output is flushed, and prints exactly what ``cli.main`` prints in-process,
byte for byte, with the same exit status."""

import ast
import hashlib
import os
import re
import subprocess
import sys

import pytest

from conftest import ENV, SRC, python, run_main
from test_enumeration import ENUM7_SHA256

CORPUS_FILE = SRC / "subsec" / "data" / "connected_upto6.g6"
CORPUS = CORPUS_FILE.read_bytes()


@pytest.mark.parametrize("argv, stdin, code", [
    (["gamma-s"], CORPUS, 0),
    (["verify", "--theorem", "g14", "--fail-on-violation"], CORPUS, 2),
    (["subdivide", "--k", "0"], b"Ch\n", 64),
    (["gamma"], b"Ch\n\xff\n", 65),
    (["verify", "--help"], b"", 0),
    # 1000 rows, 2000 bytes: under the 4 KiB stdout buffer Python gives a
    # pipe, so all of them are still buffered at the error
    (["subdivide", "--k", "1000000000"], b"@\n" * 1000 + b"A_\n", 64),
    # about 240 KB, several pipe buffers
    (["gen", "--family", "path", "--n", "20000", "--format", "edges"], b"", 0),
    # the 143 bases go out in 16 chunks, which two workers finish out of order
    (["verify", "--theorem", "prop1,g12,star2,conj", "--output", "text", "--corpus",
      str(CORPUS_FILE)], b"", 0),
    (["conjecture", "--output", "jsonl"], CORPUS, 0),
    # a non-ASCII space (0xa0) between the fields of an edge line
    (["gamma", "--format", "edges"], b"p 3\ne 0\xa01\n", 65),
    # the n = 7k + r rule of g16 and general loads from subdivision
    (["verify", "--theorem", "g16", "-n", "9"], b"", 64),
    (["cert", "--theorem", "general", "-n", "9"], b"", 64),
], ids=["exit-0", "violations-2", "bad-k-64", "bad-byte-65", "help", "rows-then-64", "large",
        "verify-corpus-file", "conjecture", "bad-space-65", "g16-rule-64", "general-rule-64"])
def test_process_prints_what_main_prints(argv, stdin, code):
    # A child imports each module as its command needs it, where the test
    # process has them all; it prints the same bytes at one worker and at two.
    printed = run_main(argv, stdin)
    for threads in ("1", "2"):
        proc = python("-m", "subsec", *argv, stdin=stdin, env=ENV | {"SUBSEC_THREADS": threads})
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == printed
    assert proc.returncode == code
    assert (proc.stderr == b"") == (code in (0, 2))


@pytest.mark.parametrize("into", ["pipe", "file"])
def test_enum_output_arrives_whole(into, tmp_path):
    if into == "pipe":
        out = python("-m", "subsec", "enum", "--n", "7").stdout
    else:
        path = tmp_path / "enum7.g6"
        with open(path, "wb") as handle:
            assert python("-m", "subsec", "enum", "--n", "7", stdout=handle).returncode == 0
        out = path.read_bytes()
    assert hashlib.sha256(out).hexdigest() == ENUM7_SHA256


@pytest.mark.parametrize("argv, stdin, err", [
    (["gamma-s"], b"Ch\n", b""),
    (["subdivide", "--k", "1000000000"], b"@\n" * 1000 + b"A_\n",
     b"usage error: vertex count 1000000001 is too large to build\n"),
    (["--help"], b"", b""),
    (["verify", "--help"], b"", b""),
    (["enum", "--n", "5"], b"", b""),
], ids=["done", "rows-then-64", "help", "verify-help", "enum"])
def test_closed_stdout_at_the_last_flush_is_141(argv, stdin, err):
    # The output fits in the stdout buffer (enum's 21 lines too), so the
    # first write to the closed pipe is the flush before the exit, as under
    # `| head -0`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = python("-m", "subsec", *argv, stdin=stdin, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", [["verify", "--theorem", "prop1,g12,star2,conj"], ["conjecture"]],
                         ids=["verify", "conjecture"])
def test_a_pipe_closed_after_the_first_row_is_141(argv, threads):
    # Rows leave as they finish, so the reader has the first one while the
    # rest of the corpus (ten copies of the bundled one) is still being
    # graded; its next write then meets the closed pipe. The run is its own
    # process group, which is empty once the run has reaped every worker.
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "subsec", *argv], stdin=subprocess.PIPE,
                            stdout=write_end, stderr=subprocess.PIPE,
                            env=ENV | {"SUBSEC_THREADS": threads}, start_new_session=True)
    os.close(write_end)
    try:
        proc.stdin.write(CORPUS * 10)
        proc.stdin.close()
        with open(read_end, "rb") as reader:
            assert reader.readline().startswith(b"graph_id\t")
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


VIOLATIONS = ["verify", "--theorem", "g14", "--fail-on-violation"]


@pytest.mark.parametrize("fd, argv, stdin, threads, code, printed", [
    (1, ["subdivide", "--k", "0"], b"Ch\n", "1", 64, b"usage error: subdivide needs --k >= 1, got 0\n"),
    (2, ["subdivide", "--k", "0"], b"Ch\n", "1", 64, b"usage error: subdivide needs --k >= 1, got 0\n"),
    (1, ["gen", "--family", "path", "--n", "4"], b"", "1", 0, b""),
    (1, ["--help"], b"", "1", 0, b""),
    (1, VIOLATIONS, CORPUS, "1", 2, b""),
    (1, VIOLATIONS, CORPUS, "2", 2, b""),
], ids=["stdout", "stderr", "stdout-gen", "stdout-help", "stdout-violations-1",
        "stdout-violations-2"])
def test_a_stream_closed_at_start_keeps_the_exit_status(fd, argv, stdin, threads, code, printed):
    # Python sets sys.stdout or sys.stderr to None when its descriptor is
    # closed at start. An error message printed to a None stderr goes to
    # stdout, and the run's output to a None stdout goes nowhere. The run is
    # its own process group, which is empty once the run has reaped every
    # worker.
    proc = subprocess.Popen([sys.executable, "-m", "subsec", *argv], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=ENV | {"SUBSEC_THREADS": threads},
                            preexec_fn=lambda: os.close(fd), start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == code
    assert out + err == printed
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, code", [
    (["subdivide", "--k", "0"], 141),
    (["gen", "--family", "path", "--n", "4"], 74),
], ids=["usage-error", "failed-write"])
def test_an_error_line_into_a_closed_stderr_keeps_the_first_failure(argv, code):
    # The reader of stderr is gone, so no error line can be written. A usage
    # error, which prints nothing to stdout, stops as if killed by SIGPIPE;
    # gen's write to /dev/full fails first, with ENOSPC, and keeps its code.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with open("/dev/full", "wb") as full:
            proc = python("-m", "subsec", *argv, stdin=b"Ch\n", stdout=full, stderr=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == code


# An exit handler that runs only if the interpreter tears down, which no
# exit of the CLI does.
TEARDOWN = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("teardown\\n"))
sys.argv = ["subsec", *sys.argv[1:]]
runpy.run_module("subsec", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [
    (["gamma-s"], 0),
    (["subdivide", "--k", "0"], 64),
    (["--help"], 0),
], ids=["done", "usage-error", "help"])
def test_no_exit_tears_the_interpreter_down(argv, code):
    proc = python("-c", TEARDOWN, *argv, stdin=b"Ch\n")
    assert proc.returncode == code
    assert not proc.stderr.endswith(b"teardown\n")
    assert proc.stdout.startswith(b"usage: subsec") == (argv == ["--help"])


def test_console_script_is_the_entry_main_module_calls():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^subsec = "(.+)"$', pyproject, re.MULTILINE).group(1)
    tree = ast.parse((SRC / "subsec" / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.name: f"subsec.{node.module}:{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [imported[node.func.id] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == [script] == ["subsec.cli:run"]


@pytest.mark.parametrize("argv", [
    ["gamma-s"], ["verify", "--theorem", "prop1,conj"], ["conjecture"], ["subdivide", "--k", "2"],
    ["cert", "--theorem", "half"],
], ids=["gamma-s", "verify", "conjecture", "subdivide", "cert"])
def test_a_closed_stdin_is_a_parse_error(argv):
    proc = python("-m", "subsec", *argv, preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        65, b"", b"parse error: standard input is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, threads", [
    (["gen", "--family", "path", "--n", "4"], "1"),
    (["enum", "--n", "5"], "1"),
    (["verify", "--theorem", "prop1,conj"], "1"),
    (["verify", "--theorem", "prop1,conj"], "2"),
    (["conjecture"], "1"),
    (["conjecture"], "2"),
], ids=["gen", "enum", "verify-1", "verify-2", "conjecture-1", "conjecture-2"])
def test_a_failed_write_is_one_error_line(argv, threads):
    # /dev/full refuses every write with ENOSPC. The run is its own process
    # group, which is empty once the run has reaped every worker.
    with open("/dev/full", "wb") as full:
        proc = subprocess.Popen([sys.executable, "-m", "subsec", *argv], stdin=subprocess.PIPE,
                                stdout=full, stderr=subprocess.PIPE,
                                env=ENV | {"SUBSEC_THREADS": threads}, start_new_session=True)
    try:
        _, err = proc.communicate(CORPUS, timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 74
    assert err.count(b"\n") == 1 and b"[Errno 28]" in err and err.startswith(b"error: ")
    assert b"Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
