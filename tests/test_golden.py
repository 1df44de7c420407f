"""Golden reports: `verify` and `conjecture` output must stay byte-identical.

Each case runs ``cli.main`` in-process on an input under ``tests/golden`` (or
the bundled corpus) and compares stdout with the recorded file of the same
name; the run must exit 0 and print nothing to stderr, when recorded too.
The cases cover every report format, precondition skips, vertex-cap and
node-budget skips, violations, the g16/r024 parameter, and graph ids taken
from input lines with a ``>>graph6<<`` header and blank lines.

To re-record after an intended change of the reports (only on purpose):
``PYTHONPATH=src python tests/test_golden.py --record``.
"""

import sys
from pathlib import Path

import pytest

import subsec

from conftest import run_main

GOLDEN = Path(__file__).parent / "golden"
CORPUS6 = str(Path(subsec.__file__).parent / "data" / "connected_upto6.g6")
UPTO5 = str(GOLDEN / "upto5.g6")
BUDGET = str(GOLDEN / "budget.g6")
HEADER = str(GOLDEN / "header.g6")

CASES = {
    "verify-corpus6.tsv": ["verify", "--theorem", "prop1,g12,star2,conj", "--corpus", CORPUS6],
    "verify-corpus6.jsonl": ["verify", "--theorem", "prop1,g12,star2,conj", "--output", "jsonl",
                             "--corpus", CORPUS6],
    "verify-corpus6.txt": ["verify", "--theorem", "prop1,g12,star2,conj", "--output", "text",
                           "--corpus", CORPUS6],
    "conjecture-corpus6.tsv": ["conjecture", "--corpus", CORPUS6],
    "conjecture-corpus6.jsonl": ["conjecture", "--output", "jsonl", "--corpus", CORPUS6],
    "conjecture-corpus6.txt": ["conjecture", "--output", "text", "--corpus", CORPUS6],
    "verify-upto5-n6.tsv": ["verify", "--theorem", "prop1,g12,star2,g13,g14,g15,g16,conj",
                            "-n", "6", "--corpus", UPTO5],
    "verify-upto5-r024.tsv": ["verify", "--theorem", "r024", "-n", "7", "--corpus", UPTO5],
    "verify-budget.tsv": ["verify", "--theorem", "prop1,g12,star2,g13,conj", "--max-nodes", "200",
                          "--corpus", BUDGET],
    "conjecture-budget.tsv": ["conjecture", "--max-nodes", "200", "--corpus", BUDGET],
    "verify-header.tsv": ["verify", "--theorem", "prop1,conj", "--corpus", HEADER],
    "conjecture-header.txt": ["conjecture", "--output", "text", "--corpus", HEADER],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    assert run_main(CASES[name]) == (0, (GOLDEN / name).read_bytes().decode(), "")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for name, args in CASES.items():
        code, out, err = run_main(args)
        assert (code, err) == (0, ""), (name, err)
        (GOLDEN / name).write_bytes(out.encode())
