"""Record the rows the output checks compare against (bench/expected/*.tsv).

    python3 bench/record_expected.py

Each line is graph_id, theorem (or "conjecture"), exact value ("-" when
skipped) and status. The committed files were written by this script at
the seed commit; run it again only to re-pin the oracle on purpose.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import subsec  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _rows(lines, theorems, conjecture):
    pairs = [(line, subsec.parse_graph6(line)) for line in lines]
    out = [(c.graph_id, c.theorem_id, c.exact, c.status)
           for c in subsec.run_corpus(pairs, theorems, workers=workloads.THREADS)]
    if conjecture:
        report = subsec.conjecture_scan(pairs, workers=workloads.THREADS)
        out += [(r.graph_id, "conjecture", r.value, r.status) for r in report.rows]
    return out


def main() -> int:
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, theorems, conjecture in (("verify6", workloads.THEOREMS6, False),
                                       ("corpus7", workloads.THEOREMS7, True)):
        rows = _rows(workloads.make_input(name, 0), theorems, conjecture)
        with open(checks.EXPECTED_DIR / f"{name}.tsv", "w", encoding="utf-8") as handle:
            for gid, theorem, exact, status in rows:
                handle.write(f"{gid}\t{theorem}\t{'-' if exact is None else exact}\t{status}\n")
        print(f"{name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
