"""Output checks: every row a workload prints is checked against an oracle.

Each failed row, and each command that exits non-zero or prints a traceback,
counts once in ``Verdict.failed``; nothing aborts the run. The oracles:

- ``verify``/``conjecture`` rows: the exact value and status recorded at the
  seed commit (``expected/*.tsv``). A row that was skipped there may now be
  exact; its status must then match a regrade of the row's own bound terms.
- ``gamma-s`` rows of paths and cycles: the closed form ceil(3n/7).
- Every witness: its size equals the value and it passes the definitional
  domination or secure-domination check.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Run:
    """One finished CLI command."""

    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


@dataclass
class Verdict:
    attempted: int = 0
    rows_exact: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.rows_exact += other.rows_exact
        self.failures.extend(other.failures)


def load_expected(name: str) -> dict[tuple[str, str], tuple[int | None, str]]:
    """(graph_id, theorem) -> (exact or None, status) recorded at the seed commit."""
    out = {}
    with open(EXPECTED_DIR / f"{name}.tsv", encoding="utf-8") as handle:
        for line in handle:
            gid, theorem, exact, status = line.rstrip("\n").split("\t")
            out[(gid, theorem)] = (None if exact == "-" else int(exact), status)
    return out


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def grade(theorem: str, exact: int, lower, upper, equality) -> str:
    """The status a row's exact value earns against its own claim terms.

    ``conj`` is the only strict lower bound in the catalog.
    """
    if equality is not None:
        return "tight" if exact == equality else "violated"
    strict = theorem == "conj"
    low = None if lower is None else Fraction(str(lower))
    if low is not None and (exact <= low if strict else exact < low):
        return "violated"
    if upper is not None and exact > upper:
        return "violated"
    if (low is not None and not strict and exact == low) or (upper is not None and exact == upper):
        return "tight"
    return "holds"


def _command_ok(verdict: Verdict, run: Run) -> bool:
    verdict.attempted += 1
    if run.code != 0 or "Traceback" in run.stderr:
        verdict.failures.append(f"{' '.join(run.argv[:2])}: exit {run.code}: {run.stderr.strip()[-200:]}")
        return False
    return True


def _jsonl(verdict: Verdict, text: str) -> tuple[list[dict], dict | None]:
    """Row records and the trailing summary record of a jsonl report."""
    rows, summary = [], None
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            verdict.failures.append(f"not JSON: {line[:80]}")
            continue
        if "summary" in record:
            summary = record["summary"]
        else:
            rows.append(record)
    return rows, summary


def _aligned(verdict: Verdict, rows: list[dict], keys: list[tuple[str, str]], key_of):
    """Pair each expected key with the row printed for it; a missing, extra or
    out-of-order row is a failure."""
    verdict.attempted += len(keys)
    got = [key_of(row) for row in rows]
    if got != keys:
        missing = len(set(keys) - set(got))
        extra = len(set(got) - set(keys))
        verdict.failures.append(f"row keys differ from input order ({missing} missing, {extra} extra)")
        verdict.failures.extend(["missing row"] * max(0, missing - 1))
        by_key = {key_of(row): row for row in rows}
        return [(key, by_key[key]) for key in keys if key in by_key]
    return list(zip(keys, rows))


def _recorded(verdict, key, value, status, expected) -> bool:
    """Compare an exact (value, status) with the seed record of its row."""
    if key not in expected:
        verdict.failures.append(f"{key}: no recorded row")
        return False
    rec_value, rec_status = expected[key]
    if rec_value is not None and (value, status) != (rec_value, rec_status):
        verdict.failures.append(f"{key}: {value} {status}, recorded {rec_value} {rec_status}")
        return False
    return True


def check_verify(run: Run, gids: list[str], theorems: list[str], expected) -> tuple[Verdict, dict]:
    """Check a ``verify --output jsonl`` report; also return gid -> conj value."""
    v = Verdict()
    conj = {}
    if not _command_ok(v, run):
        v.attempted += len(gids) * len(theorems)
        v.failures.extend(["missing row"] * (len(gids) * len(theorems)))
        return v, conj
    rows, summary = _jsonl(v, run.stdout)
    keys = [(gid, tid) for gid in gids for tid in theorems]
    tally = {"holds": 0, "tight": 0, "violated": 0, "skipped": 0}
    for key, row in _aligned(v, rows, keys, lambda r: (r.get("graph_id"), r.get("theorem"))):
        exact, status = row.get("exact"), row.get("status")
        if status in tally:
            tally[status] += 1
        if exact is None:
            if status != "skipped":
                v.failures.append(f"{key}: no exact value but status {status}")
            continue
        v.rows_exact += 1
        if key[1] == "conj":
            conj[key[0]] = exact
        if not _recorded(v, key, exact, status, expected):
            continue
        regraded = grade(key[1], exact, row.get("lower"), row.get("upper"), row.get("equality"))
        if status != regraded:
            v.failures.append(f"{key}: status {status}, its terms give {regraded}")
    v.attempted += 1
    if summary != tally:
        v.failures.append(f"summary {summary} != row tally {tally}")
    return v, conj


def check_conjecture(run: Run, graphs: list[tuple[str, int]], expected) -> tuple[Verdict, dict]:
    """Check a ``conjecture --output jsonl`` report; also return gid -> value."""
    v = Verdict()
    values = {}
    if not _command_ok(v, run):
        v.attempted += len(graphs)
        v.failures.extend(["missing row"] * len(graphs))
        return v, values
    rows, summary = _jsonl(v, run.stdout)
    order = {gid: n for gid, n in graphs}
    keys = [(gid, "conjecture") for gid, _ in graphs]
    ratios = {}
    for key, row in _aligned(v, rows, keys, lambda r: (r.get("graph_id"), "conjecture")):
        gid, n = key[0], order[key[0]]
        value, status = row.get("gamma_s_half"), row.get("status")
        if row.get("n") != n:
            v.failures.append(f"{gid}: n={row.get('n')}, graph has {n}")
            continue
        if value is None:
            if status != "skipped" or row.get("ratio") is not None:
                v.failures.append(f"{gid}: no value but status {status}")
            continue
        v.rows_exact += 1
        values[gid] = value
        ratios[gid] = ratio = Fraction(value, n)
        if not _recorded(v, key, value, status, expected):
            continue
        want = "counterexample" if 5 * value <= 4 * n else "ok"
        if status != want or row.get("ratio") != _fraction_text(ratio):
            v.failures.append(f"{gid}: {value} gives {want} {_fraction_text(ratio)}, row says "
                              f"{status} {row.get('ratio')}")
    v.attempted += 1
    low = min(ratios.values(), default=None)
    want_summary = {
        "min_ratio": None if low is None else _fraction_text(low),
        "witnesses": [gid for gid, _ in graphs if gid in ratios and ratios[gid] == low],
        "counterexamples": [gid for gid, _ in graphs if gid in values and 5 * values[gid] <= 4 * order[gid]],
        "skipped": [gid for gid, _ in graphs if gid not in values],
    }
    if summary != want_summary:
        v.failures.append("conjecture summary does not match its rows")
    return v, values


_SOLVE_LINE = re.compile(r"^value=(\d+) status=exact witness=(\d+(?:,\d+)*)$")


def check_solve(run: Run, graphs: list, secure: bool, sub, oracle=None) -> tuple[Verdict, list]:
    """Check ``gamma``/``gamma-s`` output: one exact line per input graph whose
    witness has the printed size and passes the definitional check. Returns
    the values, None where a line failed."""
    v = Verdict()
    values = [None] * len(graphs)
    if not _command_ok(v, run):
        v.attempted += len(graphs)
        v.failures.extend(["missing line"] * len(graphs))
        return v, values
    lines = run.stdout.splitlines()
    v.attempted += len(graphs)
    if len(lines) > len(graphs):
        v.failures.append(f"{len(lines)} lines for {len(graphs)} graphs")
    for idx, (g, line) in enumerate(zip(graphs, lines)):
        match = _SOLVE_LINE.match(line)
        if not match:
            v.failures.append(f"graph {idx}: not an exact result: {line}")
            continue
        value = int(match.group(1))
        members = [int(x) for x in match.group(2).split(",")]
        v.rows_exact += 1
        if len(set(members)) != value or any(not 0 <= x < g.n for x in members):
            v.failures.append(f"graph {idx}: witness {members} does not have {value} vertices of G")
            continue
        witness = sub.VertexSet.of(g.n, members)
        ok = (sub.is_secure_dominating(g, witness, full_recompute=True) if secure
              else sub.is_dominating(g, witness))
        if not ok:
            v.failures.append(f"graph {idx}: witness fails the definitional check")
            continue
        if oracle is not None and value != oracle(g):
            v.failures.append(f"graph {idx}: value {value}, closed form gives {oracle(g)}")
            continue
        values[idx] = value
    v.failures.extend(["missing line"] * max(0, len(graphs) - len(lines)))
    return v, values


def path_cycle_oracle(g) -> int:
    """gamma_s(P_n) = gamma_s(C_n) = ceil(3n/7) (Cockayne et al. 2005)."""
    return -(-3 * g.n // 7)
