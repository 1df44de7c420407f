"""Empirical checking of claimed bounds on secure domination of subdivisions.

Every claim in the catalog relates the exact secure domination number of a
k-subdivision to closed-form quantities of the base graph. The catalog is
the ``CLAIMS`` table, one row per claim. ``check_theorem`` looks a row up,
solves the required subdivision exactly, and grades the row's bound terms
against the exact value. The claims graded on one graph share each solve.
The claims on G^{1/n} take k from ``subdivision.seventh``, as ``general``
does, so grading never loads ``certificates``.

A violated claim is a result, not an error: several equality claims fail on
degenerate bases (single edges, disconnected graphs) and surfacing that
honestly is the point. "skipped" is reserved for unmet preconditions and
budget exhaustion, where no exact value exists; a budget skip's detail is
that of the solve that stopped, for every claim.

A corpus's report is made a chunk of rows at a time; one tally per report
kind counts each row as it is rendered and gives the summary that ends it.
A ConjectureReport is its rows: its summary fields are that tally's.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cached_property, lru_cache
import json

from . import _pool
from .graphs import Graph, GraphError, ParseError, _Record, is_star, max_degree
from .solver import DEFAULT_BUDGET, SolverBudget, gamma_exact, gamma_s_exact, path_secure_formula
from .subdivision import seventh, subdivide

_STATUSES = ("holds", "tight", "violated", "skipped")


class BoundCheck(_Record):
    graph_id: str
    theorem_id: str
    lower: Fraction | int | None
    upper: int | None
    equality: int | None
    exact: int | None
    status: str
    detail: str


class Claim(_Record):
    """One cataloged claim on gamma_s(G^{1/k}).

    ``k`` is the subdivision parameter, or a function that takes the ``-n``
    parameter, rejects values the claim is not stated for, and returns k.
    ``lower``, ``upper`` and ``equality`` are the bound terms, each absent or
    a function of (G, n, solve); ``solve(solver, k)`` is the exact value of
    a solver on G^{1/k} under the run's budget, for a term that is itself an
    invariant. ``precondition`` returns the reason G is out of scope, or
    None. ``strict`` makes the lower bound strict. ``text`` is the catalog
    entry, as the README lists it.

    ``note`` gives the start of a graded row's detail from (G, lower,
    exact). A skipped row's detail is the skip of the solve that stopped,
    and it keeps every term that solved before it.
    """

    id: str
    k: int | Callable[[int | None], int]
    lower: Callable | None = None
    upper: Callable | None = None
    equality: Callable | None = None
    precondition: Callable[[Graph], str | None] | None = None
    strict: bool = False
    text: str = ""
    note: Callable[[Graph, Fraction | int, int], str] | None = None


def _conj_ratio(g: Graph, value: int | None) -> Fraction | None:
    """gamma_s(G^{1/2}) / n_G, or None when the value is missing or G is empty."""
    return Fraction(value, g.n) if value is not None and g.n else None


CLAIMS = (
    Claim("prop1", 1,
          lower=lambda g, n, solve: solve(gamma_exact, 1),
          note=lambda g, lower, exact: f"gamma={lower} gamma_s={exact}",
          text="γ(G) ≤ γ_s(G)"),
    Claim("g12", 2,
          upper=lambda g, n, _: min(g.m, g.n),
          precondition=lambda g: "precondition: star" if is_star(g) else None,
          text="γ_s(G^{1/2}) ≤ min(m, n_G) for non-star G"),
    Claim("star2", 2,
          equality=lambda g, n, _: g.n,
          precondition=lambda g: None if is_star(g) else "precondition: not a star",
          text="γ_s(G^{1/2}) = n_G for stars"),
    Claim("g13", 3,
          lower=lambda g, n, _: g.n,
          upper=lambda g, n, _: 2 * g.m,
          text="n_G ≤ γ_s(G^{1/3}) ≤ 2m"),
    Claim("g14", 4,
          equality=lambda g, n, _: 2 * g.m,
          text="γ_s(G^{1/4}) = 2m"),
    Claim("g15", 5,
          lower=lambda g, n, _: 2 * g.m + 1,
          upper=lambda g, n, _: 3 * g.m - max_degree(g) + 1,
          text="2m+1 ≤ γ_s(G^{1/5}) ≤ 3m − Δ + 1"),
    Claim("g16", seventh("g16", True),
          equality=lambda g, n, _: path_secure_formula(n + 1) * g.m,
          text="γ_s(G^{1/n}) = pathval(n+1)·m for n = 7k+r, r ∈ {−1,1,3,5} (`-n`)"),
    Claim("r024", seventh("r024", False),
          lower=lambda g, n, _: g.n + path_secure_formula(n - 3) * g.m,
          upper=lambda g, n, _: path_secure_formula(n + 1) * g.m,
          text="n_G + pathval(n−3)·m ≤ γ_s(G^{1/n}) ≤ pathval(n+1)·m (`-n`)"),
    Claim("conj", 2,
          lower=lambda g, n, _: Fraction(4 * g.n, 5),
          strict=True,
          note=lambda g, lower, exact: f"ratio {_fmt(_conj_ratio(g, exact))}",
          text="γ_s(G^{1/2}) > (4/5)·n_G (strict)"),
)

_CLAIMS_BY_ID = {claim.id: claim for claim in CLAIMS}

THEOREM_IDS = tuple(_CLAIMS_BY_ID)


def resolve_claims(theorem_ids, n: int | None = None) -> list[tuple[Claim, int]]:
    """(claim, k) for each theorem id, in order. An unknown id, or an ``n``
    that a requested claim is not stated for, raises ValueError."""
    resolved = []
    for tid in theorem_ids:
        claim = _CLAIMS_BY_ID.get(tid)
        if claim is None:
            raise ValueError(f"unknown theorem id {tid!r} (choose from {', '.join(THEOREM_IDS)})")
        resolved.append((claim, claim.k if isinstance(claim.k, int) else claim.k(n)))
    return resolved


def _grade(exact: int, lower=None, upper=None, equality=None, strict_lower=False):
    """Status + detail for an exact value against the present claim terms."""
    if equality is not None:
        if exact == equality:
            return "tight", "equality attained"
        side = ">" if exact > equality else "<"
        return "violated", f"exact {exact} {side} claimed {equality}"
    if lower is not None:
        broken = exact <= lower if strict_lower else exact < lower
        if broken:
            rel = "<=" if strict_lower else "<"
            return "violated", f"exact {exact} {rel} lower {lower}"
    if upper is not None and exact > upper:
        return "violated", f"exact {exact} > upper {upper}"
    at = []
    if lower is not None and not strict_lower and exact == lower:
        at.append("lower")
    if upper is not None and exact == upper:
        at.append("upper")
    if at:
        return "tight", "tight at " + " and ".join(at)
    return "holds", ""


class _Unsolved(Exception):
    """A solve ran out of budget; the message is the skip detail."""


@lru_cache(maxsize=16)
def _solve(solver, g: Graph, k: int, budget: SolverBudget) -> int | str:
    """The exact value of ``solver`` on G^{1/k} under ``budget``, or the
    detail of its skip (cached too). A G^{1/k} of more than
    ``budget.max_vertices`` vertices is skipped from its order alone and
    never built; any other skip ran out of search nodes."""
    order = g.n + (k - 1) * g.m
    if order > budget.max_vertices:
        return f"budget: derived graph has {order} vertices, cap {budget.max_vertices}"
    result = solver(subdivide(g, k).derived, budget)
    return result.value if result.status == "exact" else f"budget: exhausted after {result.nodes} nodes"


def check_theorem(
    g: Graph,
    theorem_id: str,
    n: int | None = None,
    budget: SolverBudget = DEFAULT_BUDGET,
    graph_id: str | None = None,
) -> BoundCheck:
    """Evaluate one cataloged claim on one graph.

    ``n`` is the subdivision parameter for the claims whose ``k`` is a rule
    and ignored elsewhere. Unknown ids and out-of-range parameters raise;
    everything that can be expressed as a BoundCheck status (preconditions,
    budgets, violations) is returned, never raised.
    """
    [(claim, k)] = resolve_claims((theorem_id,), n)
    gid = graph_id if graph_id is not None else _normalize([g])[0][0]
    reason = claim.precondition(g) if claim.precondition else None
    if reason:
        return BoundCheck(gid, claim.id, None, None, None, None, "skipped", reason)

    def solve(solver, k: int) -> int:
        value = _solve(solver, g, k, budget)
        if isinstance(value, str):
            raise _Unsolved(value)
        return value

    terms = [None, None, None]  # kept when a term's own solve runs out of budget
    try:
        terms = [term(g, n, solve) if term else None for term in (claim.lower, claim.upper, claim.equality)]
        exact = solve(gamma_s_exact, k)
    except _Unsolved as exc:
        return BoundCheck(gid, claim.id, *terms, None, "skipped", str(exc))
    lower, upper, equality = terms
    status, detail = _grade(exact, lower, upper, equality, strict_lower=claim.strict)
    if claim.note:
        detail = claim.note(g, lower, exact) + (f"; {detail}" if detail else "")
    return BoundCheck(gid, claim.id, lower, upper, equality, exact, status, detail)


# ---------------------------------------------------------------------------
# Corpus runs
# ---------------------------------------------------------------------------


def _normalize(entries):
    """(graph_id, graph) pairs; a graph without an id is named by its graph6.
    A graph too large to write as graph6 is a ParseError: such a graph came
    from an edge list, and the input, not the command line, must change."""
    pairs = [(None, e) if isinstance(e, Graph) else e for e in entries]
    if any(gid is None for gid, _ in pairs):  # a graph6 corpus names its own graphs
        from .formats import emit_graph6
    try:
        return [(emit_graph6(g) if gid is None else gid, g) for gid, g in pairs]
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def _graded(task, record, entries, workers):
    """The ``record``s that ``task(graph_id, graph)`` gives for each entry,
    in input order: one list per chunk of graphs the pool handed on.
    A task may run in a forked worker, so its records cross as tuples of
    the values ``marshal`` carries, a Fraction as its (numerator,
    denominator) pair, the one tuple a record field holds; they are rebuilt
    here."""

    def primitives(pair):
        return [tuple((v.numerator, v.denominator) if isinstance(v, Fraction) else v for v in row._values())
                for row in task(*pair)]

    chunks = _pool.ordered_map(primitives, _normalize(entries), workers)
    try:
        for chunk in chunks:
            yield [record(*[Fraction(*v) if type(v) is tuple else v for v in values])
                   for rows in chunk for values in rows]
    finally:
        chunks.close()


def _check_runs(entries, theorem_ids, n, budget, workers):
    tids = tuple(theorem_ids)
    resolve_claims(tids, n)  # raise before any work is dispatched

    def checks(gid, g):
        return [check_theorem(g, tid, n=n, budget=budget, graph_id=gid) for tid in tids]

    return _graded(checks, BoundCheck, entries, workers)


def run_corpus(
    entries,
    theorem_ids,
    n: int | None = None,
    budget: SolverBudget = DEFAULT_BUDGET,
    workers: int | None = None,
) -> list[BoundCheck]:
    """One BoundCheck per (graph, theorem), in input order x theorem order.

    Entries are Graphs or (graph_id, Graph) pairs; a None id means the
    emitted graph6. Work may fan out to ``workers`` processes (default:
    SUBSEC_THREADS or the CPUs this process may run on); the output is
    identical regardless of worker count.
    """
    return [check for run in _check_runs(entries, theorem_ids, n, budget, workers) for check in run]


class _CheckTally:
    """A verify report's status counts, kept as checks are added, and its summary line."""

    def __init__(self):
        self.counts = {status: 0 for status in _STATUSES}

    def add(self, check: BoundCheck) -> None:
        self.counts[check.status] += 1

    def summary(self, fmt: str) -> list[str]:
        if fmt == "jsonl":
            return [_json({"summary": self.counts})]
        line = " ".join(f"{status}={self.counts[status]}" for status in _STATUSES)
        return [f"# summary: {line}" if fmt == "tsv" else f"summary: {line}"]


def summarize(checks) -> dict[str, int]:
    tally = _CheckTally()
    for check in checks:
        tally.add(check)
    return tally.counts


def stream_checks(
    entries,
    theorem_ids,
    fmt: str = "tsv",
    n: int | None = None,
    budget: SolverBudget = DEFAULT_BUDGET,
    workers: int | None = None,
):
    """``render_checks(run_corpus(...), fmt)`` while it is made, and the
    status counts of its summary, which fill in as the lines are made.

    The lines come in blocks: the rows of each chunk of graphs the pool
    hands on (the first under the header), then the summary. No list
    of the corpus's checks or lines is kept. Unknown ids and out-of-range
    parameters raise here, before any work.
    """
    tally = _CheckTally()
    runs = _check_runs(entries, theorem_ids, n, budget, workers)
    return _report(fmt, CHECK_COLUMNS, _check_text, runs, tally), tally.counts


# ---------------------------------------------------------------------------
# Conjecture scan: ratio gamma_s(G^{1/2}) / |V(G)| over a corpus
# ---------------------------------------------------------------------------


class ConjectureRow(_Record):
    graph_id: str
    n: int
    value: int | None
    ratio: Fraction | None
    status: str  # "ok" | "counterexample" | "skipped"


_CONJ_STATUS = {"violated": "counterexample", "skipped": "skipped"}


class _ConjectureTally:
    """A conjecture report's summary, kept up to date as rows are added, and
    the summary lines it gives."""

    def __init__(self):
        self.min_ratio = None
        self.witnesses, self.counterexamples, self.skipped = [], [], []

    def add(self, row: ConjectureRow) -> None:
        if row.ratio is not None:
            if self.min_ratio is None or row.ratio < self.min_ratio:
                self.min_ratio, self.witnesses = row.ratio, []
            if row.ratio == self.min_ratio:
                self.witnesses.append(row.graph_id)
        if row.status == "counterexample":
            self.counterexamples.append(row.graph_id)
        elif row.status == "skipped":
            self.skipped.append(row.graph_id)

    def summary(self, fmt: str) -> list[str]:
        witnesses, counterexamples, skipped = self.witnesses, self.counterexamples, self.skipped
        if fmt == "jsonl":
            return [_json({"summary": {"min_ratio": self.min_ratio, "witnesses": witnesses,
                                       "counterexamples": counterexamples, "skipped": skipped}})]
        if fmt == "tsv":
            return [f"# min_ratio: {_fmt(self.min_ratio)} witnesses: {','.join(witnesses) or '-'}",
                    f"# counterexamples: {len(counterexamples)} skipped: {len(skipped)}"]
        return [f"minimum ratio {_fmt(self.min_ratio)} attained by: {', '.join(witnesses) or '-'}",
                f"counterexamples: {len(counterexamples)}, skipped: {len(skipped)}"]


class ConjectureReport(_Record):
    """A conjecture scan's rows; the summary fields are read from them."""

    rows: tuple[ConjectureRow, ...]

    @cached_property
    def _tally(self) -> _ConjectureTally:
        tally = _ConjectureTally()
        for row in self.rows:
            tally.add(row)
        return tally

    min_ratio = property(lambda self: self._tally.min_ratio)
    witnesses = property(lambda self: tuple(self._tally.witnesses))
    counterexamples = property(lambda self: tuple(self._tally.counterexamples))
    skipped = property(lambda self: tuple(self._tally.skipped))


def _conjecture_runs(entries, budget, workers):
    """Runs of ConjectureRows, in input order, each from grading ``conj``."""

    def row(gid, g):
        check = check_theorem(g, "conj", budget=budget, graph_id=gid)
        return [ConjectureRow(gid, g.n, check.exact, _conj_ratio(g, check.exact),
                              _CONJ_STATUS.get(check.status, "ok"))]

    return _graded(row, ConjectureRow, entries, workers)


def conjecture_scan(
    entries,
    budget: SolverBudget = DEFAULT_BUDGET,
    workers: int | None = None,
) -> ConjectureReport:
    """Hunt for counterexamples to the strict bound gamma_s(G^{1/2}) > 4n/5.

    The report is one row per graph, from grading the ``conj`` claim: its
    exact ratio, and a violation is a counterexample. The minimum ratio with
    its attaining graphs, all counterexamples (ratio <= 4/5) and the graphs
    skipped for budget reasons are read from the rows.
    """
    return ConjectureReport(tuple(row for run in _conjecture_runs(entries, budget, workers) for row in run))


def stream_conjecture(entries, fmt: str = "tsv", budget: SolverBudget = DEFAULT_BUDGET,
                      workers: int | None = None):
    """``render_conjecture(conjecture_scan(...), fmt)`` while it is made, in
    blocks as ``stream_checks`` gives them, the summary last. Only the
    summary's own lists are kept."""
    return _report(fmt, CONJECTURE_COLUMNS, _conjecture_text, _conjecture_runs(entries, budget, workers),
                   _ConjectureTally())


# ---------------------------------------------------------------------------
# Report rendering: TSV and JSON-lines with identical fields, byte-stable.
# ---------------------------------------------------------------------------

# One column per BoundCheck field, in order; "theorem" is theorem_id.
CHECK_COLUMNS = ("graph_id", "theorem", "lower", "upper", "equality", "exact", "status", "detail")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value or "-"
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return str(value)


# One encoder for every row: json.dumps with a ``default`` builds a new one
# per call. A row holds no cycles, so none is looked for.
_JSON = json.JSONEncoder(default=_fmt, check_circular=False)


def _json(record) -> str:
    """One JSON line; a Fraction is written as its _fmt string."""
    return _JSON.encode(record)


def _report(fmt: str, columns, text, runs, tally):
    """A report in blocks of lines, one block per run of records in
    ``runs``, each record added to ``tally`` as its line is made, and then
    ``tally.summary(fmt)``, made once every run is out. Records are TSV
    under a header row of ``columns`` (in the first block), one name per
    field in declaration order, JSON lines under the same names, or
    ``text(record)`` lines."""
    if fmt == "tsv":
        block = ["\t".join(columns)]

        def row(record):
            return "\t".join(map(_fmt, record._values()))
    elif fmt == "jsonl":
        block = []

        def row(record):
            return _json(dict(zip(columns, record._values())))
    elif fmt == "text":
        block, row = [], text
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    for run in runs:
        for record in run:
            tally.add(record)
            block.append(row(record))
        yield block
        block = []
    yield block + tally.summary(fmt)


def _check_text(c: BoundCheck) -> str:
    terms = []
    if c.lower is not None:
        terms.append(f"lower={_fmt(c.lower)}")
    if c.upper is not None:
        terms.append(f"upper={_fmt(c.upper)}")
    if c.equality is not None:
        terms.append(f"equality={_fmt(c.equality)}")
    terms.append(f"exact={_fmt(c.exact)}")
    extra = f" ({c.detail})" if c.detail else ""
    return f"{c.graph_id} {c.theorem_id}: {' '.join(terms)} -> {c.status}{extra}"


def render_checks(checks, fmt: str = "tsv") -> list[str]:
    return [line for block in _report(fmt, CHECK_COLUMNS, _check_text, [checks], _CheckTally())
            for line in block]


# One column per ConjectureRow field, in order; "gamma_s_half" is value.
CONJECTURE_COLUMNS = ("graph_id", "n", "gamma_s_half", "ratio", "status")


def _conjecture_text(row: ConjectureRow) -> str:
    return (f"{row.graph_id} n={row.n} gamma_s_half={_fmt(row.value)} ratio={_fmt(row.ratio)}"
            f" -> {row.status}")


def render_conjecture(report: ConjectureReport, fmt: str = "tsv") -> list[str]:
    """The report's rows, then the summary they give."""
    blocks = _report(fmt, CONJECTURE_COLUMNS, _conjecture_text, [report.rows], _ConjectureTally())
    return [line for block in blocks for line in block]
