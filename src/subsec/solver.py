"""Exact domination and secure-domination solvers.

A set D dominates when every vertex outside it has a neighbor inside. D is
secure dominating when, additionally, every outside vertex u has a "defender"
v: a neighbor of u inside D whose swap (D - v + u) still dominates.

Both optimum solvers run one size-increasing loop that asks an engine for
the first feasible set of each size in lexicographic subset order, so the
first size that has one is the optimum and that set is the reported witness.
The engine is a branch search by ascending vertex id that cuts a branch only
when no completion of it can qualify, so it finds the same lex-first witness
as a scan would; ``_first_pruned`` describes its cuts, one of which holds
only on triangle-free graphs (every k-subdivision with k >= 2). A naive
engine, ``_first_naive``, scans every subset of each size with the
definitional checks; the tests run it through ``_exact`` as an independent
cross-check. ``SolverBudget`` caps the graph's order and the count of search
nodes. Both caps are deterministic, and a solve past one has an explicit
"skipped" status, so an inexact answer is never presented as exact.

The swap test inside the fast secure check is incremental: removing v from D
can only uncover vertices that v privately dominates (coverage count exactly
one), so the swap is valid iff those all lie in u's closed neighborhood. The
definitional path (``defenders`` / ``full_recompute=True``) recomputes
coverage from scratch and is what the tests cross-validate against.
"""

from __future__ import annotations

from itertools import combinations
import sys

from .graphs import Graph, GraphError, VertexSet, _Record, _iter_bits


# The branch search recurses once per pick, so a solve can go as many calls
# deep as its graph has vertices; ``_exact`` lifts the recursion limit to
# match. Python 3.10 also spends C stack on each Python call: at a few
# hundred bytes a call, this many stay well inside the usual 8 MB stack,
# and a CLI test searches this deep.
_MAX_DEPTH = 5000


class SolverBudget(_Record):
    """The caps of an exact solve: the graph's order ``max_vertices`` and the
    search effort ``max_nodes``. A solve past a cap gives status "skipped".
    The class attributes are the defaults, which the CLI's flags read.
    ``max_vertices`` is at most 5000, a search depth sized for the stack of
    every supported Python.
    """

    max_vertices: int = 26
    max_nodes: int = 500_000_000

    def _check(self) -> None:
        if self.max_vertices <= 0 or self.max_nodes <= 0:
            raise ValueError("budget caps must be positive")
        if self.max_vertices > _MAX_DEPTH:
            raise ValueError(f"max_vertices {self.max_vertices} is past the search's depth limit {_MAX_DEPTH}")


class SolveResult(_Record):
    """Outcome of an exact solve: the optimum and a witness, or "skipped".

    ``nodes`` counts search effort: branch nodes of the branch search, or
    subsets of the naive scan, over every size the solve walked. ``cap`` names
    the cap that made a solve "skipped": "vertices" or "nodes". ``status``
    is "exact" or "skipped".
    """

    value: int | None
    witness: VertexSet | None
    status: str
    nodes: int
    cap: str | None = None


class _BudgetExceeded(Exception):
    """Raised when a search spends more nodes than its cap."""


class _Effort:
    """Search node counter with the node cap."""

    __slots__ = ("nodes", "max_nodes")

    def __init__(self, max_nodes: int):
        self.nodes = 0
        self.max_nodes = max_nodes

    def spend(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _BudgetExceeded


def _check_universe(g: Graph, d: VertexSet):
    if d.universe != g.n:
        raise GraphError(f"vertex set universe {d.universe} != graph order {g.n}")


# The per-set tests _coverage, _ones_mask and _all_defended walk their masks
# inline, not through _iter_bits: _all_defended runs inside every branch of
# the search, _coverage on every subset the naive engine scans, and
# _ones_mask on every set that is_secure_dominating checks.


def _coverage(g: Graph, dmask: int) -> int:
    covered = 0
    closed = g.closed_masks
    rest = dmask
    while rest:
        low = rest & -rest
        covered |= closed[low.bit_length() - 1]
        rest ^= low
    return covered


def is_dominating(g: Graph, d: VertexSet) -> bool:
    """True iff every vertex outside d is adjacent to a member of d."""
    _check_universe(g, d)
    return _coverage(g, d.mask) == g.full_mask


def defenders(g: Graph, d: VertexSet, u: int) -> list[int]:
    """All v in adj(u) & d whose swap (d - v + u) is dominating, ascending.

    This is the definitional check: each swap's coverage is recomputed from
    scratch.
    """
    _check_universe(g, d)
    if not 0 <= u < g.n:
        raise GraphError(f"vertex {u} outside 0..{g.n - 1}")
    if u in d:
        raise GraphError(f"vertex {u} is inside the set")
    dmask = d.mask
    return [v for v in _iter_bits(g.adj_masks[u] & dmask)
            if _coverage(g, (dmask ^ 1 << v) | 1 << u) == g.full_mask]


def _ones_mask(g: Graph, dmask: int) -> int:
    """Vertices whose closed neighborhood meets the set exactly once."""
    covered = 0
    ones = 0
    closed = g.closed_masks
    rest = dmask
    while rest:
        low = rest & -rest
        nv = closed[low.bit_length() - 1]
        ones = (ones & ~nv) | (nv & ~covered)
        covered |= nv
        rest ^= low
    return ones if covered == g.full_mask else -1


def _all_defended(g: Graph, us: int, dmask: int, ones: int) -> bool:
    """True iff every vertex of ``us`` has a neighbor v in the set whose
    private vertices (``ones`` inside N[v]) all lie in N[u], so the swap
    (D - v + u) leaves nothing uncovered."""
    adj = g.adj_masks
    closed = g.closed_masks
    while us:
        low = us & -us
        us ^= low
        u = low.bit_length() - 1
        not_covered_by_u = ones & ~closed[u]
        cands = adj[u] & dmask
        while cands:
            cl = cands & -cands
            if closed[cl.bit_length() - 1] & not_covered_by_u == 0:
                break
            cands ^= cl
        else:
            return False
    return True


def is_secure_dominating(g: Graph, d: VertexSet, full_recompute: bool = False) -> bool:
    """True iff d is dominating and every outside vertex has a defender.

    ``full_recompute=True`` forces the definitional per-swap recomputation
    instead of the incremental private-coverage test.
    """
    _check_universe(g, d)
    if full_recompute:
        if not is_dominating(g, d):
            return False
        return all(defenders(g, d, u) for u in range(g.n) if u not in d)
    ones = _ones_mask(g, d.mask)
    return ones >= 0 and _all_defended(g, g.full_mask & ~d.mask, d.mask, ones)


def path_secure_formula(n: int) -> int:
    """Secure domination number of the n-vertex path: ceil(3n/7)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return -(-3 * n // 7)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------


def _first_pruned(g: Graph, effort: _Effort, secure: bool):
    """The branch search, as ``(first, start)``: ``first(size)`` gives the
    lexicographically first dominating set of exactly ``size`` vertices,
    secure dominating if ``secure``, as a bitmask, or None. Its tables are
    built in one pass per solve, and the start size, the count cut and the
    deficit bound all read reach[v] = max |N[w]| over w >= v: ``start`` is
    ceil(n / reach[0]), or 0 when n = 0, as no pick covers more than
    reach[0] = Delta + 1 vertices.

    Branches extend by ascending vertex id, and a branch is cut only when no
    completion of it can qualify, so the sets that survive are visited in the
    same lexicographic order and the first one found is the lex-first set:

    - Lex cap: picks only grow, so a vertex u whose closed neighborhood lies
      wholly below the next pick can never be covered. The next pick is thus
      at most min over uncovered u of max N[u]. A child of pick v needs no
      cap of its own: any u it leaves uncovered is outside N[v], so max N[u]
      != v, and the loop's cap at v has already caught max N[u] < v.
    - Count cut: picks only ascend, so each pick after v is some w > v and
      covers at most reach[v + 1] = max |N[w]| over w > v. A child whose
      uncovered vertices outnumber its remaining picks times that reach is
      dead. In G^{1/k} only the original vertices, which hold the lowest
      ids, can cover more than 3, so this is much tighter than a global
      Delta+1. It passes a last pick only if nothing is left uncovered, and
      start >= 1 unless n = 0, so every completed set dominates.
    - Early secure cut (``secure`` only): whether u has a defender depends
      only on D inside N^3[u] (the defender's private vertices and their
      closed neighborhoods). Once every id up to r3[u], the largest id in
      N^3[u], is decided and u is outside D, u must already have a defender.
      The "dominated exactly once" mask is carried along the branch for this
      test. By the time a set is complete, every vertex with r3[u] <
      next_min (one past its last pick) has passed it, so the final gate
      checks only the rest, ``after[next_min]``, with the carried mask.
    - Secure-deficit cut (``secure`` on a triangle-free graph only): a
      member v of a secure set D has at most one private outside neighbor
      (a vertex outside D whose only neighbor in D is v). If u1 and u2 were
      two, v would be u1's only defender, and the swap D - v + u1 would
      leave u2 dominated only through an edge u1u2, closing the triangle
      v u1 u2. So the deficit, the sum over u outside the set of
      max(0, 2 - |N[u] & set|), is at most ``size`` for a completed secure
      set. Here it is 2 per uncovered vertex plus 1 per outside vertex in
      the "dominated once" mask. A pick w lowers it by at most deg(w) + 2
      (1 per neighbor, 2 for w itself), so a child whose deficit exceeds
      ``size`` by more than its remaining picks times reach[v + 1] + 1 =
      max deg(w) + 2 over w > v is dead. K3 shows why triangles turn it
      off: {0} is secure there, with two private outside neighbors.
    """
    n = g.n
    adj = g.adj_masks
    closed = g.closed_masks
    full = g.full_mask
    spend = effort.spend
    # below[v]: vertices with max N[u] < v, which no pick >= v can cover.
    below = [0] * (n + 1)
    # reach[v]: the most vertices one pick w >= v can cover.
    reach = [0] * (n + 1)
    # settled[v]: vertices u with r3[u] == v, decided once v is;
    # after[v]: those with r3[u] >= v.
    settled = [0] * n
    after = [0] * (n + 1)
    # The deficit cut holds unless some vertex has two adjacent neighbors;
    # a triangle shows at its lowest vertex, so only higher ones are walked.
    deficit_cut = secure
    for u in range(n):
        below[closed[u].bit_length()] |= 1 << u
        if secure:
            ball = _coverage(g, _coverage(g, closed[u]))
            settled[ball.bit_length() - 1] |= 1 << u
            higher = adj[u] >> u << u
            deficit_cut = deficit_cut and not any(adj[u] & adj[w] for w in _iter_bits(higher))
    for v in range(n):
        below[v + 1] |= below[v]
    for v in reversed(range(n)):
        reach[v] = max(reach[v + 1], closed[v].bit_count())
        after[v] = after[v + 1] | settled[v]
    target = 0  # the size first() is searching

    def extend(chosen: int, covered: int, ones: int, next_min: int, remaining: int) -> int | None:
        spend()
        if remaining == 0:
            # Only vertices settled at next_min or later are still unchecked.
            if secure and not _all_defended(g, after[next_min] & ~chosen, chosen, ones):
                return None
            return chosen
        uncovered = full & ~covered
        for v in range(next_min, n - remaining + 1):
            if uncovered & below[v]:  # lex cap
                return None
            # Skipping v - 1 settled its vertices outside D for good.
            if secure and v > next_min:
                lost = settled[v - 1] & ~chosen
                if lost and not _all_defended(g, lost, chosen, ones):
                    return None
            # The child's count cut, tested before it is entered.
            nv = closed[v]
            left = uncovered & ~nv
            if left.bit_count() > (remaining - 1) * reach[v + 1]:
                continue
            pick = chosen | 1 << v
            picked_ones = (ones & ~nv) | (nv & uncovered)
            # Secure-deficit cut: 2 per uncovered vertex, 1 per outside
            # vertex dominated once, and at most ``target`` when complete.
            if deficit_cut and (
                2 * left.bit_count() + (picked_ones & ~pick).bit_count() - target
                > (remaining - 1) * (reach[v + 1] + 1)
            ):
                continue
            if secure:
                # Picking v settles the vertices whose ball ends at v.
                due = settled[v] & ~pick
                if due and not _all_defended(g, due, pick, picked_ones):
                    continue
            found = extend(pick, covered | nv, picked_ones, v + 1, remaining - 1)
            if found is not None:
                return found
        return None

    def first(size: int) -> int | None:
        nonlocal target
        target = size
        return extend(0, 0, 0, 0, size)

    return first, -(-n // reach[0]) if n else 0


def _first_naive(g: Graph, effort: _Effort, secure: bool):
    """The naive engine, as ``(first, start)``: ``first(size)`` scans the
    subsets of exactly ``size`` vertices in lexicographic order and gives
    the first that passes the definitional (secure) domination check, as a
    bitmask, or None. ``start`` is 0."""

    def first(size: int) -> int | None:
        for combo in combinations(range(g.n), size):
            effort.spend()
            d = VertexSet.of(g.n, combo)
            if (is_secure_dominating(g, d, full_recompute=True) if secure else is_dominating(g, d)):
                return d.mask
        return None

    return first, 0


DEFAULT_BUDGET = SolverBudget()


def _exact(g: Graph, budget: SolverBudget, secure: bool, engine=_first_pruned) -> SolveResult:
    """The optimum by ``engine``, which takes (graph, effort, secure) and
    gives (first, start)."""
    if g.n > budget.max_vertices:
        return SolveResult(None, None, "skipped", 0, "vertices")
    effort = _Effort(budget.max_nodes)
    first, start = engine(g, effort, secure)
    # A search of n vertices may stack n + 1 calls of its own, and a check
    # and a node count below the last, on top of its caller's.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + g.n + 3)
    try:
        for size in range(start, g.n + 1):
            mask = first(size)
            if mask is not None:
                return SolveResult(size, VertexSet(g.n, mask), "exact", effort.nodes)
    except _BudgetExceeded:
        return SolveResult(None, None, "skipped", effort.nodes, "nodes")
    finally:
        sys.setrecursionlimit(limit)
    raise AssertionError("the full vertex set always qualifies")


def gamma_exact(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum dominating set size with a lexicographically smallest witness."""
    return _exact(g, budget, secure=False)


def gamma_s_exact(g: Graph, budget: SolverBudget = DEFAULT_BUDGET) -> SolveResult:
    """Minimum secure dominating set size with a lexicographically smallest
    witness."""
    return _exact(g, budget, secure=True)
