"""Exact domination and secure-domination solvers.

A set D dominates when every vertex outside it has a neighbor inside. D is
secure dominating when, additionally, every outside vertex u has a "defender"
v: a neighbor of u inside D whose swap (D - v + u) still dominates.

Both optimum solvers run one size-increasing loop that asks each engine for
the first feasible set of a size in lexicographic subset order, so the first
size that has one is the optimum and that set is the reported witness. The
default engine enumerates only dominating candidate sets, from the bound
ceil(n/(Delta+1)) up: a branch is cut as soon as some still-uncovered vertex
has no potential coverer among the remaining (larger-id) choices. A naive
engine that scans every subset of each size with the definitional checks is
kept as an independent cross-check, and results carry an explicit "skipped"
status whenever a budget cap fires, so an inexact answer is never presented
as exact.

The swap test inside the fast secure check is incremental: removing v from D
can only uncover vertices that v privately dominates (coverage count exactly
one), so the swap is valid iff those all lie in u's closed neighborhood. The
definitional path (``defenders`` / ``full_recompute=True``) recomputes
coverage from scratch and is what the tests cross-validate against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, VertexSet, max_degree


@dataclass(frozen=True)
class SolverBudget:
    """Caps on exact solving; any cap being exceeded gives status "skipped".
    The wall-clock cap ``time_ms`` is off by default: it makes output depend on machine speed."""

    max_vertices: int = 26
    max_nodes: int = 500_000_000
    time_ms: int | None = None

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_nodes <= 0 or (
                self.time_ms is not None and self.time_ms <= 0):
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = SolverBudget()


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: the optimum and a witness, or "skipped".

    ``nodes`` counts search effort: branch nodes of the default engine, or
    subsets of the naive one, over every size the solve walked.
    """

    value: int | None
    witness: VertexSet | None
    status: str  # "exact" | "skipped"
    nodes: int


class _BudgetExceeded(Exception):
    pass


class _Effort:
    """Node counter with a node cap and an optional wall-clock cap."""

    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: SolverBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.time_ms is None else time.monotonic() + budget.time_ms / 1000

    def spend(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExceeded


def _check_universe(g: Graph, d: VertexSet):
    if d.universe != g.n:
        raise GraphError(f"vertex set universe {d.universe} != graph order {g.n}")


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
    out = []
    dmask = d.mask
    ubit = 1 << u
    rest = g.adj_masks[u] & dmask
    while rest:
        low = rest & -rest
        if _coverage(g, (dmask ^ low) | ubit) == g.full_mask:
            out.append(low.bit_length() - 1)
        rest ^= low
    return out


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


def _secure_mask(g: Graph, dmask: int) -> bool:
    ones = _ones_mask(g, dmask)
    if ones < 0:
        return False
    adj = g.adj_masks
    closed = g.closed_masks
    outside = g.full_mask & ~dmask
    while outside:
        low = outside & -outside
        u = low.bit_length() - 1
        outside ^= low
        not_covered_by_u = ones & ~closed[u]
        cands = adj[u] & dmask
        ok = False
        while cands:
            cl = cands & -cands
            if closed[cl.bit_length() - 1] & not_covered_by_u == 0:
                ok = True
                break
            cands ^= cl
        if not ok:
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
    return _secure_mask(g, d.mask)


def path_secure_formula(n: int) -> int:
    """Secure domination number of the n-vertex path: ceil(3n/7)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return -(-3 * n // 7)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------


def _first_pruned(g: Graph, size: int, effort: _Effort, accept) -> int | None:
    """The lexicographically first dominating set of exactly ``size``
    vertices that ``accept(g, mask)`` admits, as a bitmask, or None.

    Branches extend by ascending vertex id. A branch dies when some vertex
    not yet covered has its whole closed neighborhood below the next
    candidate id, i.e. no remaining choice can ever cover it.
    """
    n = g.n
    closed = g.closed_masks
    full = g.full_mask

    def extend(chosen: int, covered: int, next_min: int, remaining: int) -> int | None:
        effort.spend()
        if remaining == 0:
            return chosen if covered == full and accept(g, chosen) else None
        uncovered = full & ~covered
        rest = uncovered
        while rest:
            low = rest & -rest
            if closed[low.bit_length() - 1] >> next_min == 0:
                return None
            rest ^= low
        for v in range(next_min, n - remaining + 1):
            found = extend(chosen | 1 << v, covered | closed[v], v + 1, remaining - 1)
            if found is not None:
                return found
        return None

    return extend(0, 0, 0, size)


def _domination_lower_bound(g: Graph) -> int:
    """ceil(n/(Delta+1)): each vertex dominates at most Delta+1 vertices."""
    return -(-g.n // (max_degree(g) + 1))


def _exact(g: Graph, budget: SolverBudget, naive: bool, secure: bool) -> SolveResult:
    if g.n > budget.max_vertices:
        return SolveResult(None, None, "skipped", 0)
    effort = _Effort(budget)
    accept = _secure_mask if secure else lambda g, dmask: True
    try:
        for size in range(0 if naive else _domination_lower_bound(g), g.n + 1):
            if naive:
                mask = _first_naive(g, size, effort, secure)
            else:
                mask = _first_pruned(g, size, effort, accept)
            if mask is not None:
                return SolveResult(size, VertexSet.from_mask(g.n, mask), "exact", effort.nodes)
    except _BudgetExceeded:
        return SolveResult(None, None, "skipped", effort.nodes)
    raise AssertionError("the full vertex set always qualifies")


def _first_naive(g: Graph, size: int, effort: _Effort, secure: bool) -> int | None:
    """The first subset of exactly ``size`` vertices, in lexicographic order,
    that passes the definitional (secure) domination check, or None."""
    for combo in combinations(range(g.n), size):
        effort.spend()
        d = VertexSet.of(g.n, combo)
        if secure:
            if is_secure_dominating(g, d, full_recompute=True):
                return d.mask
        elif is_dominating(g, d):
            return d.mask
    return None


def gamma_exact(g: Graph, budget: SolverBudget = DEFAULT_BUDGET, naive: bool = False) -> SolveResult:
    """Minimum dominating set size with a lexicographically smallest witness."""
    return _exact(g, budget, naive, secure=False)


def gamma_s_exact(g: Graph, budget: SolverBudget = DEFAULT_BUDGET, naive: bool = False) -> SolveResult:
    """Minimum secure dominating set size with a lexicographically smallest
    witness. The default engine passes each dominating set it completes, size
    by size, through the incremental secure check; ``naive=True`` scans every
    subset with the definitional checks instead.
    """
    return _exact(g, budget, naive, secure=True)
