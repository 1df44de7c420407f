"""k-subdivision of a graph: every edge becomes a path with k edges.

The derived graph keeps the original vertex ids 0..n-1; the k-1 new interior
vertices of each replaced edge are appended after them, edges processed in
sorted (u, v) order and interior vertices in increasing distance from the
smaller endpoint. This makes id assignment (and everything downstream:
certificates, witnesses, reports) byte-stable across runs. A position on a
superedge goes to its id through ``SubdivisionMap.superedge_vertex``, and an
id's label is the text it is printed as, ``Original(u)`` or
``Internal(u,v,l)``. ``seventh`` is the n = 7k + r rule that the claims and
constructions on G^{1/n} share.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from itertools import chain, pairwise

from .graphs import Graph, GraphError, _Record, make_graph


class SubdivisionMap(_Record):
    """The derived graph of a k-subdivision and its two formulas:
    ``superedge_vertex`` gives the id at a position on a superedge, and
    ``label`` gives the text an id is printed as."""

    base: Graph
    k: int
    derived: Graph

    def label(self, derived_id: int) -> str:
        """``Original(u)`` for a base vertex u, or ``Internal(u,v,l)`` for the
        interior vertex of base edge uv, u < v, at distance l from u."""
        if not 0 <= derived_id < self.derived.n:
            raise GraphError(f"vertex {derived_id} outside 0..{self.derived.n - 1}")
        if derived_id < self.base.n:
            return f"Original({derived_id})"
        rank, offset = divmod(derived_id - self.base.n, self.k - 1)
        u, v = self._edges[rank]
        return f"Internal({u},{v},{offset + 1})"

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.base.edges())

    @cached_property
    def _edge_ranks(self) -> dict[tuple[int, int], int]:
        return {edge: rank for rank, edge in enumerate(self._edges)}

    def superedge_vertex(self, u: int, v: int, l: int) -> int:
        """Derived id of the interior vertex at distance l from u along the
        superedge for base edge uv. Passing the endpoints in either order
        works; (v, u, l) names the same vertex as (u, v, k-l)."""
        if not 1 <= l <= self.k - 1:
            raise GraphError(f"interior distance l={l} outside 1..{self.k - 1}")
        if u > v:
            u, v, l = v, u, self.k - l
        rank = self._edge_ranks.get((u, v))
        if rank is None:
            raise GraphError(f"({u},{v}) is not an edge of the base graph")
        return self.base.n + rank * (self.k - 1) + l - 1


def subdivide(g: Graph, k: int) -> SubdivisionMap:
    """Replace each edge of g with a path of length k.

    The derived graph has n + (k-1)m vertices and km edges. k=1 returns g
    itself as the derived graph (same ids, no copy).
    """
    if k < 1:
        raise GraphError("subdivision parameter k must be >= 1")
    if k == 1:
        return SubdivisionMap(base=g, k=1, derived=g)

    def path_edges():
        # Lazy down to each path, so make_graph's size bound refuses a huge
        # k before any edge list is built.
        nxt = g.n
        for u, v in g.edges():
            path = chain((u,), range(nxt, nxt + k - 1), (v,))
            nxt += k - 1
            yield from pairwise(path)

    return SubdivisionMap(base=g, k=k, derived=make_graph(g.n + (k - 1) * g.m, path_edges()))


def seventh(what: str, covered: bool) -> Callable[[int | None], int]:
    """The k of a claim or construction ``what`` on G^{1/n}: n >= 6 itself, if
    ``covered`` is whether r = (n + 1) % 7 - 1 in n = 7k + r is -1, 1, 3 or 5,
    where gamma_s(P_n) = ceil(3n/7) gives a closed form; else ValueError."""
    needs = "n = 7k + r with r in (-1, 1, 3, 5)" if covered else "n mod 7 in (0, 2, 4)"

    def k(n: int | None) -> int:
        if n is None:
            raise ValueError(f"{what} needs the subdivision parameter -n")
        if n < 6:
            raise ValueError(f"{what} needs -n >= 6, got {n}")
        r = (n + 1) % 7 - 1
        if (r in (-1, 1, 3, 5)) != covered:
            raise ValueError(f"{what} needs {needs}; n={n} is {'r024' if covered else f'r={r}'}")
        return n

    return k
