"""Where graphs come from besides the input: the named generators, canonical
forms and the exhaustive enumeration of small connected graphs, and the
bundled corpus.

Of the CLI's commands only ``gen`` and ``enum`` import this module; the
commands that read their graphs from input need none of it.
"""

from __future__ import annotations

from itertools import chain, combinations

from .graphs import Graph, GraphError, _column_edges, _iter_bits, make_graph, parse_graph6

FAMILIES = ("path", "cycle", "star", "complete", "wheel", "random")


def generate(family: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """Named graph generators.

    path/cycle/complete are the usual graphs on n vertices. star(n) is
    K_{1,n-1} with center 0. wheel(n) is a cycle on rim vertices 0..n-1 plus
    a hub vertex n adjacent to the whole rim (n+1 vertices total). random(n)
    is an Erdos-Renyi draw: each pair (u,v) with u<v is kept iff the next
    value of a generator seeded with ``seed`` is below p, so corpora are
    reproducible; p and seed are required. Edges reach make_graph lazily,
    so its size bound refuses a huge n before any edge list is built.
    """
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    if n < 1:
        raise GraphError("n must be >= 1")
    if family == "path":
        return make_graph(n, ((i, i + 1) for i in range(n - 1)))
    if family == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return make_graph(n, ((i, (i + 1) % n) for i in range(n)))
    if family == "star":
        if n < 2:
            raise GraphError("star needs n >= 2")
        return make_graph(n, ((0, i) for i in range(1, n)))
    if family == "complete":
        return make_graph(n, combinations(range(n), 2))
    if family == "wheel":
        if n < 3:
            raise GraphError("wheel needs rim size n >= 3")
        rim = ((i, (i + 1) % n) for i in range(n))
        spokes = ((i, n) for i in range(n))
        return make_graph(n + 1, chain(rim, spokes))
    # random
    if p is None or not 0.0 <= p <= 1.0:
        raise GraphError("random family needs p in [0,1]")
    if seed is None:
        raise GraphError("random family needs an explicit seed")
    import random  # only this family draws

    rng = random.Random(seed)
    edges = ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# Canonical forms and exhaustive enumeration of small connected graphs.
#
# The canonical key of a graph is the lexicographically smallest upper
# triangle bit sequence (graph6 bit order) over all n! relabelings. Keys are
# kept as one integer segment per matrix column so prefixes can be compared
# level by level during the backtracking search. A key is also the canonical
# graph's upper triangle, so ``graphs._column_edges``, which decodes graph6
# bodies too, rebuilds the canonical form from it alone.
# ---------------------------------------------------------------------------


def canonical_key(g: Graph) -> tuple[int, ...]:
    n = g.n
    if n <= 1:
        return ()
    adj = g.adj_masks
    best = [1 << n] * (n - 1)  # above every key
    cur = [0] * (n - 1)

    def search(level: int, segs: list[int], tight: bool) -> bool:
        """Place each vertex next whose segment keeps the key prefix at or
        below best's. segs[v] is v's adjacency to the placed vertices, in
        placement order, or negative once v is placed; ``tight`` says the
        prefix so far equals best's. Returns whether a leaf below improved
        best, which leaves the prefix tight again."""
        improved = False
        for v, seg in enumerate(segs):
            if seg < 0 or tight and seg > best[level - 1]:
                continue
            below = not tight or seg < best[level - 1]
            cur[level - 1] = seg
            if level + 1 < n:
                child = [s << 1 | a >> v & 1 for s, a in zip(segs, adj)]
                child[v] = -1
                if search(level + 1, child, not below):
                    improved = tight = True
            elif below:
                best[:] = cur
                improved = tight = True
        return improved

    for first in range(n):
        segs = [a >> first & 1 for a in adj]
        segs[first] = -1
        search(1, segs, True)
    return tuple(best)


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g (identical for isomorphic inputs)."""
    return make_graph(g.n, _column_edges(canonical_key(g)))


ENUMERATION_LIMIT = 7


def enumerate_connected(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected simple
    graphs on n vertices, sorted by canonical key.

    Built by repeatedly attaching a new vertex to every nonempty subset of
    each (n-1)-vertex class representative; every connected graph arises this
    way because some vertex is always removable without disconnecting.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise GraphError(f"enumeration supports 1 <= n <= {ENUMERATION_LIMIT}")
    keys = {()}
    for new in range(1, n):
        grown = set()
        for key in keys:
            edges = _column_edges(key)
            for attach in range(1, 1 << new):
                child = make_graph(new + 1, edges + [(v, new) for v in _iter_bits(attach)])
                grown.add(canonical_key(child))
        keys = grown
    return [make_graph(n, _column_edges(key)) for key in sorted(keys)]


# ---------------------------------------------------------------------------
# Bundled corpus: every connected graph on at most 6 vertices, one canonical
# graph6 line each.
# ---------------------------------------------------------------------------

_CORPUS_RESOURCE = "connected_upto6.g6"


def bundled_corpus_lines() -> list[str]:
    from importlib import resources  # only the bundled corpus is a package resource

    data = resources.files(__package__).joinpath("data", _CORPUS_RESOURCE).read_text(encoding="ascii")
    return [line for line in data.splitlines() if line.strip()]


def bundled_corpus() -> list[Graph]:
    return [parse_graph6(line) for line in bundled_corpus_lines()]
