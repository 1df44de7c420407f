"""Where graphs come from besides the input: the named generators, canonical
forms and the exhaustive enumeration of small connected graphs, and the
bundled corpus.

Of the CLI's commands only ``gen`` and ``enum`` import this module; the
commands that read their graphs from input need none of it.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, GraphError, _iter_bits, make_graph, parse_graph6

FAMILIES = ("path", "cycle", "star", "complete", "wheel", "random")


def generate(family: str, n: int, p: float | None = None, seed: int | None = None) -> Graph:
    """Named graph generators.

    path/cycle/complete are the usual graphs on n vertices. star(n) is
    K_{1,n-1} with center 0. wheel(n) is a cycle on rim vertices 0..n-1 plus
    a hub vertex n adjacent to the whole rim (n+1 vertices total). random(n)
    is an Erdos-Renyi draw: each pair (u,v) with u<v is kept iff the next
    value of a generator seeded with ``seed`` is below p, so corpora are
    reproducible; p and seed are required.
    """
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    if n < 1:
        raise GraphError("n must be >= 1")
    if family == "path":
        return make_graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "star":
        if n < 2:
            raise GraphError("star needs n >= 2")
        return make_graph(n, [(0, i) for i in range(1, n)])
    if family == "complete":
        return make_graph(n, combinations(range(n), 2))
    if family == "wheel":
        if n < 3:
            raise GraphError("wheel needs rim size n >= 3")
        rim = [(i, (i + 1) % n) for i in range(n)]
        spokes = [(i, n) for i in range(n)]
        return make_graph(n + 1, rim + spokes)
    # random
    if p is None or not 0.0 <= p <= 1.0:
        raise GraphError("random family needs p in [0,1]")
    if seed is None:
        raise GraphError("random family needs an explicit seed")
    import random  # only this family draws

    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# Canonical forms and exhaustive enumeration of small connected graphs.
#
# The canonical key of a graph is the lexicographically smallest upper
# triangle bit sequence (graph6 bit order) over all n! relabelings. Keys are
# kept as one integer segment per matrix column so prefixes can be compared
# level by level during the backtracking search.
# ---------------------------------------------------------------------------


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (key, perm) where perm[i] is the original vertex placed at
    position i in the minimizing relabeling."""
    n = g.n
    if n <= 1:
        return (), tuple(range(n))
    adj = g.adj_masks

    def segment(placed: list[int], count: int, v: int) -> int:
        seg = 0
        av = adj[v]
        for i in range(count):
            seg = seg << 1 | (av >> placed[i] & 1)
        return seg

    # Greedy seed: pick the smallest segment (then smallest id) at each level.
    best_perm = []
    best = []
    remaining = set(range(n))
    for level in range(n):
        pick = None
        pick_seg = None
        for v in sorted(remaining):
            seg = segment(best_perm, level, v)
            if pick_seg is None or seg < pick_seg:
                pick, pick_seg = v, seg
        best_perm.append(pick)
        remaining.discard(pick)
        if level >= 1:
            best.append(pick_seg)

    cur = [0] * (n - 1)
    perm = [0] * n
    best_perm = list(best_perm)

    def search(level: int, placed_mask: int, tight: bool):
        nonlocal best, best_perm
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            if level >= 1:
                seg = segment(perm, level, v)
                if tight and seg > best[level - 1]:
                    continue
                cur[level - 1] = seg
                sub_tight = tight and seg == best[level - 1]
            else:
                sub_tight = tight
            perm[level] = v
            if level + 1 == n:
                if cur < best:
                    best = cur.copy()
                    best_perm = perm.copy()
            else:
                search(level + 1, placed_mask | 1 << v, sub_tight)

    search(0, 0, True)
    return tuple(best), tuple(best_perm)


def canonical_key(g: Graph) -> tuple[int, ...]:
    return canonical_labeling(g)[0]


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled copy of g (identical for isomorphic inputs)."""
    return _relabel(g, canonical_labeling(g)[1])


def _relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """The copy of g that puts original vertex perm[i] at position i."""
    position = {orig: pos for pos, orig in enumerate(perm)}
    return make_graph(g.n, [(position[u], position[v]) for u, v in g.edges()])


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
    classes: dict[tuple[int, ...], Graph] = {(): make_graph(1, ())}
    for size in range(2, n + 1):
        grown: dict[tuple[int, ...], Graph] = {}
        new = size - 1
        for parent in classes.values():
            edges = parent.edges()
            for attach in range(1, 1 << new):
                child = make_graph(size, edges + [(v, new) for v in _iter_bits(attach)])
                key, perm = canonical_labeling(child)
                if key not in grown:
                    grown[key] = _relabel(child, perm)
        classes = grown
    return [classes[key] for key in sorted(classes)]


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
