"""Independent brute-force oracles for the test suite.

Everything here works on plain python sets and itertools, deliberately
sharing no code path with the library's bitmask implementations beyond
reading off the edge list of a Graph.
"""

from itertools import combinations, permutations


def neighbor_sets(g):
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_is_dominating(n, adj, members):
    return all(v in members or adj[v] & members for v in range(n))


def brute_defenders(n, adj, members, u):
    found = []
    for v in sorted(adj[u] & members):
        if brute_is_dominating(n, adj, (members - {v}) | {u}):
            found.append(v)
    return found


def brute_is_secure(n, adj, members):
    if not brute_is_dominating(n, adj, members):
        return False
    return all(brute_defenders(n, adj, members, u) for u in range(n) if u not in members)


def brute_first(n, adj, secure=True):
    """The lexicographically first minimum secure dominating set (dominating
    set, unless ``secure``), found by testing every subset of each size in
    lexicographic order, as (size, members, subsets tried)."""
    check = brute_is_secure if secure else brute_is_dominating
    tried = 0
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            tried += 1
            if check(n, adj, set(combo)):
                return size, set(combo), tried
    raise AssertionError("unreachable")


def brute_canonical_bits(g):
    """Minimal upper-triangle (column-major) bit tuple over all n! relabelings."""
    n = g.n
    matrix = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        matrix[u][v] = matrix[v][u] = 1
    best = None
    for perm in permutations(range(n)):
        bits = tuple(matrix[perm[i]][perm[j]] for j in range(1, n) for i in range(j))
        if best is None or bits < best:
            best = bits
    return best if best is not None else ()


def key_to_bits(key):
    """Flatten the library's per-column canonical key into a bit tuple."""
    bits = []
    for width, segment in enumerate(key, start=1):
        bits.extend(segment >> (width - 1 - i) & 1 for i in range(width))
    return tuple(bits)
