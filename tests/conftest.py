from itertools import combinations

import pytest
from hypothesis import strategies as st

from subsec import generate, is_connected, make_graph


def path(n):
    return generate("path", n)


def cycle(n):
    return generate("cycle", n)


def star(n):
    return generate("star", n)


def complete(n):
    return generate("complete", n)


def wheel_rim6():
    """Hexagon rim plus a hub adjacent to all six rim vertices (7n, 12m)."""
    return generate("wheel", 6)


@st.composite
def graphs(st_draw, min_n=1, max_n=8):
    n = st_draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = st_draw(st.integers(0, (1 << len(pairs)) - 1))
    return make_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@st.composite
def bipartite_graphs(st_draw, max_n=10):
    """Random graphs with every edge across a split of the ids: triangle-free."""
    n = st_draw(st.integers(1, max_n))
    side = st_draw(st.integers(0, n))
    pairs = [(u, v) for u in range(side) for v in range(side, n)]
    mask = st_draw(st.integers(0, (1 << len(pairs)) - 1))
    return make_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@st.composite
def connected_graphs(st_draw, min_n=1, max_n=7):
    g = st_draw(graphs(min_n=min_n, max_n=max_n).filter(is_connected))
    return g


@pytest.fixture(scope="session")
def small_connected_corpus():
    """All connected graphs on at most 5 vertices (31 of them)."""
    from subsec import enumerate_connected

    out = []
    for n in range(1, 6):
        out.extend(enumerate_connected(n))
    return out
