from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsec import GraphError, bundled_corpus, generate, make_graph, subdivide
from conftest import complete, graphs, path, star, wheel_rim6

BASES = bundled_corpus()


def walk(sm, u, v):
    """The superedge of base edge uv as ids, from u to v, by superedge_vertex."""
    return [u, *(sm.superedge_vertex(u, v, l) for l in range(1, sm.k)), v]


class TestCounts:
    def test_p2_cubed_is_p4(self):
        sm = subdivide(path(2), 3)
        assert (sm.derived.n, sm.derived.m) == (4, 3)
        degs = sorted(sm.derived.degree(v) for v in range(4))
        assert degs == [1, 1, 2, 2]

    def test_wheel_half(self):
        sm = subdivide(wheel_rim6(), 2)
        assert (sm.derived.n, sm.derived.m) == (19, 24)

    def test_identity_when_k_is_one(self):
        g = wheel_rim6()
        sm = subdivide(g, 1)
        assert sm.derived is g
        assert [sm.label(v) for v in range(g.n)] == [f"Original({v})" for v in range(g.n)]

    def test_k_must_be_positive(self):
        with pytest.raises(GraphError):
            subdivide(path(3), 0)

    @given(graphs(max_n=8), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_count_law(self, g, k):
        sm = subdivide(g, k)
        assert sm.derived.n == g.n + (k - 1) * g.m
        assert sm.derived.m == k * g.m


class TestStructure:
    @given(graphs(max_n=7), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_degree_preservation(self, g, k):
        sm = subdivide(g, k)
        for v in range(g.n):
            assert sm.derived.degree(v) == g.degree(v)
        for v in range(g.n, sm.derived.n):
            assert sm.derived.degree(v) == 2

    @given(graphs(max_n=6), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_composition(self, g, a, b):
        twice = subdivide(subdivide(g, a).derived, b).derived
        once = subdivide(g, a * b).derived
        assert twice.n == once.n and twice.m == once.m
        assert sorted(twice.degree(v) for v in range(twice.n)) == \
            sorted(once.degree(v) for v in range(once.n))

    @given(graphs(max_n=7), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_determinism(self, g, k):
        first, second = subdivide(g, k), subdivide(g, k)
        assert first.derived == second.derived
        assert [first.label(v) for v in range(first.derived.n)] == \
            [second.label(v) for v in range(second.derived.n)]

    @pytest.mark.parametrize("k", range(1, 6))
    @given(g=graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_set_reference(self, g, k):
        # Neighbor sets in the documented id layout: base edges in sorted
        # order, each edge's k - 1 interior ids ascending from its smaller end.
        edges = sorted((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v))
        assert g.edges() == edges
        expected = [set() for _ in range(g.n)]
        for u, v in edges:
            chain = [u]
            for _ in range(k - 1):
                chain.append(len(expected))
                expected.append(set())
            chain.append(v)
            for a, b in zip(chain, chain[1:]):
                expected[a].add(b)
                expected[b].add(a)
        derived = subdivide(g, k).derived
        assert derived.n == len(expected)
        assert [{w for w in range(derived.n) if mask >> w & 1} for mask in derived.adj_masks] == expected

    def test_labels_and_order(self):
        g = make_graph(3, [(0, 2), (0, 1)])
        sm = subdivide(g, 3)
        # edges sorted: (0,1) first, then (0,2); interiors by distance
        assert [sm.label(v) for v in range(7)] == [
            "Original(0)", "Original(1)", "Original(2)",
            "Internal(0,1,1)", "Internal(0,1,2)", "Internal(0,2,1)", "Internal(0,2,2)"]

    def test_label_out_of_range(self):
        sm = subdivide(path(3), 2)
        for vid in (-1, sm.derived.n):
            with pytest.raises(GraphError):
                sm.label(vid)

    # The two formulas are inverse: label(superedge_vertex(u, v, l)) names
    # base edge uv and position l, counted from the smaller end, and the
    # superedges' interiors are exactly the ids after the originals.
    def test_labels_follow_superedges(self):
        for g, k in product(BASES, range(1, 6)):
            sm = subdivide(g, k)
            assert [sm.label(v) for v in range(g.n)] == [f"Original({v})" for v in range(g.n)]
            interiors = []
            for u, v in g.edges():
                for l in range(1, k):
                    interiors.append(sm.superedge_vertex(u, v, l))
                    assert sm.label(interiors[-1]) == f"Internal({u},{v},{l})"
                    assert sm.superedge_vertex(v, u, k - l) == interiors[-1]
                    assert sm.label(sm.superedge_vertex(v, u, l)) == f"Internal({u},{v},{k - l})"
            assert sorted(interiors) == list(range(g.n, sm.derived.n))

    def test_superedge_is_induced_path(self):
        for g, k in product(BASES, range(1, 6)):
            sm = subdivide(g, k)
            for u, v in g.edges():
                seq = walk(sm, u, v)
                inside = set(seq)
                chords = {(a, b) for a in seq for b in sm.derived.neighbors(a) if b in inside and a < b}
                assert chords == {tuple(sorted(pair)) for pair in zip(seq, seq[1:])}
                assert all(sm.derived.degree(w) == 2 for w in seq[1:-1])


class TestSuperedgeVertex:
    def test_forward(self):
        sm = subdivide(path(2), 4)
        assert sm.superedge_vertex(0, 1, 1) in sm.derived.neighbors(0)

    def test_reversed_orientation(self):
        sm = subdivide(path(2), 4)
        assert sm.superedge_vertex(1, 0, 1) in sm.derived.neighbors(1)
        assert sm.superedge_vertex(1, 0, 1) == sm.superedge_vertex(0, 1, 3)

    def test_half_common_neighbor(self):
        sm = subdivide(wheel_rim6(), 2)
        for u, v in sm.base.edges():
            x = sm.superedge_vertex(u, v, 1)
            common = set(sm.derived.neighbors(u)) & set(sm.derived.neighbors(v))
            assert common == {x}

    @pytest.mark.parametrize("base", [complete(4), star(5)], ids=["K4", "star"])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_agrees_with_the_superedge_walk(self, base, k):
        # Walked from either end, a superedge passes the same ids.
        sm = subdivide(base, k)
        for u, v in base.edges():
            assert walk(sm, v, u) == walk(sm, u, v)[::-1]

    def test_errors(self):
        sm = subdivide(path(3), 4)
        with pytest.raises(GraphError):
            sm.superedge_vertex(0, 2, 1)  # not an edge
        with pytest.raises(GraphError):
            sm.superedge_vertex(0, 1, 4)  # l out of range
        with pytest.raises(GraphError):
            subdivide(path(3), 1).superedge_vertex(0, 1, 1)  # k=1 has no interior
