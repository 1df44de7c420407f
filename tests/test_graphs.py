import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsec import GraphError, VertexSet, generate, is_connected, is_star, make_graph, max_degree
from subsec.graphs import _iter_bits
from conftest import complete, cycle, graphs, path, star, wheel_rim6


class TestMakeGraph:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        assert (g.n, g.m) == (2, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_triangle(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert (g.n, g.m) == (3, 3)

    def test_hexagon_plus_hub(self):
        rim = [(i, (i + 1) % 6) for i in range(6)]
        spokes = [(i, 6) for i in range(6)]
        g = make_graph(7, rim + spokes)
        assert (g.n, g.m) == (7, 12)
        assert g == wheel_rim6()

    def test_duplicates_collapse(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_out_of_range_id(self):
        with pytest.raises(GraphError):
            make_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 1)])

    def test_negative_order(self):
        with pytest.raises(GraphError, match="vertex count must be nonnegative"):
            make_graph(-1, [])

    @pytest.mark.parametrize("n, edges", [
        (10, [(0, v) for v in range(1, 10)]),  # star, center 0: one wide mask
        (10, [(v, 9) for v in range(9)]),  # star, center 9: ten wide masks
        (6, [(u, v) for u in range(6) for v in range(u + 1, 6)] * 2),  # K6, each edge twice
        (8, [(v, v + 1) for v in range(7)]),
    ], ids=["star-low", "star-high", "complete-twice", "path"])
    def test_size_bound_counts_mask_widths_exactly(self, monkeypatch, n, edges):
        # The bound is 64 bits per vertex slot plus the masks' widths: a
        # graph that needs exactly the bound is built, one bit less refuses.
        import subsec.graphs as graphs

        g = make_graph(n, edges)
        need = 64 * n + sum(mask.bit_length() for mask in g.adj_masks)
        monkeypatch.setattr(graphs, "MAX_ADJACENCY_BITS", need)
        assert make_graph(n, edges) == g
        monkeypatch.setattr(graphs, "MAX_ADJACENCY_BITS", need - 1)
        with pytest.raises(GraphError, match=f"graph on {n} vertices is too large to build"):
            make_graph(n, edges)


class TestGenerate:
    def test_path(self):
        g = path(4)
        assert (g.n, g.m) == (4, 3)

    def test_star_center_degree(self):
        g = star(4)
        assert g.degree(0) == 3 and g.m == 3

    def test_wheel_parameter_counts_rim(self):
        g = generate("wheel", 6)
        assert (g.n, g.m) == (7, 12)
        assert g.degree(6) == 6

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle(2)

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="unknown family 'x'"):
            generate("x", 3)

    def test_random_needs_seed(self):
        with pytest.raises(GraphError):
            generate("random", 5, p=0.5)

    def test_random_reproducible(self):
        a = generate("random", 12, p=0.4, seed=7)
        b = generate("random", 12, p=0.4, seed=7)
        assert a == b
        assert a != generate("random", 12, p=0.4, seed=8)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_path_structure(self, n):
        g = path(n)
        assert g.m == n - 1
        assert sum(1 for v in range(n) if g.degree(v) == 1) == 2

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycle_two_regular(self, n):
        g = cycle(n)
        assert all(g.degree(v) == 2 for v in range(n))


class TestDegreeAndStar:
    def test_max_degree_examples(self):
        assert max_degree(path(4)) == 2
        assert max_degree(star(4)) == 3
        assert max_degree(make_graph(3, [])) == 0
        assert max_degree(make_graph(0, [])) == 0

    def test_max_degree_hub(self):
        # hub neighbors counted off the explicit edge list
        g = wheel_rim6()
        assert max_degree(g) == len(g.neighbors(6)) == 6

    def test_is_star_examples(self):
        assert is_star(star(4))
        assert not is_star(path(4))
        assert is_star(path(2))  # K_2 = K_{1,1}
        assert not is_star(make_graph(1, []))
        assert not is_star(make_graph(4, [(0, 1), (0, 2)]))  # isolated vertex left over

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=150)
    def test_is_star_formula(self, g):
        expect = g.m == g.n - 1 and max_degree(g) == g.n - 1
        assert is_star(g) == expect


class TestStructuralInvariants:
    @given(graphs())
    @settings(max_examples=150)
    def test_symmetry_and_edge_count(self, g):
        degrees = [g.degree(v) for v in range(g.n)]
        assert sum(degrees) == 2 * g.m
        for u, v in g.edges():
            assert u < v
            assert g.has_edge(v, u)
            assert not g.has_edge(u, u)

    def test_connectivity(self):
        assert is_connected(path(6))
        assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(make_graph(1, []))
        assert not is_connected(make_graph(2, []))

    def test_asymmetric_adjacency_rejected(self):
        from subsec.graphs import Graph

        with pytest.raises(GraphError):
            Graph(2, (2, 0))

    def test_families_against_complete(self):
        assert complete(4).m == 6


class TestVertexSet:
    def test_members_must_fit_universe(self):
        with pytest.raises(GraphError, match=r"^vertex 5 outside universe 0\.\.2$"):
            VertexSet.of(3, {5})
        with pytest.raises(GraphError, match=r"^vertex 6 outside universe 0\.\.5$"):
            VertexSet.of(6, [1, 6])
        with pytest.raises(GraphError, match=r"^vertex -1 outside universe 0\.\.5$"):
            VertexSet.of(6, [-1, 1])

    def test_mask_and_iteration(self):
        s = VertexSet.of(6, {4, 1})
        assert s == VertexSet(6, 0b010010) and s.mask == 0b010010
        assert s.sorted() == (1, 4)
        assert list(s) == [1, 4]
        assert len(s) == 2
        assert 4 in s and 0 not in s and 6 not in s and -1 not in s
        # ascending whatever the order ids were given in
        s = VertexSet.of(40, [37, 0, 12, 5, 12])
        assert s.sorted() == tuple(s) == (0, 5, 12, 37) and len(s) == 4


class TestIterBits:
    # Masks are walked a 64-bit word at a time: bits on both sides of word
    # boundaries, and empty words skipped.
    @pytest.mark.parametrize("bits", [
        (), (0, 2, 63), (64,), (0, 63, 64, 127, 200000), tuple(range(60, 200)),
    ], ids=["empty", "one-word", "second-word", "wide-sparse", "dense-across-words"])
    def test_set_bits_ascend(self, bits):
        assert tuple(_iter_bits(sum(1 << b for b in bits))) == bits

    @given(st.integers(0, (1 << 300) - 1), st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_test_of_every_bit(self, mask, shift):
        mask <<= shift
        assert list(_iter_bits(mask)) == [b for b in range(mask.bit_length()) if mask >> b & 1]
