import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsec import (
    GraphError,
    SolverBudget,
    VertexSet,
    defenders,
    gamma_exact,
    gamma_s_exact,
    is_dominating,
    is_secure_dominating,
    make_graph,
    path_secure_formula,
    subdivide,
)
from brute_force import (
    brute_defenders,
    brute_first,
    brute_is_dominating,
    brute_is_secure,
    neighbor_sets,
)
from conftest import bipartite_graphs, complete, cycle, graphs, naive_exact, path, star, wheel_rim6


def vs(n, members):
    return VertexSet.of(n, members)


def private_outside(g, d, v):
    """Vertices outside d whose only neighbor in d is v."""
    return {u for u in range(g.n) if u not in d and {w for w in g.neighbors(u) if w in d} == {v}}


class TestDominating:
    def test_examples(self):
        assert is_dominating(path(5), vs(5, {1, 3}))
        assert not is_dominating(path(5), vs(5, {0, 1}))  # vertex 4 uncovered
        assert is_dominating(cycle(3), vs(3, {0}))

    def test_universe_mismatch(self):
        with pytest.raises(GraphError):
            is_dominating(path(5), vs(4, {1}))

    @given(graphs(max_n=8), st.integers(0, 255))
    @settings(max_examples=150)
    def test_against_oracle(self, g, mask):
        members = {v for v in range(g.n) if mask >> v & 1}
        ours = is_dominating(g, vs(g.n, members))
        assert ours == brute_is_dominating(g.n, neighbor_sets(g), members)


class TestDefenders:
    def test_frozen_examples(self):
        # computed by exhaustive swap checks
        assert defenders(path(5), vs(5, {1, 3}), 2) == []
        assert defenders(path(5), vs(5, {1, 3}), 0) == [1]
        assert defenders(cycle(3), vs(3, {0}), 1) == [0]

    def test_u_inside_rejected(self):
        with pytest.raises(GraphError):
            defenders(path(5), vs(5, {1, 3}), 1)

    @pytest.mark.parametrize("u", [-1, 5, 64])
    def test_u_outside_graph_rejected(self, u):
        with pytest.raises(GraphError, match=f"vertex {u} outside 0..4"):
            defenders(path(5), vs(5, {1, 3}), u)

    @given(graphs(min_n=2, max_n=8), st.integers(0, 255), st.integers(0, 7))
    @settings(max_examples=150)
    def test_against_oracle_and_soundness(self, g, mask, u):
        members = {v for v in range(g.n) if mask >> v & 1}
        u %= g.n
        if u in members:
            members.discard(u)
        adj = neighbor_sets(g)
        got = defenders(g, vs(g.n, members), u)
        assert got == brute_defenders(g.n, adj, members, u)
        for v in got:
            assert v in adj[u]
            assert is_dominating(g, vs(g.n, (members - {v}) | {u}))


class TestSecureDominating:
    def test_examples(self):
        assert not is_secure_dominating(path(5), vs(5, {1, 3}))
        assert is_secure_dominating(path(7), vs(7, {1, 3, 5}))
        assert is_secure_dominating(cycle(3), vs(3, {0}))

    @given(graphs(max_n=8), st.integers(0, 255))
    @settings(max_examples=200)
    def test_incremental_equals_recompute_equals_oracle(self, g, mask):
        members = {v for v in range(g.n) if mask >> v & 1}
        d = vs(g.n, members)
        fast = is_secure_dominating(g, d)
        slow = is_secure_dominating(g, d, full_recompute=True)
        assert fast == slow == brute_is_secure(g.n, neighbor_sets(g), members)


class TestGammaExact:
    def test_frozen_examples(self):
        assert gamma_exact(complete(4)).value == 1
        assert gamma_exact(path(4)).value == 2  # brute force over all subsets
        assert gamma_exact(cycle(6)).value == 2

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_against_oracle(self, g):
        res = gamma_exact(g)
        size, first, _ = brute_first(g.n, neighbor_sets(g), secure=False)
        assert res.status == "exact" and res.value == size
        # lexicographically smallest optimum matches the oracle's scan order
        assert set(res.witness) == first
        assert is_dominating(g, res.witness)


class TestGammaSecureExact:
    def test_frozen_examples(self):
        assert gamma_s_exact(path(7)).value == 3
        assert gamma_s_exact(path(5)).value == 3  # no 2-subset passes the check
        assert gamma_s_exact(subdivide(wheel_rim6(), 2).derived).value == 7

    def test_formula_cross_check(self):
        # gamma_s(P_n) = gamma_s(C_n) = ceil(3n/7) (Cockayne et al. 2005) and
        # gamma(P_n) = gamma(C_n) = ceil(n/3), past the default vertex cap.
        # C3 = K3 has gamma_s 1, so cycles start at 4.
        budget = SolverBudget(max_vertices=64)
        for g in [path(n) for n in range(1, 33)] + [cycle(n) for n in range(4, 33)]:
            res = gamma_s_exact(g, budget)
            assert res.value == path_secure_formula(g.n)
            assert is_secure_dominating(g, res.witness)
            assert gamma_exact(g, budget).value == -(-g.n // 3)

    def test_formula_values(self):
        assert path_secure_formula(7) == 3
        assert path_secure_formula(1) == 1
        assert path_secure_formula(21) == 9
        with pytest.raises(ValueError):
            path_secure_formula(0)

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_against_oracle(self, g):
        res = gamma_s_exact(g)
        size, first, _ = brute_first(g.n, neighbor_sets(g), secure=True)
        assert res.status == "exact" and res.value == size
        assert set(res.witness) == first
        assert is_secure_dominating(g, res.witness)

    @given(
        st.one_of(
            graphs(max_n=9),
            # Triangle-free inputs, where the secure-deficit cut is on.
            bipartite_graphs(max_n=10),
            graphs(max_n=5).map(lambda g: subdivide(g, 2).derived).filter(lambda d: d.n <= 12),
        ),
        st.sampled_from([None, "ascending", "descending"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_naive_and_pruned_agree(self, g, relabel):
        # Relabelling so ids follow degree, ascending, puts the high-degree
        # vertices at high ids; descending puts them first, as in G^{1/k},
        # where the per-position count cut is tightest.
        if relabel:
            order = sorted(range(g.n), key=lambda v: (g.degree(v), v), reverse=relabel == "descending")
            new_id = {old: new for new, old in enumerate(order)}
            g = make_graph(g.n, [(new_id[u], new_id[v]) for u, v in g.edges()])
        pruned = gamma_s_exact(g)
        naive = naive_exact(g)
        assert pruned.status == "exact"
        assert pruned.value == naive.value
        assert pruned.witness == naive.witness
        assert is_secure_dominating(g, pruned.witness)

    def test_naive_and_pruned_agree_on_subdivisions(self):
        # Small bases in their own labelings, then every bundled G^{1/k},
        # k = 2..4, small enough for the naive scan (108 of them).
        from subsec import bundled_corpus

        solved = 0
        for g in [path(3), cycle(3), star(4), path(4), *bundled_corpus()]:
            for k in (2, 3, 4):
                derived = subdivide(g, k).derived
                if derived.n > 14:
                    continue
                a, b = gamma_s_exact(derived), naive_exact(derived)
                assert (a.value, a.witness) == (b.value, b.witness)
                solved += 1
        assert solved == 12 + 108

    def test_witness_secure_on_bundled_subdivisions(self):
        # The branch search's final gate checks only the vertices its early
        # cut has not settled; every witness must still pass the
        # definitional check. G^{1/k} is triangle-free for k >= 2, so no
        # member may have two private outside neighbors (the lemma behind
        # the secure-deficit cut).
        from subsec import bundled_corpus

        solved = 0
        for g in bundled_corpus():
            for k in (2, 3):
                derived = subdivide(g, k).derived
                if derived.n > 26:
                    continue
                res = gamma_s_exact(derived)
                assert res.status == "exact" and len(res.witness) == res.value
                assert is_secure_dominating(derived, res.witness, full_recompute=True)
                assert all(len(private_outside(derived, res.witness, v)) <= 1 for v in res.witness)
                solved += 1
        assert solved == 268

    def test_deficit_cut_needs_triangle_free(self):
        # In K3, D = {0} is secure dominating although 0 has two private
        # outside neighbors: the swap 0 -> 1 keeps 2 dominated through the
        # edge 12, which closes a triangle. So the cut stays off here.
        k3 = complete(3)
        d = vs(3, {0})
        assert is_secure_dominating(k3, d, full_recompute=True)
        assert private_outside(k3, d, 0) == {1, 2}
        res = gamma_s_exact(k3)
        assert (res.value, res.witness) == (1, d)

    def test_triangle_on_the_top_ids_turns_the_deficit_cut_off(self):
        # The only triangle is 2 3 4, on the highest ids. Here {0, 2} is
        # secure although 2 has two private outside neighbors, 3 and 4; with
        # the deficit cut wrongly on, the search skips it and returns {0, 3}.
        g = make_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 4)])
        res, naive = gamma_s_exact(g), naive_exact(g)
        assert (res.value, res.witness.sorted(), res.nodes) == (2, (0, 2), 3)
        assert (naive.value, naive.witness) == (res.value, res.witness)

    def test_naive_and_pruned_agree_on_bundled_corpus(self):
        from subsec import bundled_corpus

        for g in bundled_corpus():
            a, b = gamma_s_exact(g), naive_exact(g)
            assert a.value == b.value and a.witness == b.witness
            c, d = gamma_exact(g), naive_exact(g, secure=False)
            assert c.value == d.value and c.witness == d.witness

    def test_ordering_gamma_le_gamma_s(self):
        for g in [path(6), cycle(5), star(5), complete(4), wheel_rim6()]:
            assert gamma_exact(g).value <= gamma_s_exact(g).value

    @given(graphs(max_n=8), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_upper_bound_consistency(self, g, mask):
        members = {v for v in range(g.n) if mask >> v & 1}
        if not is_secure_dominating(g, vs(g.n, members)):
            return
        assert gamma_s_exact(g).value <= len(members)

    def test_edgeless(self):
        g = make_graph(5, [])
        assert gamma_exact(g).value == 5
        assert gamma_s_exact(g).value == 5
        assert gamma_s_exact(g).witness.sorted() == (0, 1, 2, 3, 4)

    def test_null_graph(self):
        g = make_graph(0, [])
        assert gamma_exact(g).value == 0
        assert gamma_s_exact(g).value == 0


class TestBudgets:
    def test_vertex_cap_skips(self):
        res = gamma_s_exact(path(10), SolverBudget(max_vertices=5))
        assert res == res.__class__(None, None, "skipped", 0, "vertices")

    def test_node_cap_skips(self):
        res = gamma_s_exact(subdivide(wheel_rim6(), 2).derived, SolverBudget(max_nodes=50))
        assert res.status == "skipped"
        assert res.value is None and res.witness is None
        assert res.nodes > 50
        assert res.cap == "nodes"

    def test_node_cap_boundary(self):
        # P26's solve walks 1,202 nodes: a cap of exactly that many lets it
        # finish, and one fewer stops it at the node that passes the cap.
        res = gamma_s_exact(path(26), SolverBudget(max_nodes=1_202))
        assert (res.status, res.value, res.nodes) == ("exact", path_secure_formula(26), 1_202)
        res = gamma_s_exact(path(26), SolverBudget(max_nodes=1_201))
        assert res == res.__class__(None, None, "skipped", 1_202, "nodes")

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverBudget(max_nodes=0)

    def test_search_deeper_than_the_recursion_limit(self):
        # The search recurses once per pick: 1500 picks on an edgeless
        # graph, and 1000 on P3000, pass the default limit of 1000 calls,
        # which holds again once the solve is over.
        limit = sys.getrecursionlimit()
        budget = SolverBudget(max_vertices=3000)
        edgeless = gamma_s_exact(make_graph(1500, []), budget)
        assert (edgeless.value, edgeless.witness.sorted()) == (1500, tuple(range(1500)))
        dominated = gamma_exact(path(3000), budget)
        assert (dominated.value, dominated.witness.sorted()) == (1000, tuple(range(1, 3000, 3)))
        assert sys.getrecursionlimit() == limit

    def test_recursion_limit_survives_a_skip(self):
        # The same two searches, capped one node short: each passes the cap
        # on its one dive, 1501 and 1001 calls deep, past the default limit
        # of 1000 calls, which holds again after the skip.
        limit = sys.getrecursionlimit()
        edgeless = gamma_s_exact(make_graph(1500, []), SolverBudget(max_vertices=3000, max_nodes=1500))
        assert edgeless == edgeless.__class__(None, None, "skipped", 1501, "nodes")
        dominated = gamma_exact(path(3000), SolverBudget(max_vertices=3000, max_nodes=1000))
        assert dominated == dominated.__class__(None, None, "skipped", 1001, "nodes")
        assert sys.getrecursionlimit() == limit

    def test_default_solve_never_reads_the_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("the clock was read")

        monkeypatch.setattr(time, "monotonic", no_clock)
        res = gamma_s_exact(cycle(31), SolverBudget(max_vertices=31))
        assert res.status == "exact" and res.value == path_secure_formula(31)
        assert res.nodes > 4096

    def test_witness_iff_exact(self):
        for g in [path(4), make_graph(3, [])]:
            res = gamma_s_exact(g)
            assert (res.status == "exact") == (res.value is not None) == (res.witness is not None)

    def test_nodes_deterministic(self):
        a = gamma_s_exact(path(9))
        b = gamma_s_exact(path(9))
        assert a == b

    def test_node_counts_pinned(self):
        # The branch search walks each size once, from ceil(n/(Delta+1)) up;
        # the naive scan walks every subset of each size from 0.
        # These are triangle-free, so the secure-deficit cut is on.
        assert gamma_s_exact(path(26)).nodes == 1_202
        assert gamma_s_exact(cycle(26)).nodes == 1_942
        assert gamma_s_exact(subdivide(complete(4), 4).derived).nodes == 1_728
        assert gamma_s_exact(subdivide(complete(3), 8).derived).nodes == 2_540
        # A mixed-degree base: in the wheel's G^{1/2} a pick past the hub
        # (id 6) covers 3 vertices, not Delta+1 = 7, so the per-position
        # count cut fires.
        assert gamma_s_exact(subdivide(wheel_rim6(), 2).derived).nodes == 116
        # The wheel itself has triangles: the deficit cut stays off.
        assert gamma_s_exact(wheel_rim6()).nodes == 15
        assert naive_exact(path(10)).nodes == 428

    def test_gamma_node_counts_pinned(self):
        # gamma's branch search starts at ceil(n/(Delta+1)), as gamma_s's does.
        assert gamma_exact(path(26)).nodes == 10
        assert gamma_exact(cycle(26)).nodes == 10
        assert gamma_exact(subdivide(complete(4), 4).derived).nodes == 49
        assert gamma_exact(subdivide(wheel_rim6(), 2).derived).nodes == 54
        assert gamma_exact(wheel_rim6()).nodes == 2
        assert gamma_exact(make_graph(0, [])).nodes == 1


# G^{1/(k+7)} puts seven more vertices on each edge's chain than G^{1/k}.
CHAIN_BUDGET = SolverBudget(max_vertices=64, max_nodes=200_000)


def chain_value(g, k):
    res = gamma_s_exact(subdivide(g, k).derived, CHAIN_BUDGET)
    assert res.status == "exact", (g, k, res)
    return res.value


class TestChainLaw:
    """gamma_s(G^{1/(k+7)}) = gamma_s(G^{1/k}) + 3m for k >= 2, as observed
    here by branch search on both sides; not a claim of the paper, and no
    row is graded by it."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("g", [path(3), star(4), cycle(3), path(4), cycle(4)],
                             ids=["P3", "K1,3", "C3", "P4", "C4"])
    def test_seven_more_chain_vertices_cost_three_per_edge(self, g, k):
        assert chain_value(g, k + 7) == chain_value(g, k) + 3 * g.m

    def test_the_law_needs_k_at_least_2(self):
        # C3 is its own 1-subdivision: one vertex dominates it securely.
        low, high = chain_value(cycle(3), 1), chain_value(cycle(3), 8)
        assert (low, high) == (1, 11) and high != low + 3 * cycle(3).m
