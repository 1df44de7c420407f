"""Canonical forms and the connected-graph enumeration, cross-checked against
a full-permutation oracle and exhaustive labeled-graph counting."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from subsec import (
    GraphError,
    bundled_corpus,
    bundled_corpus_lines,
    canonical_form,
    canonical_key,
    emit_graph6,
    enumerate_connected,
    is_connected,
    make_graph,
    parse_graph6,
)
from brute_force import brute_canonical_bits, key_to_bits
from conftest import graphs


def all_labeled(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield make_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def all_labeled_connected(n):
    return filter(is_connected, all_labeled(n))


# sha256 of the output of `subsec enum --n 7`.
ENUM7_SHA256 = "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"

class TestCanonicalKey:
    @pytest.mark.parametrize("n", range(6))
    def test_every_labeled_graph_matches_permutation_oracle(self, n):
        # Every tie between labelings that the search meets on up to 5
        # vertices, and the canonical form is the graph its key spells out.
        for g in all_labeled(n):
            bits = key_to_bits(canonical_key(g))
            assert bits == brute_canonical_bits(g)
            form = canonical_form(g)
            assert form.n == n
            assert tuple(int(form.has_edge(i, j)) for j in range(1, n) for i in range(j)) == bits

    @given(graphs(max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_matches_permutation_oracle(self, g):
        assert key_to_bits(canonical_key(g)) == brute_canonical_bits(g)

    @given(graphs(max_n=7))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_relabeling(self, g):
        rng = random.Random(0)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(relabeled) == canonical_key(g)

    @given(graphs(max_n=7))
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_fixed_point(self, g):
        cf = canonical_form(g)
        assert canonical_key(cf) == canonical_key(g)
        assert canonical_form(cf) == cf


class TestEnumerateConnected:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
    def test_class_counts(self, n, count):
        assert len(enumerate_connected(n)) == count

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_from_exhaustive_oracle(self, n):
        oracle_keys = {brute_canonical_bits(g) for g in all_labeled_connected(n)}
        ours = enumerate_connected(n)
        assert {key_to_bits(canonical_key(g)) for g in ours} == oracle_keys
        assert len(ours) == len(oracle_keys)

    def test_seven_vertices(self):
        # The lines of `subsec enum --n 7`, which the benchmark's corpus7
        # input and expected report are keyed by: representatives and order.
        lines = [emit_graph6(g) for g in enumerate_connected(7)]
        assert len(lines) == 853
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        assert digest == ENUM7_SHA256

    def test_no_duplicate_canonical_forms(self):
        for n in range(1, 7):
            keys = [canonical_key(g) for g in enumerate_connected(n)]
            assert len(keys) == len(set(keys))
            assert keys == sorted(keys)

    def test_members_are_connected_and_canonical(self):
        for g in enumerate_connected(5):
            assert g.n == 5 and is_connected(g)
            assert canonical_form(g) == g

    def test_random_connected_graph_lands_in_list(self):
        rng = random.Random(42)
        for n in range(1, 6):
            listed = {canonical_key(g) for g in enumerate_connected(n)}
            found = 0
            while found < 20:
                edges = [pair for pair in combinations(range(n), 2) if rng.random() < 0.5]
                g = make_graph(n, edges)
                if not is_connected(g):
                    continue
                found += 1
                assert canonical_key(g) in listed

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            enumerate_connected(0)
        with pytest.raises(GraphError):
            enumerate_connected(8)


class TestBundledCorpus:
    def test_size_and_composition(self):
        graphs_by_n = {}
        for g in bundled_corpus():
            graphs_by_n.setdefault(g.n, []).append(g)
        assert {n: len(gs) for n, gs in graphs_by_n.items()} == {
            1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112,
        }

    def test_lines_round_trip_bit_exact(self):
        for line in bundled_corpus_lines():
            assert emit_graph6(parse_graph6(line)) == line

    def test_matches_enumeration(self):
        expected = []
        for n in range(1, 7):
            expected.extend(emit_graph6(g) for g in enumerate_connected(n))
        assert bundled_corpus_lines() == expected
