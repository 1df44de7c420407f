import pytest
from hypothesis import given, settings

from subsec import (
    GraphError,
    ParseError,
    emit_edgelist,
    emit_graph6,
    generate,
    iter_graph6,
    make_graph,
    parse_edgelist,
    parse_graph6,
)
from conftest import graphs, path


class TestGraph6Decode:
    def test_single_edge_line(self):
        # n='A'-63=2; body '_'-63=32=0b100000 -> bit (0,1) set
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_hand_decoded_path4(self):
        # 'C'=4 vertices; 'h'-63=41=0b101001 -> bits (0,1),(1,2),(2,3)
        g = parse_graph6("Ch")
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")

    def test_empty_line(self):
        with pytest.raises(ParseError):
            parse_graph6("")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_graph6(">>sparse6<<A_")

    def test_truncated_body(self):
        with pytest.raises(ParseError):
            parse_graph6("D")  # n=5 needs 2 body bytes

    @pytest.mark.parametrize("line, message", [
        ("~?", "truncated graph6 size header"),
        ("~~?????", "truncated graph6 size header"),
        # n = 258048, the least order with the 8-byte header
        ("~~???~??", "truncated graph6 body: need 5549042688 bytes, got 0"),
    ])
    def test_long_size_headers(self, line, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_graph6(line)

    def test_size_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        # n=2 uses 1 of 6 body bits; '?'+1 = '@' sets a padding bit
        with pytest.raises(ParseError):
            parse_graph6("A@")

    def test_alphabet_bounds(self):
        with pytest.raises(ParseError):
            parse_graph6("A" + chr(190))


class TestGraph6Emit:
    def test_emit_single_edge(self):
        assert emit_graph6(make_graph(2, [(0, 1)])) == "A_"

    def test_emit_empty_graphs(self):
        assert emit_graph6(make_graph(0, [])) == "?"
        assert emit_graph6(make_graph(1, [])) == "@"

    @pytest.mark.parametrize("family,n", [("path", 7), ("cycle", 6), ("star", 5),
                                          ("complete", 6), ("wheel", 6)])
    def test_round_trip_families(self, family, n):
        g = generate(family, n)
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs(max_n=9))
    @settings(max_examples=200)
    def test_round_trip_random(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_size_header_forms(self):
        from subsec.formats import _g6_size_groups

        assert _g6_size_groups(62) == [62]
        assert _g6_size_groups(63) == [63, 0, 0, 63]
        assert _g6_size_groups(258047) == [63, 62, 63, 63]
        assert _g6_size_groups(258048) == [63, 63, 0, 0, 0, 63, 0, 0]
        with pytest.raises(GraphError, match="graph too large for graph6"):
            _g6_size_groups(2**36)

    def test_round_trip_long_form(self):
        g = generate("random", 70, p=0.08, seed=3)
        line = emit_graph6(g)
        assert line.startswith("~") and parse_graph6(line) == g

    @pytest.mark.parametrize("n", [63, 112, 120, 200])
    def test_emit_matches_a_per_character_reference(self, n):
        # A 4-byte header, and bodies of 1953 to 19900 bits that cross the
        # 6144-bit batch and whose lengths are not all multiples of 24.
        g = generate("random", n, p=0.3, seed=n)
        header = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
        bits = [g.adj_masks[v] >> u & 1 for v in range(1, n) for u in range(v)]
        bits += [0] * (-len(bits) % 6)
        body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6))
        assert emit_graph6(g) == header + body

    def test_emit_is_parse_inverse_on_lines(self):
        lines = [emit_graph6(generate("cycle", n)) for n in range(3, 9)]
        assert [emit_graph6(g) for g in iter_graph6(lines)] == lines


class TestStreaming:
    def test_iter_skips_blanks_and_numbers_errors(self):
        got = list(iter_graph6(["A_", "", "Bw"]))
        assert [g.n for g in got] == [2, 3]
        with pytest.raises(ParseError) as err:
            list(iter_graph6(["A_", "A__"]))
        assert err.value.line_number == 2


class TestEdgeList:
    def test_round_trip(self):
        g = generate("wheel", 5)
        assert parse_edgelist(emit_edgelist(g)) == g

    def test_comments_and_layout(self):
        text = "# description\np 4\ne 0 1\n# interior comment\ne 2 3\n"
        g = parse_edgelist(text)
        assert g.edges() == [(0, 1), (2, 3)]

    def test_fields_split_on_ascii_whitespace_only(self):
        text = "# any byte \xa0\x85 in a comment\n\tp\x0b3 \r\ne\f0\t\t1\ne 1 2\x0c\n"
        assert parse_edgelist(text) == path(3)
        for bad in ("p\xa03\n", "p 3\ne 0\x1c1\n", "p 3\ne 0 1\x85\n", "p 3\n\xa0\n"):
            with pytest.raises(ParseError):
                parse_edgelist(bad)

    def test_missing_size_line(self):
        with pytest.raises(ParseError):
            parse_edgelist("e 0 1\n")

    def test_bad_edge_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_edgelist("p 3\ne 0 1\ne 0 7\n")
        assert err.value.line_number == 3

    def test_emit_matches_expected_layout(self):
        assert emit_edgelist(path(3)) == "p 3\ne 0 1\ne 1 2\n"
