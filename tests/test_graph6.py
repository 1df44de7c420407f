import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_graph6(line: str):
    """graph6 read one character and one bit at a time: each character is
    its ord(c) - 63 as 6 bits, and column j is read bit by bit. The checks
    come in ``parse_graph6``'s order: alphabet, size header, body length,
    padding. Newlines that end the line are not part of it."""
    line = line.rstrip("\n")
    if not line:
        raise ParseError("empty graph6 line")
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {ord(ch)} outside graph6 alphabet")
    groups = [ord(ch) - 63 for ch in line]
    lead = 2 if groups[:2] == [63, 63] else 1 if groups[0] == 63 else 0
    start = lead + (1, 3, 6)[lead]
    if len(groups) < start:
        raise ParseError("truncated graph6 size header")
    n = 0
    for group in groups[lead:start]:
        n = 64 * n + group
    bits = [group >> 5 - i & 1 for group in groups[start:] for i in range(6)]
    nbits = n * (n - 1) // 2
    need, got = -(-nbits // 6), len(groups) - start
    if got < need:
        raise ParseError(f"truncated graph6 body: need {need} bytes, got {got}")
    if got > need:
        raise ParseError(f"graph6 body longer than n={n} allows")
    if any(bits[nbits:]):
        raise ParseError("nonzero padding in graph6 body")
    edges, at = [], 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                edges.append((i, j))
            at += 1
    return make_graph(n, edges)


@st.composite
def graph6_lines(st_draw):
    """The line of a random graph, as written or with one fault: a byte
    outside the alphabet, a cut size header, a body a byte short or long, or
    one padding bit set."""
    n = st_draw(st.sampled_from([None, 62, 63, 64, 200]))
    if n is None:
        g = st_draw(graphs(max_n=9))
    else:
        g = generate("random", n, p=st_draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                     seed=st_draw(st.integers(0, 2**16)))
    line = emit_graph6(g)
    header = 1 if g.n <= 62 else 4
    fault = st_draw(st.sampled_from(["none", "byte", "header", "short", "long", "padding"]))
    if fault == "byte":
        at = st_draw(st.integers(0, len(line)))
        byte = chr(st_draw(st.integers(0, 62) | st.integers(127, 255) | st.just(9731)))
        line = line[:at] + byte + line[at + 1:]
    elif fault == "header":
        line = line[:st_draw(st.integers(0, header - 1))]
    elif fault == "short":
        line = line[:-1]
    elif fault == "long":
        line += chr(st_draw(st.integers(63, 126)))
    elif fault == "padding":
        spare = -(g.n * (g.n - 1) // 2) % 6
        if spare:
            line = line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1 << st_draw(st.integers(0, spare - 1))))
    return line


def outcome(read, line):
    try:
        return read(line)
    except ParseError as exc:
        return str(exc)


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

    @pytest.mark.parametrize("line, message", [
        ("A_" + chr(9731), "byte 9731 outside graph6 alphabet"),
        ("A " + chr(9731), "byte 32 outside graph6 alphabet"),
        ("A" + chr(200) + "!", "byte 200 outside graph6 alphabet"),
    ])
    def test_the_first_byte_outside_the_alphabet_is_named(self, line, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_graph6(line)


def traced_peak(call):
    """The peak of memory that Python allocates during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraph6Memory:
    """A line's length is checked against its size header before its body is
    decoded, and the body is decoded once, to bytes."""

    def test_a_long_body_is_refused_before_it_is_decoded(self):
        line = "A" + "?" * 4_000_000

        def parse():
            with pytest.raises(ParseError, match="^graph6 body longer than n=2 allows$"):
                parse_graph6(line)

        assert traced_peak(parse) < 3 * len(line)

    def test_a_large_line_is_read_in_a_few_copies_of_its_length(self):
        g = generate("star", 5000)
        line = emit_graph6(g)
        got = []
        assert traced_peak(lambda: got.append(parse_graph6(line))) < 6 * len(line)
        assert got == [g]


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

    @given(graph6_lines())
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_a_per_character_reference(self, line):
        assert outcome(parse_graph6, line) == outcome(reference_graph6, line)

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
