"""Graph writers and the edge-list codec. The graph6 reader is in ``graphs``,
which every command loads; this module loads only for the commands that
print graphs (``gen``, ``enum``, ``subdivide``), for ``--format edges``, and
with ``bounds``, which names an edge-list graph by its graph6.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, ParseError, _ASCII_SPACE, make_graph


# The graph6 encoding is described above ``graphs.parse_graph6``.
def _g6_size_groups(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [n >> shift & 63 for shift in (30, 24, 18, 12, 6, 0)]
    raise GraphError("graph too large for graph6")


def emit_graph6(g: Graph) -> str:
    groups = _g6_size_groups(g.n)
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj_masks[v]
        for u in range(v):
            acc = acc << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                groups.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        groups.append(acc << (6 - nbits))
    return "".join(chr(x + 63) for x in groups)


# ---------------------------------------------------------------------------
# Edge-list text format: '#' comments, a "p <n>" size line, then "e <u> <v>"
# lines with 0-based ids. Lines end at "\n", fields are split by ASCII
# whitespace and numbers are ASCII decimals.
# ---------------------------------------------------------------------------

_TO_SPACE = str.maketrans(_ASCII_SPACE, " " * len(_ASCII_SPACE))


def emit_edgelist(g: Graph) -> str:
    lines = [f"p {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _decimal(field: str) -> int:
    """An optional '-' and the ASCII digits 0-9; int() alone would also take
    '1_1', '+1' and the digits of other scripts."""
    digits = field.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(field)
    return int(field)


def parse_edgelist(text: str) -> Graph:
    n = size_line = None
    edges = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(_ASCII_SPACE)
        if not line or line.startswith("#"):
            continue
        fields = [field for field in line.translate(_TO_SPACE).split(" ") if field]
        if n is None:
            if fields[0] != "p" or len(fields) != 2:
                raise ParseError("expected 'p <n>' size line", line_number=lineno)
            try:
                n = _decimal(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[1]!r}", line_number=lineno) from None
            if n < 0:
                raise ParseError("vertex count must be nonnegative", line_number=lineno)
            size_line = lineno
            continue
        if fields[0] != "e" or len(fields) != 3:
            raise ParseError(f"expected 'e <u> <v>' line, got {line!r}", line_number=lineno)
        try:
            u, v = _decimal(fields[1]), _decimal(fields[2])
        except ValueError:
            raise ParseError(f"bad edge endpoints in {line!r}", line_number=lineno) from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParseError(f"invalid edge ({u},{v}) for n={n}", line_number=lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("no 'p <n>' line found")
    try:
        return make_graph(n, edges)
    except GraphError as exc:  # the size guard: each edge was checked above
        raise ParseError(str(exc), line_number=size_line) from None
    except MemoryError:
        raise ParseError(f"vertex count {n} is too large to build", line_number=size_line) from None
