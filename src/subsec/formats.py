"""Graph writers and the edge-list codec. The graph6 reader is in ``graphs``,
which every command loads; this module loads only for the commands that
print graphs (``gen``, ``enum``, ``subdivide``), for ``--format edges``, and
with ``bounds``, which names an edge-list graph by its graph6.
"""

from __future__ import annotations

from .graphs import (MAX_ADJACENCY_BITS, Graph, GraphError, ParseError, _ASCII_SPACE, _G6_BITS,
                     _G6_SIZES, make_graph)


# graph6 is described above ``graphs._G6_SIZES``.
_G6_CHARS = {bits: ch for ch, bits in _G6_BITS.items()}


def _g6_size_groups(n: int) -> list[int]:
    for limit, lead, groups in _G6_SIZES:
        if n <= limit:
            return [63] * lead + [n >> 6 * i & 63 for i in reversed(range(groups))]
    raise GraphError("graph too large for graph6")


def _g6_chars(bits: str) -> str:
    return "".join([_G6_CHARS[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def emit_graph6(g: Graph) -> str:
    """The graph6 line of ``g``. A body past MAX_ADJACENCY_BITS bits (from
    n = 65537) is a GraphError before any of it is built."""
    n = g.n
    if n * (n - 1) // 2 > MAX_ADJACENCY_BITS:
        raise GraphError(f"graph on {n} vertices is too large to write as graph6")
    parts = ["".join(chr(group + 63) for group in _g6_size_groups(n))]
    # Column v is v's adjacency to 0..v-1, read from the top. Once the bits
    # read reach 6144, their whole 6-bit groups become characters, so a
    # large body is never one bit string and a small one converts once.
    bits = ""
    for v in range(1, n):
        bits += f"{g.adj_masks[v] & ~(-1 << v):0{v}b}"[::-1]
        if len(bits) >= 6144:
            whole = len(bits) - len(bits) % 6
            parts.append(_g6_chars(bits[:whole]))
            bits = bits[whole:]
    parts.append(_g6_chars(bits + "0" * (-len(bits) % 6)))
    return "".join(parts)


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
