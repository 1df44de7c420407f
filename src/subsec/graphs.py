"""Immutable simple graphs: construction, invariants and the graph6 reader.
The graph6 writer and the edge-list codec are in ``formats``, and the named
generators, canonical forms, enumeration and the bundled corpus in
``corpus``: a CLI run imports each only when its command or format needs it.

Vertices are the integers ``0..n-1``. Adjacency is stored as one bitmask per
vertex, which keeps set operations (coverage, neighborhood unions) cheap for
the exact solvers built on top. Every graph is built through ``make_graph``
from its edge list, whether a generator, a parser, a subdivision or a
canonical key makes it, and every mask is walked bit by bit with ``_iter_bits``
outside the search's inner loops in ``solver``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property


class GraphError(ValueError):
    """Invalid graph construction (bad vertex id, self-loop, bad family size)."""


class ParseError(ValueError):
    """Malformed graph6 or edge-list input.

    ``line_number`` is 1-based when the error came from a multi-line stream,
    else None.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class _Record:
    """An immutable record, the package's one way to declare one. A subclass
    lists each field once, as an annotated class attribute; a value on it is
    the field's default. Construction binds positional and keyword arguments
    to the fields, then calls ``_check`` to validate. Records compare (same
    class only) and hash by the tuple of their fields, and assigning or
    deleting an attribute raises AttributeError. Fields live in the instance
    ``__dict__``, so default pickling restores them without calling
    ``__setattr__``, and ``cached_property`` can store beside them."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # A class's own annotations (Python >= 3.10) follow its base's fields.
        cls._fields = (*cls._fields, *cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in values else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__dict__.update(values)
        self._check()

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1.

    ``adj_masks[v]`` is the neighbor set of v as a bitmask. Instances are
    immutable and safe to share across workers.
    """

    n: int
    adj_masks: tuple[int, ...]

    def _check(self) -> None:
        n, adj_masks = self.n, self.adj_masks
        if n < 0 or len(adj_masks) != n:
            raise GraphError(f"adjacency length {len(adj_masks)} != n={n}")
        for v, mask in enumerate(adj_masks):
            if mask >> n:
                raise GraphError(f"neighbor id out of range at vertex {v}")
            if mask >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            for u in _iter_bits(mask):
                if not adj_masks[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @cached_property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj_masks) // 2

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighborhoods N[v] = {v} | adj(v), as bitmasks."""
        return tuple(mask | (1 << v) for v, mask in enumerate(self.adj_masks))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_iter_bits(self.adj_masks[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, mask in enumerate(self.adj_masks)
                for v in _iter_bits(mask >> (u + 1) << (u + 1))]


class VertexSet(_Record):
    """A subset of the vertices of a graph with ``universe`` vertices."""

    universe: int
    members: frozenset[int]

    def _check(self) -> None:
        for v in self.members:
            if not 0 <= v < self.universe:
                raise GraphError(f"vertex {v} outside universe 0..{self.universe - 1}")

    @classmethod
    def of(cls, universe: int, members: Iterable[int]) -> "VertexSet":
        return cls(universe, frozenset(members))

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "VertexSet":
        return cls(universe, frozenset(_iter_bits(mask)))

    @cached_property
    def mask(self) -> int:
        out = 0
        for v in self.members:
            out |= 1 << v
        return out

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted())


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The most adjacency bits make_graph builds (256 MiB), so a huge order or
# subdivision is a GraphError, not a MemoryError or a machine out of memory.
# A refused graph still holds up to the bound, plus Python's int headers,
# before the count passes it: about 0.3 GB at this bound.
MAX_ADJACENCY_BITS = 1 << 31


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises GraphError on out-of-range ids or self-loops, and before it
    allocates more than MAX_ADJACENCY_BITS: 64 bits per vertex slot plus the
    widths of the masks, counted as each edge widens them. n masks of at
    most n bits each cannot pass the bound, so smaller orders skip the count.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    bits = 64 * n
    if bits > MAX_ADJACENCY_BITS:
        raise GraphError(f"vertex count {n} is too large to build")
    counted = bits + n * n > MAX_ADJACENCY_BITS
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an id outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if counted:
            bits += max(0, v + 1 - masks[u].bit_length()) + max(0, u + 1 - masks[v].bit_length())
            if bits > MAX_ADJACENCY_BITS:
                raise GraphError(f"graph on {n} vertices is too large to build: "
                                 f"its adjacency would pass {MAX_ADJACENCY_BITS} bits")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(mask.bit_count() for mask in g.adj_masks)


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,m} for some m >= 1 (a center adjacent to all
    other vertices and no further edges; K_2 counts)."""
    return g.n >= 2 and g.m == g.n - 1 and max_degree(g) == g.n - 1


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        for v in _iter_bits(frontier):
            grow |= g.adj_masks[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == g.full_mask


# ---------------------------------------------------------------------------
# graph6 reader (the writer is ``formats.emit_graph6``)
#
# Standard encoding: a size header N(n) followed by the upper triangle of the
# adjacency matrix in column order ((0,1), (0,2), (1,2), (0,3), ...), packed
# big-endian into 6-bit groups, each printed as chr(group + 63). The header is
# one byte for n <= 62, four bytes (0x7e prefix) up to 258047, and eight bytes
# (0x7e 0x7e prefix) beyond that. Padding bits are zero.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# The text formats strip and split on ASCII whitespace only, as the CLI does;
# str.strip() and str.split() would also take 0x1c-0x1f, 0x85 and 0xa0.
_ASCII_SPACE = " \t\n\r\v\f"


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; tolerates and strips the optional
    '>>graph6<<' header."""
    text = line.rstrip("\n")
    if text.startswith(">>"):
        if not text.startswith(_G6_HEADER):
            raise ParseError("malformed graph6 header")
        text = text[len(_G6_HEADER):]
    if not text:
        raise ParseError("empty graph6 line")
    values = []
    for ch in text:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise ParseError(f"byte {ord(ch)} outside graph6 alphabet")
        values.append(code)
    pos = 0
    if values[0] != 63:
        n = values[0]
        pos = 1
    elif len(values) >= 2 and values[1] != 63:
        if len(values) < 4:
            raise ParseError("truncated graph6 size header")
        n = values[1] << 12 | values[2] << 6 | values[3]
        pos = 4
    else:
        if len(values) < 8:
            raise ParseError("truncated graph6 size header")
        n = 0
        for code in values[2:8]:
            n = n << 6 | code
        pos = 8
    nbits = n * (n - 1) // 2
    body = values[pos:]
    need = (nbits + 5) // 6
    if len(body) < need:
        raise ParseError(f"truncated graph6 body: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise ParseError(f"graph6 body longer than n={n} allows")
    edges = []
    idx = 0
    u, v = 0, 1
    for code in body:
        for shift in range(5, -1, -1):
            bit = code >> shift & 1
            if idx < nbits:
                if bit:
                    edges.append((u, v))
                u += 1
                if u == v:
                    u, v = 0, v + 1
            elif bit:
                raise ParseError("nonzero padding in graph6 body")
            idx += 1
    try:
        return make_graph(n, edges)
    except GraphError as exc:  # the size guard: each edge is in range
        raise ParseError(str(exc)) from None


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping blank lines. ParseErrors are
    re-raised with the 1-based line number attached."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip(_ASCII_SPACE)  # other bytes meet the alphabet check
        if not text:
            continue
        try:
            yield parse_graph6(text)
        except ParseError as exc:
            raise ParseError(str(exc), line_number=lineno) from None
