"""Immutable simple graphs: construction, invariants, the graph6 format and
its reader. The graph6 writer, which writes from that description, and the
edge-list codec are in ``formats``, and the named generators, canonical
forms, enumeration and the bundled corpus in ``corpus``: a CLI run imports
each only when its command or format needs it.

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
        return tuple(map(self.__dict__.__getitem__, self._fields))

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
    """A subset of the vertices of a graph with ``universe`` vertices, as a
    bitmask: vertex v is a member iff bit v of ``mask`` is set."""

    universe: int
    mask: int

    def _check(self) -> None:
        if self.mask < 0:
            raise GraphError("vertex set mask must be nonnegative")
        top = self.mask.bit_length()
        if top > self.universe:
            raise GraphError(f"vertex {top - 1} outside universe 0..{self.universe - 1}")

    @classmethod
    def of(cls, universe: int, members: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < universe:
                raise GraphError(f"vertex {v} outside universe 0..{universe - 1}")
            mask |= 1 << v
        return cls(universe, mask)

    def sorted(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return v >= 0 and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.mask)


_WORD = (1 << 64) - 1


def _iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending, walked one 64-bit word at a time:
    each word that holds a set bit is cut off the low end and walked as a
    small int, so a wide mask's width is paid once per such word, not once
    per bit."""
    base = 0
    while mask:
        skip = ((mask & -mask).bit_length() - 1) & ~63  # the empty words below
        word = mask >> skip & _WORD
        mask >>= skip + 64
        base += skip
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        base += 64


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


def _layers(g: Graph, source: int) -> Iterator[int]:
    """The vertices at distance 0, 1, 2, ... from ``source``, as masks."""
    seen = frontier = 1 << source
    while frontier:
        yield frontier
        grow = 0
        for v in _iter_bits(frontier):
            grow |= g.adj_masks[v]
        frontier = grow & ~seen
        seen |= frontier


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or sum(_layers(g, 0)) == g.full_mask  # the layers are disjoint


# ---------------------------------------------------------------------------
# graph6, read here and written by ``formats.emit_graph6``.
#
# A size header N(n) is followed by the body: the upper triangle of the
# adjacency matrix in column order ((0,1), (0,2), (1,2), (0,3), ...), as one
# bit string zero-padded to whole 6-bit groups. Every group is printed as
# chr(group + 63). The header is the first row of _G6_SIZES whose n fits:
# its leading groups of 63, then n in its count of 6-bit groups, big-endian.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# (largest n, leading 63 groups, 6-bit groups of n) per size-header form.
_G6_SIZES = ((62, 0, 1), (258047, 1, 3), (68719476735, 2, 6))
# Each graph6 character and the 6 bits of its group.
_G6_BITS = {chr(code + 63): f"{code:06b}" for code in range(64)}
# The text formats strip and split on ASCII whitespace only, as the CLI does;
# str.strip() and str.split() would also take 0x1c-0x1f, 0x85 and 0xa0.
_ASCII_SPACE = " \t\n\r\v\f"


def _column_edges(columns: Iterable[int]) -> list[tuple[int, int]]:
    """The edges of an upper triangle given column by column: column j
    (from 1) holds j bits, and edge (i, j) is bit i counted from the top."""
    return [(j - 1 - b, j) for j, column in enumerate(columns, start=1) for b in _iter_bits(column)]


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
    try:
        bits = "".join([_G6_BITS[ch] for ch in text])
    except KeyError as exc:
        raise ParseError(f"byte {ord(exc.args[0])} outside graph6 alphabet") from None
    # The row is picked by its count of leading 63 groups ('~').
    _, lead, groups = _G6_SIZES[min(len(text) - len(text.lstrip("~")), 2)]
    pos = lead + groups
    if len(text) < pos:
        raise ParseError("truncated graph6 size header")
    n = int(bits[6 * lead:6 * pos], 2)
    nbits = n * (n - 1) // 2
    need, got = (nbits + 5) // 6, len(text) - pos
    if got < need:
        raise ParseError(f"truncated graph6 body: need {need} bytes, got {got}")
    if got > need:
        raise ParseError(f"graph6 body longer than n={n} allows")
    body = bits[6 * pos:]
    if "1" in body[nbits:]:
        raise ParseError("nonzero padding in graph6 body")
    columns = [int(body[j * (j - 1) // 2:j * (j + 1) // 2], 2) for j in range(1, n)]
    try:
        return make_graph(n, _column_edges(columns))
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
