"""Constructive secure-dominating sets in k-subdivided graphs.

Each builder materializes one closed-form construction as a concrete vertex
set of the derived graph, sized by the construction's formula, and then
*checks that it is secure dominating* with ``is_secure_dominating``'s
incremental private-coverage test, the one the exact search uses (the
definitional per-swap recomputation would make large certificates slow).
The claimed size is never taken on faith: ``validated`` records what the
check actually said, and a certificate that fails is a first-class result
(the bound harness reports it as a discrepancy, not an error).

``CONSTRUCTIONS`` has one row per ``subsec cert --theorem`` id: the k the
construction is stated for (fixed, or a rule on ``--k``/``-n``) and its
builder. ``general``'s rule is ``subdivision.seventh``, which the ``g16``
claim shares. The CLI resolves k from a row before it reads input, and each
builder checks its map against its own row.

Each builder takes an interior vertex's id from ``superedge_vertex``.
Interior positions are counted from the smaller endpoint of each base edge,
as in the ``Internal(u,v,l)`` labels ``cert`` prints, except in the two
constructions built around a hub: ``star`` takes the interior vertex next to
each leaf, and ``fifth`` counts each superedge from its end nearer its hub.
"""

from __future__ import annotations

from collections.abc import Callable

from .graphs import VertexSet, _Record, _iter_bits, _layers, is_star, max_degree
from .solver import is_secure_dominating, path_secure_formula
from .subdivision import SubdivisionMap, seventh


class CertificateError(ValueError):
    """Preconditions not met (wrong k, star/non-star input, ...)."""


class Certificate(_Record):
    theorem_id: str
    vertices: VertexSet
    claimed_size: int
    validated: bool

    def _check(self) -> None:
        if len(self.vertices) != self.claimed_size:
            raise CertificateError(
                f"{self.theorem_id}: built {len(self.vertices)} vertices, "
                f"formula says {self.claimed_size}"
            )


def _interior(sm: SubdivisionMap, distances) -> list[int]:
    """The interior vertices at ``distances`` from each superedge's smaller end."""
    return [sm.superedge_vertex(u, v, l) for u, v in sm.base.edges() for l in distances]


def _build(theorem_id: str, sm: SubdivisionMap, members, claimed: int) -> Certificate:
    vs = VertexSet.of(sm.derived.n, members)
    return Certificate(theorem_id, vs, claimed, is_secure_dominating(sm.derived, vs))


def cert_half(sm: SubdivisionMap) -> tuple[Certificate, Certificate]:
    """The two 2-subdivision constructions for a non-star base: all interior
    vertices (size m) and all original vertices (size n)."""
    CONSTRUCTIONS["half"].check(sm)
    g = sm.base
    if g.m == 0:
        raise CertificateError("half certificate needs at least one edge")
    if is_star(g):
        raise CertificateError("half certificate excludes stars")
    internal = _build("half.internal", sm, _interior(sm, (1,)), g.m)
    original = _build("half.original", sm, range(g.n), g.n)
    return internal, original


def _star_center(sm: SubdivisionMap) -> int:
    g = sm.base
    if not is_star(g):
        raise CertificateError("star certificate needs a star base")
    return min(v for v in range(g.n) if g.degree(v) == g.n - 1)


def cert_star(sm: SubdivisionMap) -> Certificate:
    """Star construction: the center plus, per leaf, the interior vertex
    adjacent to that leaf (distance k-1 from the center). Size n for both
    supported k."""
    CONSTRUCTIONS["star"].check(sm)
    g = sm.base
    w = _star_center(sm)
    members = [w] + [sm.superedge_vertex(w, leaf, sm.k - 1) for leaf in range(g.n) if leaf != w]
    return _build("star", sm, members, g.n)


def cert_third(sm: SubdivisionMap) -> Certificate:
    """Both interior vertices of every superedge in a 3-subdivision; size 2m."""
    CONSTRUCTIONS["third"].check(sm)
    return _build("third", sm, _interior(sm, (1, 2)), 2 * sm.base.m)


def cert_quarter(sm: SubdivisionMap) -> Certificate:
    """Positions 1 and 3 of every superedge in a 4-subdivision; size 2m."""
    CONSTRUCTIONS["quarter"].check(sm)
    return _build("quarter", sm, _interior(sm, (1, 3)), 2 * sm.base.m)


def cert_fifth(sm: SubdivisionMap) -> Certificate:
    """Around one maximum-degree vertex w (smallest id among them): w, and
    positions 1, 2, 4 of every superedge counted from its end nearer w, but
    position 1 on w's own superedges, whose place w takes; size
    3m - max_degree + 1. Nearer is by distance in the base; on a tie, or
    when neither end reaches w, the smaller end counts."""
    CONSTRUCTIONS["fifth"].check(sm)
    g = sm.base
    if g.m == 0:
        raise CertificateError("fifth certificate needs at least one edge")
    delta = max_degree(g)
    w = min(v for v in range(g.n) if g.degree(v) == delta)
    dist = {v: d for d, layer in enumerate(_layers(g, w)) for v in _iter_bits(layer)}
    members = {w}
    for u, v in g.edges():
        if dist.get(v, g.n) < dist.get(u, g.n):  # g.n: past every distance
            u, v = v, u
        members.update(sm.superedge_vertex(u, v, l) for l in (1, 2, 4) if (u, l) != (w, 1))
    return _build("fifth", sm, members, 3 * g.m - delta + 1)


def cert_general(sm: SubdivisionMap) -> Certificate:
    """For an n-subdivision with n = 7k + r, r in {-1, 1, 3, 5}: per
    superedge, positions {7i+1, 7i+3, 7i+5 : 0 <= i < k} plus a residue tail
    ({} / {n-1} / {n-3, n-1} / {n-5, n-3, n-1}), indexed from the smaller
    endpoint. Size per edge is the path value for n+1 vertices."""
    CONSTRUCTIONS["general"].check(sm)
    n = sm.k
    k, r = divmod(n + 1, 7)  # n = 7k + (r - 1)
    positions = [7 * i + off for i in range(k) for off in (1, 3, 5)]
    positions += [n - t for t in range(r - 1, 0, -2)]  # the residue tail
    claimed = path_secure_formula(n + 1) * sm.base.m
    return _build("general", sm, _interior(sm, positions), claimed)


def _star_k(k: int | None) -> int:
    if k not in (2, 3):
        raise CertificateError("--theorem star needs --k 2 or --k 3")
    return k


class Construction(_Record):
    """``k`` is the subdivision parameter, or a function that takes the
    value of the ``param`` option (``--k`` or ``-n``), rejects values the
    construction is not stated for, and returns k. ``build`` returns one
    certificate or a pair."""

    id: str
    k: int | Callable[[int | None], int]
    build: Callable[[SubdivisionMap], Certificate | tuple[Certificate, ...]]
    param: str | None = None

    def resolve(self, value: int | None = None) -> int:
        return self.k if isinstance(self.k, int) else self.k(value)

    def check(self, sm: SubdivisionMap) -> None:
        """Raise CertificateError unless ``sm`` has a k this row takes."""
        try:
            k = self.resolve(sm.k)
        except ValueError as exc:  # a k rule's own message
            raise CertificateError(*exc.args) from None
        if k != sm.k:
            raise CertificateError(f"{self.id} certificate needs a {self.k}-subdivision, got k={sm.k}")


CONSTRUCTIONS = {row.id: row for row in (
    Construction("half", 2, cert_half),
    Construction("star", _star_k, cert_star, "--k"),
    Construction("third", 3, cert_third),
    Construction("quarter", 4, cert_quarter),
    Construction("fifth", 5, cert_fifth),
    Construction("general", seventh("general", True), cert_general, "-n"),
)}
