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
builder. The CLI resolves k from a row before it reads input, and each
builder checks its map against its own row.

Interior positions are indexed from the smaller endpoint of each base edge,
matching the subdivision labeling; the one exception is the maximum-degree
construction, which removes the interior vertex *adjacent to* the chosen
hub on each incident superedge regardless of id order.
"""

from __future__ import annotations

from collections.abc import Callable

from .graphs import VertexSet, _Record, is_star, max_degree
from .solver import is_secure_dominating, path_secure_formula
from .subdivision import SubdivisionMap


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


class Decomposition(_Record):
    """n = 7k + r. ``covered`` is True for the residues r in {-1, 1, 3, 5}
    handled by the closed-form construction; otherwise r is n mod 7
    (0, 2 or 4) and only two-sided bounds apply."""

    n: int
    k: int
    r: int
    covered: bool

    @property
    def marker(self) -> str:
        return f"r={self.r}" if self.covered else "r024"


def decompose(n: int) -> Decomposition:
    if n < 6:
        raise CertificateError("decomposition needs n >= 6")
    residue = n % 7
    mapping = {6: -1, 1: 1, 3: 3, 5: 5}
    if residue in mapping:
        r = mapping[residue]
        return Decomposition(n=n, k=(n - r) // 7, r=r, covered=True)
    return Decomposition(n=n, k=n // 7, r=residue, covered=False)


def seventh(what: str, covered: bool) -> Callable[[int | None], int]:
    """The k of a construction or claim ``what`` on G^{1/n}: n itself, which
    must be at least 6 and be ``covered`` or not, as ``decompose`` says."""
    needs = "n = 7k + r with r in (-1, 1, 3, 5)" if covered else "n mod 7 in (0, 2, 4)"

    def k(n: int | None) -> int:
        if n is None:
            raise CertificateError(f"{what} needs the subdivision parameter -n")
        if n < 6:
            raise CertificateError(f"{what} needs -n >= 6, got {n}")
        dec = decompose(n)
        if dec.covered != covered:
            raise CertificateError(f"{what} needs {needs}; n={n} is {dec.marker}")
        return n

    return k


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
    internal = _build("half.internal", sm, sm.internal_ids(), g.m)
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
    return _build("third", sm, sm.internal_ids(), 2 * sm.base.m)


def cert_quarter(sm: SubdivisionMap) -> Certificate:
    """Positions 1 and 3 of every superedge in a 4-subdivision; size 2m."""
    CONSTRUCTIONS["quarter"].check(sm)
    members = [sm.superedge_vertex(u, v, l) for u, v in sm.base.edges() for l in (1, 3)]
    return _build("quarter", sm, members, 2 * sm.base.m)


def cert_fifth(sm: SubdivisionMap) -> Certificate:
    """Positions 1, 2, 4 of every superedge in a 5-subdivision, then around
    one maximum-degree vertex w (smallest id among them) trade the interior
    vertex adjacent to w on each incident superedge for w itself; size
    3m - max_degree + 1."""
    CONSTRUCTIONS["fifth"].check(sm)
    g = sm.base
    if g.m == 0:
        raise CertificateError("fifth certificate needs at least one edge")
    delta = max_degree(g)
    members = {sm.superedge_vertex(u, v, l) for u, v in g.edges() for l in (1, 2, 4)}
    w = min(v for v in range(g.n) if g.degree(v) == delta)
    for u in g.neighbors(w):
        members.discard(sm.superedge_vertex(w, u, 1))
    members.add(w)
    return _build("fifth", sm, members, 3 * g.m - delta + 1)


def cert_general(sm: SubdivisionMap) -> Certificate:
    """For an n-subdivision with n = 7k + r, r in {-1, 1, 3, 5}: per
    superedge, positions {7i+1, 7i+3, 7i+5 : 0 <= i < k} plus a residue tail
    ({} / {n-1} / {n-3, n-1} / {n-5, n-3, n-1}), indexed from the smaller
    endpoint. Size per edge is the path value for n+1 vertices."""
    CONSTRUCTIONS["general"].check(sm)
    n, dec = sm.k, decompose(sm.k)
    positions = [7 * i + off for i in range(dec.k) for off in (1, 3, 5)]
    positions += [n - t for t in range(dec.r, 0, -2)]  # the residue tail
    members = [sm.superedge_vertex(u, v, l) for u, v in sm.base.edges() for l in positions]
    claimed = path_secure_formula(n + 1) * sm.base.m
    return _build("general", sm, members, claimed)


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
        if self.resolve(sm.k) != sm.k:
            raise CertificateError(f"{self.id} certificate needs a {self.k}-subdivision, got k={sm.k}")


CONSTRUCTIONS = {row.id: row for row in (
    Construction("half", 2, cert_half),
    Construction("star", _star_k, cert_star, "--k"),
    Construction("third", 3, cert_third),
    Construction("quarter", 4, cert_quarter),
    Construction("fifth", 5, cert_fifth),
    Construction("general", seventh("general", True), cert_general, "-n"),
)}
