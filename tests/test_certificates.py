import pytest

from subsec import (
    CONSTRUCTIONS,
    CertificateError,
    SolverBudget,
    bundled_corpus_lines,
    cert_fifth,
    cert_general,
    cert_half,
    cert_quarter,
    cert_star,
    cert_third,
    gamma_s_exact,
    is_secure_dominating,
    make_graph,
    parse_graph6,
    subdivide,
)
from subsec.subdivision import seventh
from brute_force import brute_is_secure, neighbor_sets
from conftest import cycle, path, star


def oracle_validates(sm, cert):
    return brute_is_secure(sm.derived.n, neighbor_sets(sm.derived), set(cert.vertices))


class TestHalf:
    def test_path4_both_constructions(self):
        sm = subdivide(path(4), 2)
        internal, original = cert_half(sm)
        assert internal.vertices.sorted() == (4, 5, 6)
        assert (internal.claimed_size, internal.validated) == (3, True)
        assert (original.claimed_size, original.validated) == (4, True)
        assert oracle_validates(sm, internal)
        assert oracle_validates(sm, original)

    def test_triangle_internal_alternates(self):
        sm = subdivide(cycle(3), 2)
        internal, _ = cert_half(sm)
        assert len(internal.vertices) == 3 and internal.validated
        assert oracle_validates(sm, internal)

    def test_star_rejected(self):
        with pytest.raises(CertificateError):
            cert_half(subdivide(star(4), 2))

    def test_edgeless_rejected(self):
        with pytest.raises(CertificateError):
            cert_half(subdivide(make_graph(3, []), 2))

    def test_wrong_k(self):
        with pytest.raises(CertificateError):
            cert_half(subdivide(path(4), 3))


class TestStar:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
    def test_sizes_and_validation(self, n, k):
        sm = subdivide(star(n), k)
        cert = cert_star(sm)
        assert cert.claimed_size == n
        assert cert.validated and oracle_validates(sm, cert)

    def test_center_detected_from_any_labeling(self):
        # center is vertex 2 here, not 0
        g = make_graph(4, [(2, 0), (2, 1), (2, 3)])
        cert = cert_star(subdivide(g, 3))
        assert 2 in cert.vertices and cert.validated

    def test_unsupported_k(self):
        with pytest.raises(CertificateError):
            cert_star(subdivide(star(4), 4))

    def test_non_star_rejected(self):
        with pytest.raises(CertificateError):
            cert_star(subdivide(path(4), 2))


class TestThird:
    def test_p2(self):
        sm = subdivide(path(2), 3)
        cert = cert_third(sm)
        assert cert.vertices.sorted() == (2, 3)
        assert cert.claimed_size == 2 and cert.validated

    def test_triangle(self):
        sm = subdivide(cycle(3), 3)
        cert = cert_third(sm)
        assert cert.claimed_size == 6 and cert.validated
        assert oracle_validates(sm, cert)

    def test_edgeless_gives_empty_invalid(self):
        cert = cert_third(subdivide(make_graph(3, []), 3))
        assert cert.claimed_size == 0 and len(cert.vertices) == 0
        assert not cert.validated


class TestQuarter:
    def test_p3(self):
        sm = subdivide(path(3), 4)
        cert = cert_quarter(sm)
        assert cert.claimed_size == 4 and cert.validated
        assert oracle_validates(sm, cert)

    def test_triangle(self):
        cert = cert_quarter(subdivide(cycle(3), 4))
        assert cert.claimed_size == 6 and cert.validated

    def test_single_edge_fails_validation(self):
        # the equality claim breaks on P_2: no 2-subset of the 5-path is
        # secure dominating (exhaustive check), so validated must be False
        sm = subdivide(path(2), 4)
        cert = cert_quarter(sm)
        assert cert.claimed_size == 2
        assert not cert.validated
        assert not oracle_validates(sm, cert)
        assert gamma_s_exact(sm.derived, SolverBudget(engine="naive")).value == 3


class TestFifth:
    def test_p3_size(self):
        cert = cert_fifth(subdivide(path(3), 5))
        assert cert.claimed_size == 3 * 2 - 2 + 1 == 5
        assert cert.validated

    def test_star4(self):
        sm = subdivide(star(4), 5)
        cert = cert_fifth(sm)
        assert cert.claimed_size == 3 * 3 - 3 + 1 == 7
        assert cert.validated and oracle_validates(sm, cert)
        assert 0 in cert.vertices  # the hub replaces its adjacent interiors

    def test_p2(self):
        sm = subdivide(path(2), 5)
        cert = cert_fifth(sm)
        assert cert.claimed_size == 3 and cert.validated
        assert oracle_validates(sm, cert)

    def test_edgeless_rejected(self):
        with pytest.raises(CertificateError):
            cert_fifth(subdivide(make_graph(2, []), 5))

    def test_hub_with_the_largest_id(self):
        # P3 with hub 2: counted from each smaller end, positions 1, 2, 4
        # left Internal(0,2,4) without a defender
        sm = subdivide(parse_graph6("BW"), 5)
        cert = cert_fifth(sm)
        assert 2 in cert.vertices and cert.claimed_size == 5
        assert cert.validated and oracle_validates(sm, cert)

    def test_bundled_sample_passes_the_definitional_check(self):
        bases = [g for g in map(parse_graph6, bundled_corpus_lines()) if g.m]
        assert len(bases) == 142
        for g in bases:
            sm = subdivide(g, 5)
            cert = cert_fifth(sm)
            assert cert.validated and oracle_validates(sm, cert), g
            assert is_secure_dominating(sm.derived, cert.vertices, full_recompute=True), g


class TestDecompose:
    """The n = 7k + r rule, ``subdivision.seventh``: g16 takes n with r in
    (-1, 1, 3, 5), r024 takes the rest, and both need n >= 6."""

    g16, r024 = staticmethod(seventh("g16", True)), staticmethod(seventh("r024", False))

    def test_examples(self):
        assert self.g16(6) == 6 and self.g16(13) == 13 and self.r024(9) == 9
        with pytest.raises(ValueError, match=r"^g16 needs n = 7k \+ r .*; n=9 is r024$"):
            self.g16(9)
        with pytest.raises(ValueError, match=r"^r024 needs n mod 7 in \(0, 2, 4\); n=6 is r=-1$"):
            self.r024(6)

    def test_residue_partition(self):
        for n in range(6, 60):
            covered = n % 7 in (1, 3, 5, 6)
            assert (self.g16 if covered else self.r024)(n) == n
            with pytest.raises(ValueError) as exc:
                (self.r024 if covered else self.g16)(n)
            assert type(exc.value) is ValueError
            assert str(exc.value) == (
                f"r024 needs n mod 7 in (0, 2, 4); n={n} is r={(n + 1) % 7 - 1}" if covered
                else f"g16 needs n = 7k + r with r in (-1, 1, 3, 5); n={n} is r024")

    def test_too_small(self):
        for what, rule in (("g16", self.g16), ("r024", self.r024)):
            for n in (None, -1, 0, 5):
                with pytest.raises(ValueError) as exc:
                    rule(n)
                assert str(exc.value) == (f"{what} needs the subdivision parameter -n" if n is None
                                          else f"{what} needs -n >= 6, got {n}")


class TestGeneral:
    @pytest.mark.parametrize("n,size", [(6, 3), (8, 4), (10, 5), (12, 6), (13, 6)])
    def test_single_edge_matches_path_optimum(self, n, size):
        sm = subdivide(path(2), n)
        cert = cert_general(sm)
        assert cert.claimed_size == size
        assert cert.validated
        assert gamma_s_exact(sm.derived).value == size

    def test_pattern_positions(self):
        cert = cert_general(subdivide(path(2), 8))
        # single superedge 0-2-3-...-9-1: interiors at distances 1,3,5 then n-1=7
        assert cert.vertices.sorted() == (2, 4, 6, 8)

    def test_multi_edge_base(self):
        sm = subdivide(path(3), 6)
        cert = cert_general(sm)
        assert cert.claimed_size == 6 and cert.validated

    def test_uncovered_residue_rejected(self):
        with pytest.raises(CertificateError, match=r"^general needs n = 7k \+ r .*; n=9 is r024$"):
            cert_general(subdivide(path(2), 9))

    def test_small_n_rejected(self):
        with pytest.raises(CertificateError, match="^general needs -n >= 6, got 5$"):
            cert_general(subdivide(path(2), 5))


class TestConstructionTable:
    TAKES = {"half": {2}, "star": {2, 3}, "third": {3}, "quarter": {4}, "fifth": {5},
             "general": {6, 8, 10, 12, 13}}

    def test_rows_are_the_public_builders(self):
        assert {tid: row.build for tid, row in CONSTRUCTIONS.items()} == {
            "half": cert_half, "star": cert_star, "third": cert_third,
            "quarter": cert_quarter, "fifth": cert_fifth, "general": cert_general,
        }

    @pytest.mark.parametrize("tid", TAKES)
    def test_builder_takes_exactly_the_k_of_its_row(self, tid):
        row = CONSTRUCTIONS[tid]
        base = star(4) if tid == "star" else path(4)
        for k in range(1, 15):
            sm = subdivide(base, k)
            if k in self.TAKES[tid]:
                assert row.resolve(k) == k
                row.build(sm)
            else:
                with pytest.raises(CertificateError, match=f"{tid}.* needs"):
                    row.build(sm)


# The bundled bases whose certificate fails validation, per construction and
# parameter; a base the construction does not take is skipped. Every other
# bundled base must validate, as ``fifth``'s empty set says of every base
# with an edge.
BUNDLED_FAILURES = [
    ("half", None, set()),
    ("star", 2, set()),
    ("star", 3, set()),
    ("third", None, {"@"}),  # K1: claimed 0
    ("quarter", None, {"@", "A_"}),  # K2^{1/4} = P5 has gamma_s 3 > 2
    ("fifth", None, set()),
    ("general", 6, {"@"}),
    ("general", 8, {"@"}),
    ("general", 12, {"@"}),
    ("general", 13, {"@"}),
]


@pytest.mark.parametrize("tid, param, failing", BUNDLED_FAILURES,
                         ids=[f"{tid}{param or ''}" for tid, param, _ in BUNDLED_FAILURES])
def test_bundled_corpus_validation_is_pinned(tid, param, failing):
    row = CONSTRUCTIONS[tid]
    k = row.resolve(param)
    failed = set()
    for line in bundled_corpus_lines():
        try:
            built = row.build(subdivide(parse_graph6(line), k))
        except CertificateError:
            continue
        if not all(cert.validated for cert in (built if isinstance(built, tuple) else (built,))):
            failed.add(line)
    assert failed == failing


class TestCrossCuttingInvariants:
    def test_sizes_match_formulas_on_corpus(self):
        from subsec import enumerate_connected

        bases = []
        for n in range(1, 6):
            bases.extend(enumerate_connected(n))
        for g in bases:
            if g.m == 0:
                continue
            assert cert_third(subdivide(g, 3)).claimed_size == 2 * g.m
            assert cert_quarter(subdivide(g, 4)).claimed_size == 2 * g.m
            fifth = cert_fifth(subdivide(g, 5))
            assert fifth.claimed_size == 3 * g.m - max(g.degree(v) for v in range(g.n)) + 1
            assert cert_general(subdivide(g, 6)).claimed_size == 3 * g.m

    def test_validated_upper_bounds_exact(self):
        cases = [
            cert_third(subdivide(path(2), 3)),
            cert_quarter(subdivide(path(3), 4)),
            cert_fifth(subdivide(path(2), 5)),
        ]
        for cert in cases:
            assert cert.validated
        assert gamma_s_exact(subdivide(path(2), 3).derived).value <= 2
        assert gamma_s_exact(subdivide(path(3), 4).derived).value <= 4
        assert gamma_s_exact(subdivide(path(2), 5).derived).value <= 3

    def test_determinism(self):
        first = cert_fifth(subdivide(cycle(4), 5))
        second = cert_fifth(subdivide(cycle(4), 5))
        assert first == second
