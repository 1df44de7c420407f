"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values are either closed forms cross-checked here against
independent brute-force enumeration, or frozen from that same oracle.
"""

import time
from fractions import Fraction

from subsec import (
    cert_fifth,
    cert_general,
    cert_quarter,
    cert_star,
    cert_third,
    check_theorem,
    conjecture_scan,
    emit_graph6,
    gamma_s_exact,
    generate,
    parse_graph6,
    path_secure_formula,
    run_corpus,
    subdivide,
)
from brute_force import brute_first, neighbor_sets
from conftest import assert_no_child_left, cycle, naive_exact, path, star, wheel_rim6


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_path_formula():
    start = time.monotonic()
    for n in range(1, 19):
        expected = path_secure_formula(n)
        pruned = gamma_s_exact(path(n))
        naive = naive_exact(path(n))
        assert pruned.status == naive.status == "exact"
        assert pruned.value == naive.value == expected, n
        assert pruned.witness == naive.witness, n
    elapsed = time.monotonic() - start
    report("criterion 1 (path formula, n=1..18, branch search and exhaustive scan)", elapsed < 60,
           f"all equal ceil(3n/7), {elapsed:.1f}s")


def test_criterion_2_wheel_sharpness():
    start = time.monotonic()
    derived = subdivide(wheel_rim6(), 2).derived
    assert derived.n == 19
    res = gamma_s_exact(derived)
    elapsed = time.monotonic() - start
    report("criterion 2 (hexagon+hub half-subdivision)",
           res.status == "exact" and res.value == 7 and elapsed < 60,
           f"gamma_s={res.value}, {elapsed:.1f}s")


def test_criterion_3_star_claims():
    start = time.monotonic()
    for n in range(3, 7):
        sm = subdivide(star(n), 2)
        res = gamma_s_exact(sm.derived)
        cert = cert_star(sm)
        assert res.value == n == cert.claimed_size
        assert cert.validated
    for n in range(3, 6):
        sm = subdivide(star(n), 3)
        res = gamma_s_exact(sm.derived)
        cert = cert_star(sm)
        assert res.value == n == cert.claimed_size
        assert cert.validated
    elapsed = time.monotonic() - start
    report("criterion 3 (star equalities, k=2 n=3..6 and k=3 n=3..5)",
           elapsed < 120, f"exact = n with validated certificates, {elapsed:.1f}s")


def test_criterion_4_certificate_soundness():
    start = time.monotonic()
    cases = [
        cert_third(subdivide(path(2), 3)),
        cert_quarter(subdivide(path(3), 4)),
        cert_quarter(subdivide(cycle(3), 4)),
        cert_fifth(subdivide(path(2), 5)),
        cert_fifth(subdivide(path(3), 5)),
        cert_fifth(subdivide(star(4), 5)),
    ]
    maps = [
        subdivide(path(2), 3), subdivide(path(3), 4), subdivide(cycle(3), 4),
        subdivide(path(2), 5), subdivide(path(3), 5), subdivide(star(4), 5),
    ]
    for n in (6, 8, 10, 12, 13):
        maps.append(subdivide(path(2), n))
        cases.append(cert_general(maps[-1]))
    for cert, sm in zip(cases, maps):
        assert cert.validated, cert.theorem_id
        exact = gamma_s_exact(sm.derived)
        assert exact.status == "exact"
        assert exact.value <= cert.claimed_size, (cert.theorem_id, exact.value)
    elapsed = time.monotonic() - start
    report("criterion 4 (certificate soundness incl. general n=6..13)",
           elapsed < 600, f"{len(cases)} certificates validated and bounding, {elapsed:.1f}s")


def test_criterion_5_discrepancy_surfacing():
    start = time.monotonic()
    # independent oracle: gamma_s of the subdivided single edge (the 5-path)
    five_path = subdivide(path(2), 4).derived
    oracle_value, _, _ = brute_first(five_path.n, neighbor_sets(five_path))
    assert oracle_value == 3
    check = check_theorem(path(2), "g14")
    ok = (check.exact == oracle_value == 3
          and check.equality == 2
          and check.status == "violated"
          and check.exact != check.equality)
    elapsed = time.monotonic() - start
    report("criterion 5 (single-edge 4-subdivision discrepancy)", ok,
           f"exact={check.exact} (oracle {oracle_value}) vs claim {check.equality} -> {check.status}, "
           f"{elapsed:.1f}s")


def test_criterion_6_general_theorem_spot_check():
    start = time.monotonic()
    for g in (path(2), path(3)):
        for n in (6, 8):
            check = check_theorem(g, "g16", n=n)
            expected = path_secure_formula(n + 1) * g.m
            assert check.exact == expected == check.equality, (g.m, n)
            assert check.status in ("tight", "holds")
    elapsed = time.monotonic() - start
    report("criterion 6 (general equality on 1- and 2-edge paths, n=6,8)",
           elapsed < 600, f"exact = pathval(n+1)*m throughout, {elapsed:.1f}s")


def test_criterion_7_conjecture_scan(small_connected_corpus, deadline):
    start = time.monotonic()
    corpus = small_connected_corpus
    assert len(corpus) == 31  # 1 + 1 + 2 + 6 + 21
    scan = conjecture_scan(corpus)
    assert not scan.skipped
    assert scan.min_ratio == min(row.ratio for row in scan.rows)
    assert scan.witnesses
    # independent confirmation of the minimum-ratio witness
    lowest = parse_graph6(scan.witnesses[0])
    derived = subdivide(lowest, 2).derived
    oracle_value, _, _ = brute_first(derived.n, neighbor_sets(derived))
    assert Fraction(oracle_value, lowest.n) == scan.min_ratio == Fraction(3, 4)
    # the strict 4/5 bound genuinely fails inside this corpus; the scan
    # must say so rather than hide it
    assert scan.counterexamples
    p11 = conjecture_scan([path(11)])
    assert p11.rows[0].ratio == Fraction(9, 11)
    elapsed = time.monotonic() - start
    report("criterion 7 (conjecture scan, 31 graphs + P_11 row)",
           elapsed < 900,
           f"0 skips, min ratio {scan.min_ratio} at {','.join(scan.witnesses)}, "
           f"{len(scan.counterexamples)} counterexamples, P_11 ratio 9/11, {elapsed:.1f}s")
    assert_no_child_left()


def test_criterion_8_invariant_suites(small_connected_corpus, deadline):
    start = time.monotonic()
    # ordering gamma <= gamma_s on every corpus graph
    checks = run_corpus(small_connected_corpus, ["prop1"], workers=1)
    assert all(c.status in ("holds", "tight") for c in checks)

    # subdivision count laws on 50 seeded random graphs, k = 1..8
    for seed in range(50):
        g = generate("random", 2 + seed % 11, p=(seed * 7 % 10 + 1) / 10, seed=seed)
        for k in range(1, 9):
            sm = subdivide(g, k)
            assert sm.derived.n == g.n + (k - 1) * g.m
            assert sm.derived.m == k * g.m

    # graph6 round trip over the full bundled corpus
    from subsec import bundled_corpus_lines

    lines = bundled_corpus_lines()
    assert len(lines) == 143
    for line in lines:
        assert emit_graph6(parse_graph6(line)) == line

    # solver determinism: same witnesses regardless of worker fan-out
    sample = [path(6), cycle(5), star(5), wheel_rim6()]
    lone = run_corpus(sample, ["prop1", "g13"], workers=1)
    pooled = run_corpus(sample, ["prop1", "g13"], workers=4)
    assert lone == pooled
    direct = [gamma_s_exact(g).witness for g in sample]
    again = [gamma_s_exact(g).witness for g in sample]
    assert direct == again

    elapsed = time.monotonic() - start
    report("criterion 8 (invariant suites)", True,
           f"prop ordering, count laws, 143-line round trip, determinism, {elapsed:.1f}s")
    assert_no_child_left()
