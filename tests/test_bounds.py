import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from subsec import (
    SolverBudget,
    THEOREM_IDS,
    check_theorem,
    conjecture_scan,
    emit_graph6,
    enumerate_connected,
    path_secure_formula,
    render_checks,
    render_conjecture,
    run_corpus,
    summarize,
)
from subsec import bounds
from subsec.bounds import (
    CHECK_COLUMNS,
    CLAIMS,
    CONJECTURE_COLUMNS,
    BoundCheck,
    ConjectureReport,
    ConjectureRow,
    stream_checks,
    stream_conjecture,
)
from conftest import assert_no_child_left, complete, cycle, path, run_main, star, wheel_rim6


def assert_invariants(check):
    if check.status == "skipped":
        assert check.exact is None
    else:
        assert check.exact is not None
    if check.status == "violated":
        broken = (
            (check.lower is not None and check.exact < check.lower)
            or (check.theorem_id == "conj" and check.exact <= check.lower)
            or (check.upper is not None and check.exact > check.upper)
            or (check.equality is not None and check.exact != check.equality)
        )
        assert broken
    if check.status == "tight":
        assert check.exact in (check.lower, check.upper, check.equality)


class TestCheckTheorem:
    def test_g12_path4_tight(self):
        check = check_theorem(path(4), "g12")
        assert (check.exact, check.upper, check.status) == (3, 3, "tight")

    def test_g12_skips_stars(self):
        check = check_theorem(star(4), "g12")
        assert check.status == "skipped"
        assert check.detail == "precondition: star"

    def test_star2(self):
        check = check_theorem(star(4), "star2")
        assert (check.exact, check.equality, check.status) == (4, 4, "tight")
        other = check_theorem(path(4), "star2")
        assert other.status == "skipped" and "star" in other.detail

    def test_g13_star_tight_at_lower(self):
        check = check_theorem(star(4), "g13")
        assert (check.exact, check.lower, check.upper) == (4, 4, 6)
        assert check.status == "tight" and "lower" in check.detail

    def test_g14_single_edge_violated(self):
        check = check_theorem(path(2), "g14", budget=SolverBudget(engine="naive"))
        assert check.equality == 2
        assert check.exact == 3
        assert check.status == "violated"
        assert_invariants(check)

    def test_g14_c4_violated(self):
        # C4^{1/4} is C16, and gamma_s(C_n) = ceil(3n/7) like the path.
        check = check_theorem(cycle(4), "g14")
        assert check.exact == path_secure_formula(16) == 7
        assert check.equality == 2 * 4
        assert check.status == "violated" and check.detail == "exact 7 < claimed 8"

    def test_g14_path3_tight(self):
        check = check_theorem(path(3), "g14")
        assert (check.exact, check.equality, check.status) == (4, 4, "tight")

    def test_g15_path3(self):
        check = check_theorem(path(3), "g15")
        assert (check.lower, check.upper) == (5, 5)
        assert check.exact == 5 and check.status == "tight"

    def test_g16_requires_covered_residue(self):
        check = check_theorem(path(2), "g16", n=6)
        assert (check.exact, check.equality, check.status) == (3, 3, "tight")
        with pytest.raises(ValueError):
            check_theorem(path(2), "g16", n=9)
        with pytest.raises(ValueError):
            check_theorem(path(2), "g16")

    def test_r024(self):
        check = check_theorem(path(2), "r024", n=7)
        # claim: n_G + pathval(4) * m <= exact <= pathval(8) * m
        assert (check.lower, check.upper) == (2 + 2, 4)
        assert check.exact == 4 and check.status == "tight"
        with pytest.raises(ValueError):
            check_theorem(path(2), "r024", n=8)

    def test_prop1(self):
        check = check_theorem(path(6), "prop1")
        assert check.status in ("holds", "tight")
        assert check.lower <= check.exact
        assert_invariants(check)

    def test_conj_ratio(self):
        check = check_theorem(path(11), "conj")
        assert check.exact == 9
        assert check.lower == Fraction(44, 5)
        assert check.status == "holds"
        assert "ratio 9/11" in check.detail

    def test_conj_counterexample_surfaced(self):
        check = check_theorem(path(4), "conj")
        assert check.exact == 3 and check.status == "violated"
        assert "ratio 3/4" in check.detail

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check_theorem(path(3), "g99")

    def test_budget_skip_reports_vertex_count(self):
        check = check_theorem(wheel_rim6(), "g13", budget=SolverBudget(max_vertices=10))
        assert check.status == "skipped"
        assert "31 vertices" in check.detail
        assert_invariants(check)

    def test_vertex_cap_skip_never_builds_the_subdivision(self, monkeypatch):
        def no_subdivide(g, k):
            raise AssertionError(f"G^{{1/{k}}} was built")

        monkeypatch.setattr(bounds, "subdivide", no_subdivide)
        check = check_theorem(complete(4), "g16", n=700001)
        assert check.status == "skipped"
        assert check.detail == "budget: derived graph has 4200004 vertices, cap 26"
        assert check.equality == path_secure_formula(700002) * 6

    def test_prop1_skip_names_the_vertex_cap(self):
        check = check_theorem(path(30), "prop1")
        assert check.status == "skipped"
        assert check.detail == "budget: derived graph has 30 vertices, cap 26"
        assert (check.lower, check.upper, check.equality, check.exact) == (None, None, None, None)

    def test_prop1_skip_keeps_the_gamma_that_solved(self):
        check = check_theorem(path(20), "prop1", budget=SolverBudget(max_nodes=200))
        assert (check.lower, check.exact, check.status) == (7, None, "skipped")
        assert check.detail == "budget: exhausted after 201 nodes"

    def test_graph_id_defaults_to_graph6(self):
        assert check_theorem(path(2), "g13").graph_id == "A_"
        assert check_theorem(path(2), "g13", graph_id="pair").graph_id == "pair"


class TestRunCorpus:
    def test_order_and_summary(self):
        corpus = [path(2), path(3), path(4)]
        checks = run_corpus(corpus, ["g13", "g14"], workers=1)
        assert [c.theorem_id for c in checks] == ["g13", "g14"] * 3
        assert [c.graph_id for c in checks][::2] == ["A_", "Bg", "Ch"]
        counts = summarize(checks)
        assert sum(counts.values()) == 6
        assert counts["violated"] == 1  # the single-edge g14 case

    def test_prop1_never_violated_small_connected(self):
        corpus = []
        for n in range(1, 5):
            corpus.extend(enumerate_connected(n))
        checks = run_corpus(corpus, ["prop1"], workers=1)
        assert all(c.status != "violated" for c in checks)
        for c in checks:
            assert_invariants(c)

    def test_workers_do_not_change_output(self, deadline):
        corpus = [path(4), cycle(4), star(4), path(5)]
        lone = run_corpus(corpus, ["g13", "prop1", "conj"], workers=1)
        pooled = run_corpus(corpus, ["g13", "prop1", "conj"], workers=3)
        assert lone == pooled
        assert_no_child_left()

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_corpus([path(3)], ["bogus"], workers=1)

    def test_bad_n_rejected_on_empty_corpus(self):
        with pytest.raises(ValueError, match="n=8 is r=1"):
            run_corpus([], ["r024"], n=8, workers=1)
        with pytest.raises(ValueError):
            run_corpus([], ["g16"], n=3, workers=1)

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        for name in ("gamma_s_exact", "gamma_exact"):
            def counted(g, *args, _name=name, _orig=getattr(bounds, name), **kwargs):
                calls.append((_name, g.n))
                return _orig(g, *args, **kwargs)
            monkeypatch.setattr(bounds, name, counted)
        return calls

    def test_one_solve_per_graph_and_k(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        checks = run_corpus([cycle(5)], ["prop1", "g12", "star2", "conj"], workers=1)
        # gamma_s of C5 (prop1) and of C5^{1/2} = C10 (g12 and conj), gamma of C5 (prop1)
        assert sorted(calls) == [("gamma_exact", 5), ("gamma_s_exact", 5), ("gamma_s_exact", 10)]
        assert [c.exact for c in checks] == [3, 5, None, 5]

    def test_skipped_solve_is_shared(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        g12, conj = run_corpus([cycle(5)], ["g12", "conj"], budget=SolverBudget(max_nodes=20),
                               workers=1)
        assert calls == [("gamma_s_exact", 10)]
        assert g12.status == conj.status == "skipped"
        assert g12.detail == conj.detail == "budget: exhausted after 21 nodes"

    def test_engine_crosses_the_pool(self, deadline):
        # C5^{1/2} = C10 takes 72 branch nodes and 387 naive ones.
        for engine, detail in (("naive", "budget: exhausted after 301 nodes"), ("branch", "ratio 1")):
            budget = SolverBudget(max_nodes=300, engine=engine)
            c5, p3 = run_corpus([cycle(5), path(3)], ["conj"], budget=budget, workers=2)
            assert c5.detail == detail
            assert p3.exact == 3
        assert_no_child_left()

    def test_certificate_consistency(self):
        # wherever a construction validates, the matching check's exact value
        # cannot exceed that certificate's claimed size
        from subsec import cert_fifth, cert_quarter, cert_third, subdivide

        pairings = [(cert_third, 3, "g13"), (cert_quarter, 4, "g14"), (cert_fifth, 5, "g15")]
        for g in [path(3), cycle(3), star(4)]:
            for builder, k, tid in pairings:
                cert = builder(subdivide(g, k))
                check = check_theorem(g, tid)
                if cert.validated and check.exact is not None:
                    assert check.exact <= cert.claimed_size


class TestConjectureScan:
    def test_p11_row(self):
        report = conjecture_scan([path(11)], workers=1)
        row = report.rows[0]
        assert row.value == 9 and row.ratio == Fraction(9, 11)
        assert row.status == "ok"
        assert report.min_ratio == Fraction(9, 11)

    def test_single_vertex(self):
        report = conjecture_scan([path(1)], workers=1)
        assert report.rows[0].value == 1
        assert report.rows[0].ratio == Fraction(1, 1)

    def test_small_corpus_finds_the_path_counterexample(self):
        report = conjecture_scan([path(3), path(4)], workers=1)
        assert report.rows[1].status == "counterexample"
        assert report.counterexamples == (report.rows[1].graph_id,)
        assert report.min_ratio == Fraction(3, 4)
        assert report.witnesses == (report.rows[1].graph_id,)

    def test_skip_bucketed(self):
        report = conjecture_scan([path(11)], budget=SolverBudget(max_vertices=10), workers=1)
        assert report.rows[0].status == "skipped"
        assert report.skipped == (report.rows[0].graph_id,)
        assert report.min_ratio is None


class TestRendering:
    def fixture_checks(self):
        return run_corpus([path(2), path(3), star(4)], ["g13", "g14", "g12"], workers=1)

    def test_tsv_shape(self):
        lines = render_checks(self.fixture_checks(), "tsv")
        header = lines[0].split("\t")
        assert header == ["graph_id", "theorem", "lower", "upper", "equality",
                          "exact", "status", "detail"]
        assert lines[-1].startswith("# summary:")
        assert all(len(line.split("\t")) == 8 for line in lines[1:-1])

    def test_jsonl_parses(self):
        lines = render_checks(self.fixture_checks(), "jsonl")
        rows = [json.loads(line) for line in lines]
        assert "summary" in rows[-1]
        assert rows[0]["theorem"] == "g13"

    def test_byte_determinism(self):
        one = "\n".join(render_checks(self.fixture_checks(), "tsv"))
        two = "\n".join(render_checks(self.fixture_checks(), "tsv"))
        assert one == two

    def test_conjecture_renderings(self):
        report = conjecture_scan([path(4), path(11)], workers=1)
        tsv = render_conjecture(report, "tsv")
        assert tsv[0].split("\t")[0] == "graph_id"
        assert any("min_ratio" in line for line in tsv)
        rows = [json.loads(line) for line in render_conjecture(report, "jsonl")]
        assert rows[0]["ratio"] == "3/4"
        text = render_conjecture(report, "text")
        assert any("counterexamples" in line for line in text)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_checks([], "xml")

    def test_theorem_catalog_is_closed(self):
        assert set(THEOREM_IDS) == {
            "prop1", "g12", "star2", "g13", "g14", "g15", "g16", "r024", "conj",
        }


# P11^{1/2} has 21 vertices, past this budget's cap, so its rows are
# skipped; the conj rows' lower bound 4n/5 is a Fraction.
STREAM_CORPUS = [path(4), star(4), path(11)]
STREAM_BUDGET = SolverBudget(max_vertices=12)


def assert_streamed(blocks, rendered, header, rows):
    """``blocks`` join to ``rendered``: the header only at the start of the
    first block, ``rows`` record lines, then a last block that is the
    summary alone."""
    blocks = list(blocks)
    assert [line for block in blocks for line in block] == rendered
    heads = [header] if header else []
    assert [line for block in blocks for line in block if line == header] == heads
    assert blocks[0][:len(heads)] == heads
    assert blocks[-1] == rendered[len(heads) + rows:] != []


class TestStreams:
    """A stream is its whole report, made a block at a time."""

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl", "text"])
    def test_checks(self, fmt):
        tids = ["g13", "conj"]
        checks = run_corpus(STREAM_CORPUS, tids, budget=STREAM_BUDGET, workers=1)
        assert {"skipped", "holds"} <= {c.status for c in checks}
        assert any(isinstance(c.lower, Fraction) and c.lower.denominator > 1 for c in checks)
        blocks, counts = stream_checks(STREAM_CORPUS, tids, fmt, budget=STREAM_BUDGET, workers=1)
        made, lines = [], 0
        for block in blocks:
            made.append(block)
            lines += len(block)
            # the counts cover every row made so far, all of them at the end
            assert counts == summarize(checks[:min(lines - (fmt == "tsv"), len(checks))])
        assert counts == summarize(checks)
        header = "\t".join(CHECK_COLUMNS) if fmt == "tsv" else None
        assert_streamed(made, render_checks(checks, fmt), header, len(checks))

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl", "text"])
    def test_conjecture(self, fmt):
        report = conjecture_scan(STREAM_CORPUS, budget=STREAM_BUDGET, workers=1)
        assert report.skipped and report.min_ratio.denominator > 1
        blocks = stream_conjecture(STREAM_CORPUS, fmt, budget=STREAM_BUDGET, workers=1)
        header = "\t".join(CONJECTURE_COLUMNS) if fmt == "tsv" else None
        assert_streamed(blocks, render_conjecture(report, fmt), header, len(report.rows))

    def test_a_report_is_its_rows(self):
        # The minimum 2/3 is tied, after a larger ratio was the minimum.
        report = ConjectureReport((
            ConjectureRow("Ch", 4, 4, Fraction(1), "ok"),
            ConjectureRow("Dhc", 5, 4, Fraction(4, 5), "counterexample"),
            ConjectureRow("Bw", 3, 2, Fraction(2, 3), "counterexample"),
            ConjectureRow("ShCGG", 20, None, None, "skipped"),
            ConjectureRow("EhEG", 6, 4, Fraction(2, 3), "counterexample"),
        ))
        assert report.min_ratio == Fraction(2, 3)
        assert report.witnesses == ("Bw", "EhEG")
        assert report.counterexamples == ("Dhc", "Bw", "EhEG")
        assert report.skipped == ("ShCGG",)
        assert render_conjecture(report, "tsv")[-2:] == [
            "# min_ratio: 2/3 witnesses: Bw,EhEG", "# counterexamples: 3 skipped: 1"]


def render_check_row(fmt):
    return render_checks([BoundCheck("Ch", "g13", Fraction(7, 2), 5, 6, 4, "violated", "a detail")], fmt)


def render_conjecture_row(fmt):
    row = ConjectureRow("Dhc", 5, 4, Fraction(4, 5), "counterexample")
    return render_conjecture(ConjectureReport((row,)), fmt)


# Each record with distinct field values: its renderer, columns, and field
# values as TSV writes them and as JSON reads them back.
REPORT_ROWS = [
    (render_check_row, CHECK_COLUMNS, ["Ch", "g13", "7/2", "5", "6", "4", "violated", "a detail"],
     ["Ch", "g13", "7/2", 5, 6, 4, "violated", "a detail"]),
    (render_conjecture_row, CONJECTURE_COLUMNS, ["Dhc", "5", "4", "4/5", "counterexample"],
     ["Dhc", 5, 4, "4/5", "counterexample"]),
]


class TestReportRows:
    """A report row is its record: one column per field, in declaration order."""

    @pytest.mark.parametrize("columns, record, renamed", [
        (CHECK_COLUMNS, BoundCheck, ["theorem"]),
        (CONJECTURE_COLUMNS, ConjectureRow, ["gamma_s_half"]),
    ])
    def test_one_column_per_field(self, columns, record, renamed):
        assert len(columns) == len(set(columns)) == len(record._fields)
        assert [column for column, field in zip(columns, record._fields) if column != field] == renamed

    @pytest.mark.parametrize("render, columns, tsv, _", REPORT_ROWS)
    def test_tsv_row_is_the_fields_in_order(self, render, columns, tsv, _):
        lines = render("tsv")
        assert lines[:2] == ["\t".join(columns), "\t".join(tsv)]

    @pytest.mark.parametrize("render, columns, _, values", REPORT_ROWS)
    def test_jsonl_row_is_the_fields_in_order(self, render, columns, _, values):
        row = json.loads(render("jsonl")[0])
        assert list(row.items()) == list(zip(columns, values))


# Every claim, at a -n it is stated for where it needs one.
VERIFY_RUNS = [["prop1,g12,star2,g13,g14,g15,conj"], ["g16", "-n", "6"], ["r024", "-n", "7"]]
SKIP_DETAIL = re.compile(r"precondition: .+|budget: derived graph has \d+ vertices, cap \d+"
                         r"|budget: exhausted after \d+ nodes")


class TestSkipDetails:
    """A skipped verify row names the precondition it fails or the cap that fired."""

    @pytest.mark.parametrize("theorems", VERIFY_RUNS, ids=["fixed-k", "g16", "r024"])
    def test_every_skip_names_its_cause(self, tmp_path, theorems):
        p30 = tmp_path / "p30.g6"
        p30.write_text(emit_graph6(path(30)) + "\n", encoding="ascii")
        for corpus in (Path(__file__).parent / "golden" / "budget.g6", p30):
            code, out, _ = run_main(["verify", "--theorem", *theorems, "--max-nodes", "200",
                                     "--corpus", str(corpus)])
            assert code == 0
            rows = [line.split("\t") for line in out.splitlines()[1:-1]]
            details = [detail for *_, status, detail in rows if status == "skipped"]
            assert details
            assert [d for d in details if not SKIP_DETAIL.fullmatch(d)] == []


class TestCatalog:
    def test_readme_catalog_matches_claims(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Bound catalog", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` +\| (.*?) *\|$", section, flags=re.MULTILINE)
        assert rows == [(c.id, c.text) for c in CLAIMS]
