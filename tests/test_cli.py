import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

import subsec
from subsec import emit_graph6, gamma_s_exact, generate, parse_graph6, subdivide
from subsec.bounds import CLAIMS

from conftest import ENV, python, run_main


class TestGenEnum:
    def test_gen_path_g6(self):
        code, out, _ = run_main(["gen", "--family", "path", "--n", "4", "--format", "g6"])
        assert code == 0 and out == "Ch\n"

    def test_gen_edges(self):
        code, out, _ = run_main(["gen", "--family", "path", "--n", "3", "--format", "edges"])
        assert code == 0 and out == "p 3\ne 0 1\ne 1 2\n"

    def test_gen_random_seeded(self):
        args = ["gen", "--family", "random", "--n", "9", "--p", "0.5", "--seed", "11"]
        code, first, _ = run_main(args)
        code2, second, _ = run_main(args)
        assert code == code2 == 0 and first == second

    def test_gen_random_without_seed_is_usage_error(self):
        code, _, err = run_main(["gen", "--family", "random", "--n", "5", "--p", "0.5"])
        assert code == 64 and "seed" in err

    @pytest.mark.parametrize("args, message", [
        (["--family", "path", "--n", "0"], "n must be >= 1"),
        (["--family", "wheel", "--n", "2"], "wheel needs rim size n >= 3"),
        (["--family", "random", "--n", "5", "--p", "2", "--seed", "1"],
         "random family needs p in [0,1]"),
        (["--family", "star", "--n", "1"], "star needs n >= 2"),
        (["--family", "path", "--n", "4", "--p", "0.5"], "--family path takes no --p"),
        (["--family", "cycle", "--n", "4", "--seed", "1"], "--family cycle takes no --seed"),
    ], ids=["path-n", "wheel-rim", "random-p", "star-n", "path-p", "cycle-seed"])
    def test_gen_parameter_out_of_range_is_usage_error(self, args, message):
        code, out, err = run_main(["gen", *args])
        assert (code, out, err) == (64, "", f"usage error: {message}\n")

    def test_enum(self):
        code, out, _ = run_main(["enum", "--n", "4"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert all(parse_graph6(line).n == 4 for line in lines)


class TestSolveCommands:
    def test_gamma_s_on_path7(self):
        code, out, _ = run_main(["gamma-s"], emit_graph6(generate("path", 7)) + "\n")
        assert code == 0
        assert out == "value=3 status=exact witness=1,3,5\n"

    def test_gamma_batch_lines(self):
        stdin = "\n".join(emit_graph6(generate("path", n)) for n in (4, 5, 6)) + "\n"
        code, out, _ = run_main(["gamma"], stdin)
        values = [line.split()[0] for line in out.splitlines()]
        assert code == 0 and values == ["value=2", "value=2", "value=2"]

    def test_skipped_row(self):
        code, out, _ = run_main(["gamma-s", "--max-vertices", "3"],
                                emit_graph6(generate("path", 7)) + "\n")
        assert code == 0 and out == "value=- status=skipped witness=- cap=vertices\n"

    def test_skipped_row_names_the_node_cap(self):
        code, out, _ = run_main(["gamma", "--max-nodes", "1"],
                                emit_graph6(generate("path", 7)) + "\n")
        assert code == 0 and out == "value=- status=skipped witness=- cap=nodes\n"

    def test_edges_input(self):
        code, out, _ = run_main(["gamma-s", "--format", "edges"],
                                "p 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        assert code == 0 and out.startswith("value=3 ")

    def test_naive_matches_default(self):
        stdin = "\n".join(emit_graph6(g) for g in
                          [generate("path", 6), generate("cycle", 5), generate("star", 4)]) + "\n"
        _, fast, _ = run_main(["gamma-s"], stdin)
        _, slow, _ = run_main(["gamma-s", "--engine", "naive"], stdin)
        assert fast == slow


class TestEngineFlag:
    # C5^{1/2} = C10 takes 72 branch nodes and 387 naive ones, so a 300-node
    # cap shows which engine each solving command ran.
    @pytest.mark.parametrize("engine", ["naive", "branch"])
    def test_engine_reaches_the_solver(self, engine):
        flags = ["--engine", engine, "--max-nodes", "300"]
        half = emit_graph6(subdivide(parse_graph6("Dhc"), 2).derived) + "\n"
        _, solved, _ = run_main(["gamma-s", *flags], half)
        _, verified, _ = run_main(["verify", "--theorem", "conj", "--output", "jsonl", *flags],
                                  "Dhc\n")
        _, scanned, _ = run_main(["conjecture", "--output", "jsonl", *flags], "Dhc\n")
        check = json.loads(verified.splitlines()[0])
        row = json.loads(scanned.splitlines()[0])
        if engine == "naive":
            assert solved == "value=- status=skipped witness=- cap=nodes\n"
            assert (check["exact"], check["detail"]) == (None, "budget: exhausted after 301 nodes")
            assert (row["gamma_s_half"], row["status"]) == (None, "skipped")
        else:
            assert solved == "value=5 status=exact witness=0,1,2,3,4\n"
            assert (check["exact"], check["status"]) == (5, "holds")
            assert (row["gamma_s_half"], row["status"]) == (5, "ok")


class TestSubdivideCommand:
    def test_pipe_composability(self):
        base = generate("path", 4)
        code, mid, _ = run_main(["subdivide", "--k", "2"], emit_graph6(base) + "\n")
        assert code == 0
        code, out, _ = run_main(["gamma-s"], mid)
        assert code == 0
        direct = gamma_s_exact(subdivide(base, 2).derived)
        witness = ",".join(str(v) for v in direct.witness.sorted())
        assert out == f"value={direct.value} status=exact witness={witness}\n"

    def test_labels_in_edges_format(self):
        code, out, _ = run_main(["subdivide", "--k", "3", "--format", "edges", "--labels"],
                                "p 2\ne 0 1\n")
        assert code == 0
        assert "# label 2\tInternal(0,1,1)" in out
        assert "# label 0\tOriginal(0)" in out
        # the label comments stay parseable as an edge list
        code, out2, _ = run_main(["gamma-s", "--format", "edges"], out)
        assert code == 0 and out2.startswith("value=2 ")

    def test_labels_need_edges_format(self):
        code, _, err = run_main(["subdivide", "--k", "2", "--labels"], "A_\n")
        assert code == 64 and "--labels" in err

    @pytest.mark.parametrize("k, stdin", [("0", "A_\n"), ("0", ""), ("-2", ""),
                                          ("0", "not graph6 !!\n")])
    def test_bad_k_is_usage_error_before_input(self, k, stdin):
        code, out, err = run_main(["subdivide", "--k", k], stdin)
        assert code == 64 and out == "" and err == f"usage error: subdivide needs --k >= 1, got {k}\n"


class TestCertCommand:
    def test_quarter_on_single_edge(self):
        code, out, _ = run_main(["cert", "--theorem", "quarter"], "A_\n")
        assert code == 0
        assert "theorem=quarter claimed=2 size=2 validated=false" in out
        assert "labels=Internal(0,1,1),Internal(0,1,3)" in out

    def test_half_prints_both(self):
        code, out, _ = run_main(["cert", "--theorem", "half"],
                                emit_graph6(generate("path", 4)) + "\n")
        assert code == 0
        assert "theorem=half.internal" in out and "theorem=half.original" in out

    def test_star_needs_k(self):
        code, _, err = run_main(["cert", "--theorem", "star"],
                                emit_graph6(generate("star", 4)) + "\n")
        assert code == 64 and "--k" in err

    def test_general(self):
        code, out, _ = run_main(["cert", "--theorem", "general", "-n", "6"], "A_\n")
        assert code == 0 and "claimed=3 size=3 validated=true" in out

    @pytest.mark.parametrize("n, stdin", [("3", "A_\n"), ("0", "A_\n"), ("5", ""), ("0", ""),
                                          ("3", "not graph6 !!\n")])
    def test_general_bad_n_is_usage_error_before_input(self, n, stdin):
        code, out, err = run_main(["cert", "--theorem", "general", "-n", n], stdin)
        assert code == 64 and out == "" and err == f"usage error: general needs -n >= 6, got {n}\n"

    def test_general_needs_n(self):
        code, out, err = run_main(["cert", "--theorem", "general"])
        assert code == 64 and out == "" and err == "usage error: general needs the subdivision parameter -n\n"

    @pytest.mark.parametrize("n", ["7", "9", "14"])
    def test_general_uncovered_residue_is_usage_error_before_input(self, n):
        code, out, err = run_main(["cert", "--theorem", "general", "-n", n])
        assert code == 64 and out == ""
        assert err == f"usage error: general needs n = 7k + r with r in (-1, 1, 3, 5); n={n} is r024\n"

    @pytest.mark.parametrize("flags", [["--theorem", "star"], ["--theorem", "star", "--k", "4"],
                                       ["--theorem", "star", "-n", "2"]])
    def test_star_bad_k_is_usage_error_before_input(self, flags):
        code, out, err = run_main(["cert", *flags])
        assert code == 64 and out == "" and err == "usage error: --theorem star needs --k 2 or --k 3\n"

    @pytest.mark.parametrize("stdin", ["", "A_\n"])
    @pytest.mark.parametrize("flags, message", [
        (["--theorem", "half", "--k", "3"], "--theorem half takes no --k"),
        (["--theorem", "third", "-n", "9"], "--theorem third takes no -n"),
        (["--theorem", "general", "-n", "6", "--k", "9"], "--theorem general takes no --k"),
        (["--theorem", "star", "--k", "2", "-n", "2"], "--theorem star takes no -n"),
        # the row's own parameter rule runs first, with its own message
        (["--theorem", "star", "-n", "2"], "--theorem star needs --k 2 or --k 3"),
        (["--theorem", "general", "-n", "5", "--k", "9"], "general needs -n >= 6, got 5"),
        (["--theorem", "general", "--k", "9"], "general needs the subdivision parameter -n"),
    ])
    def test_unread_parameter_is_usage_error_before_input(self, flags,
                                                          message, stdin):
        code, out, err = run_main(["cert", *flags], stdin)
        assert code == 64 and out == "" and err == f"usage error: {message}\n"

    def test_star_on_non_star_base(self):
        code, out, err = run_main(["cert", "--theorem", "star", "--k", "2"], "Ch\n")
        assert code == 0 and err == ""
        assert out == "theorem=star status=skipped (star certificate needs a star base)\n"

    @pytest.mark.parametrize("flags, built, skipped", [
        (["--theorem", "half"], 137, {"half certificate needs at least one edge": 1,
                                      "half certificate excludes stars": 5}),
        (["--theorem", "star", "--k", "2"], 5, {"star certificate needs a star base": 138}),
        (["--theorem", "fifth"], 142, {"fifth certificate needs at least one edge": 1}),
        (["--theorem", "third"], 143, {}),
        (["--theorem", "quarter"], 143, {}),
        (["--theorem", "general", "-n", "13"], 143, {}),
    ])
    def test_bases_a_construction_cannot_take_are_skipped(self, flags, built, skipped):
        """One skip line per base the construction does not take; the rest
        of the corpus is still certified, in input order."""
        corpus = os.path.join(os.path.dirname(subsec.__file__), "data", "connected_upto6.g6")
        code, out, err = run_main(["cert", *flags, "--input", corpus])
        assert code == 0 and err == ""
        lines = out.splitlines()
        prefix = f"theorem={flags[1]} status=skipped ("
        reasons = Counter(line.removeprefix(prefix).removesuffix(")")
                          for line in lines if " status=skipped " in line)
        assert reasons == Counter(skipped)
        per_graph = 2 if flags[1] == "half" else 1  # half prints two certificates
        assert len(lines) == 3 * per_graph * built + sum(skipped.values())


class TestVerifyCommand:
    def test_tsv_with_violation_row(self):
        stdin = "A_\nBg\n"
        code, out, _ = run_main(["verify", "--theorem", "g14", "--corpus", "-"], stdin)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split("\t")[:2] == ["A_", "g14"]
        assert "violated" in lines[1]
        assert lines[-1].startswith("# summary:")

    def test_fail_on_violation_exit_code(self):
        code, _, _ = run_main(["verify", "--theorem", "g14", "--fail-on-violation"], "A_\n")
        assert code == 2
        code, _, _ = run_main(["verify", "--theorem", "g13", "--fail-on-violation"], "A_\n")
        assert code == 0

    def test_comma_separated_theorems(self):
        code, out, _ = run_main(["verify", "--theorem", "g13,g14"], "Bg\n")
        assert code == 0
        assert [line.split("\t")[1] for line in out.splitlines()[1:-1]] == ["g13", "g14"]

    def test_jsonl_output(self):
        code, out, _ = run_main(["verify", "--theorem", "prop1", "--output", "jsonl"], "Ch\n")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and rows[0]["status"] in ("holds", "tight")

    def test_unknown_theorem_usage_error(self):
        code, _, err = run_main(["verify", "--theorem", "g99"], "A_\n")
        assert code == 64 and "g99" in err

    def test_g16_needs_n(self):
        code, _, err = run_main(["verify", "--theorem", "g16"], "A_\n")
        assert code == 64 and "-n" in err

    @pytest.mark.parametrize("theorem, n", [("r024", "8"), ("g16", "3"), ("r024", "2"),
                                            ("g16", "9")])
    def test_bad_n_on_empty_corpus_is_usage_error(self, theorem, n):
        code, out, err = run_main(["verify", "--theorem", theorem, "-n", n])
        reason = {"8": "needs n mod 7 in (0, 2, 4); n=8 is r=1",
                  "9": "needs n = 7k + r with r in (-1, 1, 3, 5); n=9 is r024"}.get(
                      n, f"needs -n >= 6, got {n}")
        assert code == 64 and out == "" and err == f"usage error: {theorem} {reason}\n"

    @pytest.mark.parametrize("stdin", ["", "Ch\n", "not graph6 !!\n"])
    @pytest.mark.parametrize("theorems", [["g14"], ["prop1,g12", "--theorem", "conj"],
                                          ["g13,,g15"]])
    def test_n_read_by_no_claim_is_usage_error_before_input(self, theorems, stdin):
        code, out, err = run_main(["verify", "--theorem", *theorems, "-n", "13"], stdin)
        ids = ",".join(tid for arg in theorems[::2] for tid in arg.split(",") if tid)
        assert code == 64 and out == "" and err == f"usage error: --theorem {ids} takes no -n\n"

    @pytest.mark.parametrize("theorems", ["g14,g16", "r024,prop1"])
    def test_n_is_valid_when_one_claim_reads_it(self, theorems):
        n = "13" if "g16" in theorems else "14"
        code, out, err = run_main(["verify", "--theorem", theorems, "-n", n, "--max-vertices", "8"],
                                  "A_\n")
        assert code == 0 and err == ""
        assert [line.split("\t")[1] for line in out.splitlines()[1:-1]] == theorems.split(",")

    @pytest.mark.parametrize("theorem", [",", ""])
    def test_empty_theorem_list_is_usage_error_before_input(self, theorem):
        code, out, err = run_main(["verify", "--theorem", theorem], "not graph6 !!\n")
        assert code == 64 and out == "" and err == "usage error: --theorem names no theorem id\n"

    def test_unknown_theorem_checked_before_input(self):
        code, out, err = run_main(["verify", "--theorem", "g99"], "not graph6 !!\n")
        assert code == 64 and out == "" and "g99" in err

    @pytest.mark.parametrize("output, row", [
        ("tsv", "?\tconj\t0\t-\t-\t0\tviolated\tratio -; exact 0 <= lower 0"),
        ("jsonl", '{"graph_id": "?", "theorem": "conj", "lower": "0", "upper": null, '
                  '"equality": null, "exact": 0, "status": "violated", '
                  '"detail": "ratio -; exact 0 <= lower 0"}'),
        ("text", "? conj: lower=0 exact=0 -> violated (ratio -; exact 0 <= lower 0)"),
    ], ids=["tsv", "jsonl", "text"])
    def test_conj_on_empty_graph_prints_missing_ratio_as_dash(self, output, row):
        # gamma_s(G^{1/2})/n_G has no value for n_G = 0; conjecture prints it as -/null too.
        code, out, err = run_main(["verify", "--theorem", "conj", "--output", output], "?\n")
        assert code == 0 and err == "" and row in out.splitlines()

    def test_n_help_names_the_claims_whose_k_is_a_rule(self):
        code, out, _ = run_main(["verify", "--help"])
        assert code == 0
        [line] = [line for line in out.splitlines() if line.lstrip().startswith("-n ")]
        named = line.split("--theorem", 1)[1].replace(",", " ").split()
        assert named == [claim.id for claim in CLAIMS if not isinstance(claim.k, int)]
        assert named == ["g16", "r024"]


class TestErrorsAndExitCodes:
    def test_usage_error_is_64(self):
        code, _, _ = run_main(["gen", "--family", "nope", "--n", "3"])
        assert code == 64
        for flags in (["--engine", "dp"], ["--naive"], ["--time-ms", "5"]):
            code, out, err = run_main(["gamma-s", *flags], "A_\n")
            assert code == 64 and out == "" and err.startswith("usage error:")

    @pytest.mark.parametrize("args, stdin, value", [
        (["gamma", "--format", "edges"], "p 5000\n", 5000),
        (["gamma-s", "--format", "edges"], "p 5000\n", 5000),
        (["gamma"], emit_graph6(generate("path", 3000)) + "\n", 1000),
    ], ids=["gamma", "gamma-s", "gamma-path"])
    def test_search_past_the_recursion_limit_is_exact(self, args, stdin, value):
        # The branch search recurses once per pick, deeper here than the
        # default recursion limit of 1000 calls: 5000 picks on the edgeless
        # graph at the order cap, the deepest search a budget allows.
        code, out, err = run_main([*args, "--max-vertices", "5000"], stdin)
        assert (code, err) == (0, "") and out.startswith(f"value={value} status=exact witness=")

    @pytest.mark.parametrize("command", ["gamma", "gamma-s", "verify --theorem g13", "conjecture"])
    def test_order_cap_past_the_search_depth_is_64(self, command):
        code, out, err = run_main([*command.split(), "--max-vertices", "5001"], "A_\n")
        assert (code, out) == (64, "")
        assert err == "usage error: max_vertices 5001 is past the search's depth limit 5000\n"

    def test_parse_error_is_65_with_line(self):
        code, _, err = run_main(["gamma"], "A_\nA__\n")
        assert code == 65 and "line 2" in err

    def test_huge_edge_list_order_is_65_with_line(self):
        code, out, err = run_main(["gamma-s", "--format", "edges"],
                                  "# comment\np 99999999999999999999\n")
        assert code == 65 and out == ""
        assert err == "parse error: line 2: vertex count 99999999999999999999 is too large to build\n"

    @pytest.mark.parametrize("args, stdin, code, message", [
        (["gamma"], "\nCh\n", 65, "parse error: line 2: graph on 4 vertices"),
        (["gamma", "--format", "edges"], "p 4\ne 0 1\ne 1 2\ne 2 3\n", 65,
         "parse error: line 1: graph on 4 vertices"),
        (["gen", "--family", "path", "--n", "4"], "", 64, "usage error: graph on 4 vertices"),
        (["subdivide", "--k", "3"], "A_\n", 64, "usage error: graph on 4 vertices"),
    ], ids=["graph6", "edges", "gen", "subdivide"])
    def test_graph_past_the_size_bound_exit_code(self, monkeypatch, args, stdin, code, message):
        # A bound of the 4 vertex slots alone refuses any edge: input in
        # either format is a parse error on its line, a built graph a usage
        # error.
        import subsec.graphs as graphs

        monkeypatch.setattr(graphs, "MAX_ADJACENCY_BITS", 64 * 4)
        code_, out, err = run_main(args, stdin)
        assert code_ == code and out == ""
        assert err.startswith(message + " is too large to build")

    def test_bad_byte_in_file_is_65_with_line(self, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_bytes(b"Ch\n\xff\n")
        code, out, err = run_main(["verify", "--theorem", "g13", "--corpus", str(corpus)])
        assert code == 65 and out == ""
        assert err == "parse error: line 2: byte 255 outside graph6 alphabet\n"

    def test_missing_file_is_65(self):
        code, out, err = run_main(["verify", "--theorem", "g13", "--corpus", "/no/such/file"])
        assert (code, out) == (65, "")
        assert err == "parse error: [Errno 2] No such file or directory: '/no/such/file'\n"


class TestFlagParsing:
    """Each command's flags are rows of one table in ``cli``/``commands``,
    read by one small parser; help is printed from the same rows."""

    @pytest.mark.parametrize("args", [
        ["gen", "--family", "path", "--n", "4"],
        ["gen", "--family=path", "--n=4"],
        ["gen", "--n", "4", "--family=path", "--format=g6"],
    ], ids=["spaced", "equals", "mixed"])
    def test_value_forms_are_accepted(self, args):
        assert run_main(args) == (0, "Ch\n", "")

    def test_short_n_takes_its_value(self):
        code, out, err = run_main(["cert", "--theorem", "general", "-n", "6"], "A_\n")
        assert code == 0 and err == "" and "claimed=3 size=3 validated=true" in out

    def test_negative_value_reaches_the_command_check(self):
        for args in (["subdivide", "--k", "-1"], ["subdivide", "--k=-1"]):
            code, out, err = run_main(args, "A_\n")
            assert (code, out, err) == (64, "", "usage error: subdivide needs --k >= 1, got -1\n")

    def test_repeated_theorem_accumulates(self):
        code, out, _ = run_main(["verify", "--theorem", "g13", "--theorem", "prop1,g12"], "Ch\n")
        assert code == 0
        assert [line.split("\t")[1] for line in out.splitlines()[1:-1]] == ["g13", "prop1", "g12"]

    @pytest.mark.parametrize("args, stdin, out", [
        (["gen", "--family", "cycle", "--n", "3", "--family", "path", "--n", "4"], "", "Ch\n"),
        (["gamma", "--max-nodes", "1", "--max-nodes", "100"], "Ch\n",
         "value=2 status=exact witness=0,2\n"),
        (["gamma", "--max-nodes", "100", "--max-nodes=1"], "Ch\n",
         "value=- status=skipped witness=- cap=nodes\n"),
        (["subdivide", "--k", "2", "--format", "edges", "--labels", "--labels"], "p 2\ne 0 1\n",
         "p 3\ne 0 2\ne 1 2\n# label 0\tOriginal(0)\n# label 1\tOriginal(1)\n"
         "# label 2\tInternal(0,1,1)\n"),
    ], ids=["gen", "larger-last", "smaller-last", "switch"])
    def test_other_repeated_flags_keep_the_last_value(self, args, stdin, out):
        assert run_main(args, stdin) == (0, out, "")

    @pytest.mark.parametrize("args, message", [
        ([], "missing command (choose from gen, enum, subdivide, gamma, gamma-s, cert, verify, "
             "conjecture)"),
        (["nope"], "unknown command 'nope' (choose from gen, enum, subdivide, gamma, gamma-s, "
                   "cert, verify, conjecture)"),
        (["--bogus"], "unknown command '--bogus' (choose from gen, enum, subdivide, gamma, "
                      "gamma-s, cert, verify, conjecture)"),
        (["gamma-s", "--naive"], "gamma-s has no flag --naive"),
        (["gamma", "--max-n", "5"], "gamma has no flag --max-n"),
        (["verify", "--theorem", "g16", "-n5"], "verify has no flag -n5"),
        (["cert", "--theorem", "general", "-n=6"], "cert has no flag -n=6"),
        (["gamma", "--max-nodes"], "--max-nodes needs a value"),
        (["gamma", "--input", "--format", "g6"], "--input needs a value"),
        (["gamma", "--max-nodes", "many"], "--max-nodes needs an integer, got 'many'"),
        (["gamma", "--max-vertices=2.5"], "--max-vertices needs an integer, got '2.5'"),
        (["gen", "--family", "random", "--n", "5", "--p", "half", "--seed", "1"],
         "--p needs a number, got 'half'"),
        (["gamma", "--engine", "dp"], "unknown --engine 'dp' (choose from branch, naive)"),
        (["gamma", "--format", "graph6"], "unknown --format 'graph6' (choose from g6, edges)"),
        (["cert", "--theorem", "g13"],
         "unknown --theorem 'g13' (choose from half, star, third, quarter, fifth, general)"),
        (["subdivide"], "subdivide needs --k"),
        (["verify", "--output", "text"], "verify needs --theorem"),
        (["gen", "--n", "4"], "gen needs --family"),
        (["gamma", "stray"], "gamma takes no argument 'stray'"),
        (["gamma", "-"], "gamma takes no argument '-'"),
        (["subdivide", "--k", "2", "--labels=yes"], "--labels takes no value"),
    ], ids=["no-command", "unknown-command", "flag-as-command", "unknown-flag", "abbreviation",
            "attached-short", "short-with-equals", "missing-value", "flag-as-value", "bad-int",
            "float-for-int", "bad-float", "engine-choice", "format-choice", "theorem-choice",
            "subdivide-k", "verify-theorem", "gen-family", "positional", "dash-positional",
            "switch-value"])
    def test_bad_command_line_is_64_and_names_the_flag(self, args, message):
        code, out, err = run_main(args, "A_\n")
        assert (code, out, err) == (64, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("command", ["gen", "enum", "subdivide", "gamma", "gamma-s", "cert",
                                         "verify", "conjecture"])
    def test_help_lists_every_flag_of_the_table(self, command):
        from subsec import cli

        flags, _ = cli._command(command)
        code, out, _ = run_main([command, "--help"])
        assert code == 0
        listed = [line.split()[0] for line in out.split("flags:\n", 1)[1].splitlines()]
        assert listed == [flag.name for flag in flags] + ["-h,"]
        assert out.startswith(f"usage: subsec {command} ")

    @pytest.mark.parametrize("args, ids", [
        (["--help"], ()), (["-h"], ()), (["verify", "--help"], subsec.THEOREM_IDS),
        (["cert", "-h"], subsec.CONSTRUCTIONS), (["gamma-s", "--max-nodes", "5", "--help"], ()),
    ], ids=["top", "top-short", "verify", "cert-short", "after-flags"])
    def test_help_bytes_do_not_depend_on_the_terminal_width(self, args, ids):
        code, out, _ = run_main(args)
        assert code == 0
        assert set(ids) <= set(re.findall(r"[\w-]+", out))
        expected = out.encode()
        for columns in ("20", "300"):
            proc = python("-m", "subsec", *args, env=ENV | {"COLUMNS": columns})
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


class TestInputBytes:
    """Stdin and files are read as bytes, split at LF, CR or CRLF and decoded
    one character per byte, whatever the locale."""

    def test_bad_byte_on_stdin_matches_file_under_utf8_io(self, tmp_path):
        data = b"Ch\n\xff\n"
        corpus = tmp_path / "bad.g6"
        corpus.write_bytes(data)
        env = ENV | {"PYTHONIOENCODING": "utf-8"}
        base = ["-m", "subsec", "verify", "--theorem", "g13"]
        piped = python(*base, stdin=data, env=env)
        named = python(*base, "--corpus", str(corpus), env=env)
        for proc in (piped, named):
            assert proc.returncode == 65 and proc.stdout == b""
            assert proc.stderr == b"parse error: line 2: byte 255 outside graph6 alphabet\n"

    @pytest.mark.parametrize("data, byte", [(b"Ch\xa0\n", 160), (b"\x85\nCh\n", 133)])
    def test_non_ascii_space_is_a_bad_byte(self, data, byte):
        code, out, err = run_main(["gamma"], data)
        assert code == 65 and out == ""
        assert err == f"parse error: line 1: byte {byte} outside graph6 alphabet\n"

    def test_utf8_comment_in_edge_list(self, tmp_path):
        # U+00C5 is C3 85, and 0x85 alone is NEL, a line break to str.splitlines
        data = b"# r\xc3\x85d\np 3\ne 0 1\ne 1 2\n"
        path = tmp_path / "p3.edges"
        path.write_bytes(data)
        args = ["gamma-s", "--format", "edges"]
        piped = run_main(args, data)
        named = run_main([*args, "--input", str(path)])
        assert piped == named == (0, "value=2 status=exact witness=0,1\n", "")

    @pytest.mark.parametrize("args", [["gamma-s"], ["verify", "--theorem", "prop1,g12"]])
    def test_cr_and_crlf_lines_match_lf(self, args):
        lf = b">>graph6<<A_\n\nCh\nBw\n"
        outs = [run_main(args, lf.replace(b"\n", end))
                for end in (b"\n", b"\r", b"\r\n")]
        assert outs[0][0] == 0 and len(outs[0][1].splitlines()) >= 3
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("text, message", [
        ("p 1_1\n", "line 1: bad vertex count '1_1'"),
        ("p 3\ne +1 2\n", "line 2: bad edge endpoints in 'e +1 2'"),
        ("p \uff13\n", "line 1: bad vertex count"),
        ("p 3\ne \u0661 0\n", "line 2: bad edge endpoints"),
        ("p -3\n", "line 1: vertex count must be nonnegative"),
    ])
    def test_edge_list_numbers_are_ascii_decimals(self, text, message):
        code, out, err = run_main(["gamma-s", "--format", "edges"], text)
        assert code == 65 and out == "" and err.startswith(f"parse error: {message}")

    def test_edge_list_without_size_line_is_65(self):
        code, out, err = run_main(["gamma", "--format", "edges"], "# only a comment\n")
        assert (code, out, err) == (65, "", "parse error: no 'p <n>' line found\n")

    @pytest.mark.parametrize("byte", [0x1C, 0x1D, 0x1E, 0x1F, 0x85, 0xA0])
    @pytest.mark.parametrize("line", ["size", "edge"])
    def test_edge_list_fields_split_on_ascii_whitespace_only(self, byte, line):
        # str.split() would read each of these bytes as a field separator
        space = chr(byte)
        if line == "size":
            text, message = f"p{space}3\n", "line 1: expected 'p <n>' size line"
        else:
            text = f"p 3\ne 0{space}1\n"
            message = f"line 2: expected 'e <u> <v>' line, got {f'e 0{space}1'!r}"
        code, out, err = run_main(["gamma", "--format", "edges"], text.encode("latin-1"))
        assert (code, out, err) == (65, "", f"parse error: {message}\n")

    def test_edge_list_is_named_only_by_reports(self, monkeypatch):
        # Every module that writes graph6 imports the writer from formats
        # when it runs, so patching formats covers them all.
        from subsec import formats

        def refuse(g):
            raise AssertionError("graph6 id built for an unnamed graph")

        calls = []

        def counted(g):
            calls.append(g)
            return emit_graph6(g)

        monkeypatch.setattr(formats, "emit_graph6", refuse)
        edges = "p 4\ne 0 1\ne 1 2\ne 2 3\n"
        code, out, _ = run_main(["gamma", "--format", "edges"], edges)
        assert code == 0 and out == "value=2 status=exact witness=0,2\n"
        monkeypatch.setattr(formats, "emit_graph6", counted)
        code, out, _ = run_main(["verify", "--format", "edges", "--theorem", "g12,g13,conj"], edges)
        assert code == 0 and len(calls) == 1
        assert [line.split("\t")[0] for line in out.splitlines()[1:-1]] == ["Ch"] * 3


class TestSubprocessPipeline:
    def test_huge_edgeless_order_validates_in_linear_time(self):
        # Graph validation must stay linear in the order: work quadratic in
        # n takes minutes on a million vertices.
        proc = python("-m", "subsec", "gamma", "--format", "edges", stdin="p 1000000\n",
                      timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "value=- status=skipped witness=- cap=vertices\n"

    @pytest.mark.parametrize("args, stdin, code, message", [
        (["subdivide", "--k", "100000"], "Ch\n", 64,
         "usage error: graph on 300001 vertices is too large to build"),
        (["gen", "--family", "path", "--n", "1000000"], "", 64,
         "usage error: graph on 1000000 vertices is too large to build"),
        # orders past the bound on their own: refused before any edge is made
        (["subdivide", "--k", "100000000"], "Ch\n", 64,
         "usage error: vertex count 300000001 is too large to build"),
        (["gen", "--family", "path", "--n", "1000000000"], "", 64,
         "usage error: vertex count 1000000000 is too large to build"),
        (["cert", "--theorem", "general", "-n", "100001"], "Ch\n", 64,
         "usage error: graph on 300004 vertices is too large to build"),
        (["gamma", "--format", "edges"],
         "p 200000\n" + "".join(f"e {v} {v + 1}\n" for v in range(199999)), 65,
         "parse error: line 1: graph on 200000 vertices is too large to build"),
    ], ids=["subdivide", "gen", "subdivide-order", "gen-order", "cert", "edges"])
    def test_huge_graph_is_refused_before_it_is_built(self, args, stdin, code, message):
        # Under a 2 GiB address-space limit a missing guard ends in a
        # MemoryError traceback within seconds instead of filling the host.
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = python("-m", "subsec", *args, stdin=stdin, preexec_fn=limit_memory)
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr

    def test_a_graph_past_the_memory_limit_is_a_parse_error(self):
        # An edgeless p 33000000 is under the adjacency bound (64 bits a
        # vertex), yet building it takes over 500 MiB here, so under a
        # 400 MiB address-space limit make_graph runs out of memory and
        # parse_edgelist reports it on the p line. At 600 MiB it is built.
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = python("-m", "subsec", "gamma", "--format", "edges", stdin="p 33000000\n",
                      preexec_fn=limit_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            65, "", "parse error: line 1: vertex count 33000000 is too large to build\n")

    @pytest.mark.parametrize("args, stdin", [
        (["subdivide", "--k", "100000"], "Ch\n"),
        (["gen", "--family", "path", "--n", "1000000"], ""),
    ], ids=["subdivide", "gen"])
    def test_refused_graph_peak_rss_is_bounded(self, args, stdin):
        # A path's masks fill the whole bound (2^31 bits, 256 MiB) before the
        # count passes it. A small parent process runs the command and reads
        # its peak RSS, so no other child of the test run is counted.
        measure = ("import resource, subprocess, sys\n"
                   "code = subprocess.call(sys.argv[1:], stderr=subprocess.DEVNULL)\n"
                   "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        proc = python("-c", measure, sys.executable, "-m", "subsec", *args, stdin=stdin)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 64
        assert peak_kb < 384 * 1024

    @pytest.mark.parametrize("args, lines", [
        (["gen", "--family", "complete", "--n", "3000"], 1),
        (["gen", "--family", "star", "--n", "200000", "--format", "edges"], 200000),
    ], ids=["complete", "star"])
    def test_large_graph_under_the_bound_is_built(self, args, lines):
        # K_3000 holds about 9 million mask bits and K_{1,199999} about
        # 400,000, far under the bound, though their edges' ids sum past it:
        # the bound counts mask widths.
        proc = python("-m", "subsec", *args, stdin="")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.count("\n") == lines

    def test_shell_pipe_equivalence(self):
        cmd = (f"{sys.executable} -m subsec gen --family path --n 4 | "
               f"{sys.executable} -m subsec subdivide --k 2 | "
               f"{sys.executable} -m subsec gamma-s")
        proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True, env=ENV,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "value=3 status=exact witness=4,5,6\n"
        # P_62, P_63 and P_300 take graph6's 1-byte and 4-byte size headers
        # from a writer to a reader in another process; --k 1 is the identity.
        for n in (62, 63, 300):
            cmd = (f"{sys.executable} -m subsec gen --family path --n {n} | "
                   f"{sys.executable} -m subsec subdivide --k 1")
            proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True, env=ENV,
                                  timeout=60)
            assert (proc.returncode, proc.stdout) == (0, emit_graph6(generate("path", n)) + "\n")

    def test_thread_env_does_not_change_bytes(self):
        sizes = range(2, 7)
        stdin = "\n".join(emit_graph6(generate("path", n)) for n in sizes) + "\n"
        outs = []
        for threads in ("1", "4"):
            proc = python("-m", "subsec", "verify", "--theorem", "g13,prop1,conj", stdin=stdin,
                          env=ENV | {"SUBSEC_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        # One graded row per (graph, theorem), so two empty or two all-skipped
        # reports cannot compare equal by accident.
        rows = [line.split("\t") for line in outs[0].splitlines()[1:-1]]
        assert len(rows) == len(sizes) * 3
        assert all(row[6] != "skipped" for row in rows)
        # P_n^{1/3} is the path on 3(n-1)+1 vertices, with gamma_s = ceil(3n'/7).
        g13 = [int(row[5]) for row in rows if row[1] == "g13"]
        assert g13 == [math.ceil(3 * (3 * (n - 1) + 1) / 7) for n in sizes] == [2, 3, 5, 6, 7]
        assert outs[0] == outs[1]

    def test_thread_env_that_is_no_integer_is_usage_error(self):
        corpus = "".join(line + "\n" for line in subsec.bundled_corpus_lines())
        proc = python("-m", "subsec", "verify", "--theorem", "prop1", stdin=corpus,
                      env=ENV | {"SUBSEC_THREADS": "abc"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            64, "", "usage error: SUBSEC_THREADS='abc' is not an integer\n")
