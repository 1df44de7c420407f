"""Self-test of the benchmark's own checks and span arithmetic.

    python3 bench/selftest.py

A correct report must pass the output checks, and the same report with one
planted wrong value must not. Self times are checked on a synthetic span tree.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import subsec  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _report_run(argv, lines):
    return checks.Run(tuple(argv), 0, "".join(line + "\n" for line in lines), "")


class PlantedValues(unittest.TestCase):
    """A copy of a real report with one value changed must fail the checks."""

    @classmethod
    def setUpClass(cls):
        # The first 20 bundled graphs have at most 5 vertices: quick to solve.
        cls.gids = workloads.make_input("verify6", 0)[:20]
        pairs = [(gid, subsec.parse_graph6(gid)) for gid in cls.gids]
        checks_ = subsec.run_corpus(pairs, workloads.THEOREMS6, workers=1)
        cls.report = subsec.render_checks(checks_, "jsonl")
        cls.expected = checks.load_expected("verify6")

    def verdict(self, lines):
        run = _report_run(["verify"], lines)
        return checks.check_verify(run, self.gids, list(workloads.THEOREMS6), self.expected)[0]

    def test_real_report_passes(self):
        verdict = self.verdict(self.report)
        self.assertEqual(verdict.failures, [])
        self.assertEqual(verdict.attempted, 20 * len(workloads.THEOREMS6) + 2)

    def test_planted_value_fails(self):
        planted = list(self.report)
        idx = next(i for i, line in enumerate(planted) if json.loads(line).get("exact") is not None)
        row = json.loads(planted[idx])
        row["exact"] += 1
        planted[idx] = json.dumps(row)
        verdict = self.verdict(planted)
        self.assertGreater(verdict.failed / verdict.attempted, 0)

    def test_status_that_does_not_match_its_value_fails(self):
        planted = list(self.report)
        idx = next(i for i, line in enumerate(planted) if json.loads(line).get("status") == "holds")
        row = json.loads(planted[idx])
        row["status"] = "tight"
        planted[idx] = json.dumps(row)
        self.assertGreater(self.verdict(planted).failed, 0)

    def test_dropped_row_fails(self):
        self.assertGreater(self.verdict(self.report[1:]).failed, 0)

    def test_path_oracle_and_witness(self):
        graphs = [subsec.generate("path", 14), subsec.generate("cycle", 15)]
        witnesses = [subsec.gamma_s_exact(g).witness.sorted() for g in graphs]

        def verdict(sets):
            lines = [f"value={len(w)} status=exact witness={','.join(map(str, w))}" for w in sets]
            return checks.check_solve(_report_run(["gamma-s"], lines), graphs, True, subsec,
                                      checks.path_cycle_oracle)[0]

        self.assertEqual(verdict(witnesses).failures, [])
        # A superset of a secure dominating set is one too, so only the
        # closed form catches a value one too high.
        spare = next(v for v in range(14) if v not in witnesses[0])
        self.assertEqual(verdict([sorted(witnesses[0] + (spare,)), witnesses[1]]).failed, 1)
        # One vertex fewer than the optimum cannot pass the definitional check.
        self.assertEqual(verdict([witnesses[0][1:], witnesses[1]]).failed, 1)

    def test_failed_command_counts(self):
        run = checks.Run(("gamma-s",), 1, "", "Traceback (most recent call last):\n")
        verdict = checks.check_solve(run, [subsec.generate("path", 3)], True, subsec)[0]
        self.assertEqual((verdict.attempted, verdict.failed), (2, 2))


class SelfTimes(unittest.TestCase):
    def tree(self):
        # root [0,10] has children a [1,4], b [3,6] (overlapping a) and
        # c [9,12] (sticking out of root); a has a child [2,3].
        return [
            spans.Span("cli.main", None, "g", 0.0, 10.0),
            spans.Span("bounds.check", 0, "g", 1.0, 4.0),
            spans.Span("solver.gamma_s", 0, "g", 3.0, 6.0),
            spans.Span("solver.gamma", 0, "g", 9.0, 12.0),
            spans.Span("subdivision.subdivide", 1, "g", 2.0, 3.0),
        ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(spans.self_times(self.tree()), [4.0, 2.0, 3.0, 3.0, 1.0])

    def test_layer_self_times_add_up(self):
        self.assertEqual(spans.layer_self_times(self.tree()),
                         {"cli": 4.0, "bounds": 2.0, "solver": 6.0, "subdivision": 1.0})

    def test_tracer_nests_and_inherits_graph_id(self):
        tracer = spans.Tracer()
        tracer.call("cli.main", lambda: tracer.call("bounds.task", lambda: None, gid="G")[0])
        tracer.call("bounds.task", lambda: tracer.call("solver.gamma", lambda: None)[0], gid="H")
        parents = [(s.name, s.parent, s.gid) for s in tracer.spans]
        self.assertEqual(parents, [("cli.main", None, None), ("bounds.task", 0, "G"),
                                   ("bounds.task", None, "H"), ("solver.gamma", 2, "H")])
        self.assertTrue(all(own >= 0 for own in spans.self_times(tracer.spans)))


if __name__ == "__main__":
    unittest.main()
