"""The benchmark's workloads: pinned inputs, the CLI commands run on them, and
the checks applied to their output. Why each workload exists, and what it
should and should not move, is in NOTES.md.

Importing this module needs the checkout's ``src`` on ``sys.path``: inputs
are built with the program's own corpus functions, and witnesses are checked
with its definitional checks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import lru_cache

import subsec

import checks

INPUT = "{input}"  # stands for the workload's input file in a command
THREADS = min(2, len(os.sched_getaffinity(0)))
THEOREMS6 = ("prop1", "g12", "star2", "g13", "g14", "g15", "conj")
THEOREMS7 = ("prop1", "g12", "star2", "conj")
# Solve cost varies between random graphs with a coefficient of variation of
# about 0.65, so a pass holds enough graphs (192) for its total to vary by
# about 5% between seeds; at 22 vertices that pass takes about 10 s.
RANDOM_GRAPHS, RANDOM_ORDER, RANDOM_P = 192, 22, 0.25


class InputError(Exception):
    """A pinned input does not have the size the benchmark was built for."""


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # SUBSEC_THREADS for the timed runs
    commands: tuple[tuple[str, ...], ...]  # subsec arguments, INPUT for the input path
    lines: int  # pinned line count of the input
    # The timed runs split the input into this many parts, each run by every
    # command, so that the fastest time of a short part can be taken.
    parts: int = 1

    def argvs(self, path) -> list[list[str]]:
        return [[str(path) if arg == INPUT else arg for arg in cmd] for cmd in self.commands]


WORKLOADS = {w.name: w for w in (
    Workload("verify6", THREADS, (
        ("verify", "--corpus", INPUT, "--theorem", ",".join(THEOREMS6), "--output", "jsonl"),
    ), 143),
    Workload("corpus7", THREADS, (
        ("conjecture", "--corpus", INPUT, "--output", "jsonl"),
        ("verify", "--corpus", INPUT, "--theorem", ",".join(THEOREMS7), "--output", "jsonl"),
    ), 853, parts=4),
    Workload("pathcycle", 1, (("gamma-s", "--input", INPUT),), 26, parts=6),
    Workload("random22", 1, (("gamma-s", "--input", INPUT), ("gamma", "--input", INPUT)),
             RANDOM_GRAPHS),
)}


def make_input(name: str, seed: int) -> list[str]:
    """The graph6 lines a workload reads. Only random22 depends on the seed."""
    if name == "verify6":
        lines = subsec.bundled_corpus_lines()
    elif name == "corpus7":
        lines = [subsec.emit_graph6(g) for g in subsec.enumerate_connected(7)]
    elif name == "pathcycle":
        lines = [subsec.emit_graph6(subsec.generate(family, n))
                 for n in range(14, 27) for family in ("path", "cycle")]
    else:
        rng = random.Random(seed)
        lines = []
        for _ in range(RANDOM_GRAPHS):
            edges = [(u, v) for u in range(RANDOM_ORDER) for v in range(u + 1, RANDOM_ORDER)
                     if rng.random() < RANDOM_P]
            lines.append(subsec.emit_graph6(subsec.make_graph(RANDOM_ORDER, edges)))
    if len(lines) != WORKLOADS[name].lines:
        raise InputError(f"{name}: input has {len(lines)} lines, the benchmark is pinned "
                         f"to {WORKLOADS[name].lines}")
    return lines


@lru_cache(maxsize=None)
def _expected(name: str):
    return checks.load_expected(name)


def check_outputs(name: str, lines: list[str], runs: list[checks.Run]) -> checks.Verdict:
    """Check every row of one pass over a workload's commands."""
    verdict = checks.Verdict()
    if name == "verify6":
        verdict.merge(checks.check_verify(runs[0], lines, list(THEOREMS6), _expected(name))[0])
        return verdict
    graphs = [subsec.parse_graph6(line) for line in lines]
    if name == "corpus7":
        conj_v, by_scan = checks.check_conjecture(
            runs[0], [(gid, g.n) for gid, g in zip(lines, graphs)], _expected(name))
        verify_v, by_verify = checks.check_verify(runs[1], lines, list(THEOREMS7), _expected(name))
        verdict.merge(conj_v)
        verdict.merge(verify_v)
        for gid in lines:
            if gid in by_scan and gid in by_verify:
                verdict.attempted += 1
                if by_scan[gid] != by_verify[gid]:
                    verdict.failures.append(f"{gid}: conjecture {by_scan[gid]} != verify conj "
                                            f"{by_verify[gid]}")
        return verdict
    if name == "pathcycle":
        verdict.merge(checks.check_solve(runs[0], graphs, True, subsec, checks.path_cycle_oracle)[0])
        return verdict
    secure_v, gamma_s = checks.check_solve(runs[0], graphs, True, subsec)
    plain_v, gamma = checks.check_solve(runs[1], graphs, False, subsec)
    verdict.merge(secure_v)
    verdict.merge(plain_v)
    for idx, (low, high) in enumerate(zip(gamma, gamma_s)):
        if low is not None and high is not None:
            verdict.attempted += 1
            if low > high:
                verdict.failures.append(f"graph {idx}: gamma {low} > gamma_s {high}")
    return verdict
