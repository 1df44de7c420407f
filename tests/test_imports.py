"""A process imports only the modules its command runs, and ``subsec``
exports its public names lazily. Each check starts a fresh ``python -S``
process: without ``site`` nothing is imported before the code under test,
so every module the run loads shows in its ``-X importtime`` report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsec

SRC = str(Path(subsec.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
# What grading, certificates, subdivision, the pool, the other commands and
# the graph writers need, and a solve does not.
NOT_FOR_A_SOLVE = {
    "subsec.bounds", "subsec.certificates", "subsec.subdivision", "subsec._pool",
    "subsec.commands", "subsec.formats",
    "dataclasses", "fractions", "json", "concurrent.futures",
}
# What argparse loads to build its parsers and help: no run needs it.
NOT_FOR_ANY_RUN = {"argparse", "gettext", "locale", "shutil"}
A_SOLVE = {"subsec", "subsec.cli", "subsec.graphs", "subsec.solver"}
OTHER_RUNS = [("gen", "--family", "path", "--n", "3"), ("enum", "--n", "3"), ("subdivide", "--k", "2"),
              ("cert", "--theorem", "third"), ("verify", "--theorem", "prop1"), ("conjecture",)]


def imported(*args: str, stdin: str = "", env: dict[str, str] = ENV) -> set[str]:
    """The modules ``python -S -X importtime *args`` imports on ``stdin``."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          input=stdin, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def subsec_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.partition(".")[0] == "subsec"}


@pytest.mark.parametrize("command", ["gamma", "gamma-s", "--help"])
def test_a_solve_loads_only_graphs_and_solver(command):
    modules = imported("-m", "subsec", command, stdin="Ch\n")
    assert subsec_modules(modules) == A_SOLVE
    assert not modules & NOT_FOR_A_SOLVE


@pytest.mark.parametrize("command", ["gamma", "gamma-s"])
def test_an_edge_list_solve_adds_only_the_formats_module(command):
    modules = imported("-m", "subsec", command, "--format", "edges", stdin="p 2\ne 0 1\n")
    assert subsec_modules(modules) == A_SOLVE | {"subsec.formats"}


@pytest.mark.parametrize("args, stdin, loads", [
    (("verify", "--theorem", "prop1"), "Ch\n", False),
    (("conjecture",), "Ch\n", False),
    (("cert", "--theorem", "third"), "Ch\n", False),
    (("gen", "--family", "path", "--n", "3"), "", True),
    (("enum", "--n", "3"), "", True),
    (("subdivide", "--k", "2"), "Ch\n", True),
    (("verify", "--theorem", "prop1", "--format", "edges"), "p 2\ne 0 1\n", True),
], ids=["verify", "conjecture", "cert", "gen", "enum", "subdivide", "verify-edges"])
def test_only_runs_that_write_or_name_a_graph_load_the_formats_module(args, stdin, loads):
    # A graph6 corpus names its own graphs; an edge list's graph gets its
    # graph6 as an id.
    assert ("subsec.formats" in imported("-m", "subsec", *args, stdin=stdin)) == loads


@pytest.mark.parametrize("args", [*OTHER_RUNS, *((run[0], "--help") for run in OTHER_RUNS)])
def test_the_other_commands_load_the_commands_module(args):
    assert "subsec.commands" in imported("-m", "subsec", *args)


@pytest.mark.parametrize("args", [("gamma",), ("gamma-s",), *OTHER_RUNS, ("--help",),
                                  *((command, "--help") for command in
                                    ("gen", "enum", "subdivide", "gamma", "gamma-s", "cert",
                                     "verify", "conjecture"))])
def test_no_run_loads_argparse_or_what_it_imports(args):
    assert not imported("-m", "subsec", *args) & NOT_FOR_ANY_RUN


@pytest.mark.parametrize("args, module", [
    (("verify", "--theorem", "prop1"), "subsec.bounds"),
    (("conjecture",), "subsec.bounds"),
    (("cert", "--theorem", "third"), "subsec.certificates"),
])
def test_records_need_neither_dataclasses_nor_inspect(args, module):
    modules = imported("-m", "subsec", *args)
    assert module in modules and "subsec.subdivision" in modules
    assert not modules & {"dataclasses", "inspect"}


@pytest.mark.parametrize("args", [("verify", "--theorem", "prop1"), ("conjecture",),
                                  ("cert", "--theorem", "third")])
def test_annotations_need_no_typing(args):
    modules = imported("-m", "subsec", *args)
    assert "subsec.subdivision" in modules and "typing" not in modules


@pytest.mark.parametrize("args", [("gamma",), ("gamma-s",), ("verify", "--theorem", "prop1"),
                                  ("verify", "--theorem", "g16", "-n", "6"),
                                  ("verify", "--theorem", "r024", "-n", "7"), ("conjecture",)])
def test_commands_that_read_graphs_load_no_generators_or_certificates(args):
    modules = imported("-m", "subsec", *args)
    assert "subsec.solver" in modules
    assert not modules & {"subsec.corpus", "subsec.certificates"}


@pytest.mark.parametrize("args", [("gen", "--family", "path", "--n", "3"), ("enum", "--n", "3")])
def test_commands_that_make_graphs_load_the_corpus_module(args):
    assert "subsec.corpus" in imported("-m", "subsec", *args)


def test_a_pooled_verify_imports_no_pool_library():
    # Forked workers send their results as marshal data; pickle would load
    # only to carry a worker's exception.
    corpus = "".join(line + "\n" for line in subsec.bundled_corpus_lines())
    for args in (("verify", "--theorem", "prop1"), ("conjecture",)):
        modules = imported("-m", "subsec", *args, stdin=corpus, env={**ENV, "SUBSEC_THREADS": "2"})
        assert "subsec._pool" in modules
        assert not {m for m in modules if m.partition(".")[0] in ("concurrent", "multiprocessing", "pickle")}


def test_import_subsec_loads_no_submodule():
    modules = imported("-c", "import subsec")
    assert "subsec" in modules
    assert not {m for m in modules if m.startswith("subsec.")}


def test_every_export_resolves_lazily():
    code = ("import subsec; values = [getattr(subsec, name) for name in subsec.__all__]; "
            "print(len(values), sorted(set(subsec.__all__) - set(dir(subsec))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(subsec.__all__)} []\n"
    assert len(subsec.__all__) == len(set(subsec.__all__)) == 49
    assert subsec.Graph is subsec.graphs.Graph and subsec.run_corpus is subsec.bounds.run_corpus


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'subsec' has no attribute 'nope'"):
        subsec.nope  # noqa: B018
    with pytest.raises(ImportError):
        from subsec import nope  # noqa: F401
    # submodules still import by name
    from subsec import _pool, bounds, cli

    assert bounds.__name__ == "subsec.bounds" and cli.main and _pool.ordered_map
