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
# What grading, certificates, subdivision and the pool need, and a solve does not.
NOT_FOR_A_SOLVE = {
    "subsec.bounds", "subsec.certificates", "subsec.subdivision", "subsec._pool",
    "dataclasses", "fractions", "json", "concurrent.futures",
}


def imported(*args: str) -> set[str]:
    """The modules ``python -S -X importtime *args`` imports on empty stdin."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          input="", env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("command", ["gamma", "gamma-s"])
def test_a_solve_loads_only_graphs_and_solver(command):
    modules = imported("-m", "subsec", command)
    assert {"subsec.cli", "subsec.graphs", "subsec.solver"} <= modules
    assert not modules & NOT_FOR_A_SOLVE


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
    assert len(subsec.__all__) == len(set(subsec.__all__)) == 53
    assert subsec.Graph is subsec.graphs.Graph and subsec.run_corpus is subsec.bounds.run_corpus


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'subsec' has no attribute 'nope'"):
        subsec.nope  # noqa: B018
    with pytest.raises(ImportError):
        from subsec import nope  # noqa: F401
    # submodules still import by name
    from subsec import _pool, bounds, cli

    assert bounds.__name__ == "subsec.bounds" and cli.main and _pool.ordered_map
