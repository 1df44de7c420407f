"""subsec: exact secure domination on k-subdivisions of graphs.

Builds k-subdivisions with a stable vertex labeling, computes domination and
secure domination numbers exactly (pruned search cross-checked by a naive
mode), materializes the closed-form certificate constructions, and grades a
catalog of claimed bounds over graph corpora.

The public names below load their module on first use (PEP 562), so
``import subsec`` imports no submodule and a CLI run pays only for the
modules its command needs.
"""

import importlib

_MODULES = {
    "graphs": (
        "Graph",
        "GraphError",
        "ParseError",
        "VertexSet",
        "is_connected",
        "is_star",
        "iter_graph6",
        "make_graph",
        "max_degree",
        "parse_graph6",
    ),
    "formats": ("emit_edgelist", "emit_graph6", "parse_edgelist"),
    "corpus": (
        "bundled_corpus",
        "bundled_corpus_lines",
        "canonical_form",
        "canonical_key",
        "enumerate_connected",
        "generate",
    ),
    "subdivision": ("Internal", "Original", "SubdivisionMap", "subdivide"),
    "solver": (
        "DEFAULT_BUDGET",
        "SolveResult",
        "SolverBudget",
        "defenders",
        "gamma_exact",
        "gamma_s_exact",
        "is_dominating",
        "is_secure_dominating",
        "path_secure_formula",
    ),
    "certificates": (
        "CONSTRUCTIONS",
        "Certificate",
        "CertificateError",
        "Decomposition",
        "cert_fifth",
        "cert_general",
        "cert_half",
        "cert_quarter",
        "cert_star",
        "cert_third",
        "decompose",
    ),
    "bounds": (
        "BoundCheck",
        "ConjectureReport",
        "ConjectureRow",
        "THEOREM_IDS",
        "check_theorem",
        "conjecture_scan",
        "render_checks",
        "render_conjecture",
        "run_corpus",
        "summarize",
    ),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
