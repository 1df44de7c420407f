"""subsec: exact secure domination on k-subdivisions of graphs.

Builds k-subdivisions with a stable vertex labeling, computes domination and
secure domination numbers exactly (pruned search cross-checked by a naive
mode), materializes the closed-form certificate constructions, and grades a
catalog of claimed bounds over graph corpora.
"""

from .graphs import (
    Graph,
    GraphError,
    ParseError,
    VertexSet,
    bundled_corpus,
    bundled_corpus_lines,
    canonical_form,
    canonical_key,
    emit_edgelist,
    emit_graph6,
    enumerate_connected,
    generate,
    is_connected,
    is_star,
    iter_graph6,
    make_graph,
    max_degree,
    parse_edgelist,
    parse_graph6,
)
from .subdivision import Internal, Original, SubdivisionMap, subdivide
from .solver import (
    DEFAULT_BUDGET,
    SolveResult,
    SolverBudget,
    defenders,
    gamma_exact,
    gamma_s_exact,
    is_dominating,
    is_secure_dominating,
    path_secure_formula,
)
from .certificates import (
    CONSTRUCTIONS,
    Certificate,
    CertificateError,
    Decomposition,
    cert_fifth,
    cert_general,
    cert_half,
    cert_quarter,
    cert_star,
    cert_third,
    decompose,
)
from .bounds import (
    BoundCheck,
    ConjectureReport,
    ConjectureRow,
    THEOREM_IDS,
    check_theorem,
    conjecture_scan,
    render_checks,
    render_conjecture,
    run_corpus,
    summarize,
)

__version__ = "0.1.0"
