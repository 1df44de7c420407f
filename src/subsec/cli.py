"""Command-line entry point.

One graph per line throughout: a graph6 corpus holds one graph per line, an
edge-list file holds a single graph. Each command reads all its input, as
bytes split at LF, CR or CRLF with no locale consulted, before it prints.
All subcommands are deterministic for fixed inputs and flags; corpus work
fans out to SUBSEC_THREADS workers without changing the output.

Exit codes: 0 done, 2 violations found under --fail-on-violation, 64 usage
error, 65 parse error (reported with its line number), 141 stdout closed by
its reader (as by ``| head``; nothing is printed).
"""

from __future__ import annotations

import argparse
import os
import sys

from .graphs import Graph, ParseError, _G6_HEADER, emit_edgelist, emit_graph6, iter_graph6, parse_edgelist
from .solver import ENGINES, SolverBudget, gamma_exact, gamma_s_exact

EX_USAGE = 64
EX_DATAERR = 65
EX_PIPE = 128 + 13  # as if killed by SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_lines(path: str) -> list[str]:
    """Stripped lines, one character per byte: a bad byte keeps its value."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return [line.strip().decode("latin-1") for line in data.splitlines()]


def _read_graphs(path: str, fmt: str) -> list[tuple[str | None, Graph]]:
    """(graph_id, Graph) pairs: one per nonblank line for g6, one per file
    for edge lists. graph_id is the input g6 line without its ``>>graph6<<``
    header, or None for an edge list (``bounds`` names it by its g6)."""
    lines = _read_lines(path)
    if fmt == "edges":
        return [(None, parse_edgelist("\n".join(lines)))]
    ids = [line.removeprefix(_G6_HEADER) for line in lines if line]
    return list(zip(ids, iter_graph6(lines)))


def _emit_graph(g: Graph, fmt: str, out) -> None:
    if fmt == "g6":
        print(emit_graph6(g), file=out)
    else:
        out.write(emit_edgelist(g))


def _add_budget_flags(sub):
    sub.add_argument("--engine", choices=ENGINES, default=SolverBudget.engine)
    sub.add_argument("--max-vertices", type=int, default=SolverBudget.max_vertices)
    sub.add_argument("--max-nodes", type=int, default=SolverBudget.max_nodes)


def _add_input_flags(sub, name="--input"):
    sub.add_argument(name, default="-", help="file path, or - for stdin")
    sub.add_argument("--format", choices=("g6", "edges"), default="g6")


def _budget(args) -> SolverBudget:
    return SolverBudget(args.max_vertices, args.max_nodes, args.engine)


# Each command is a flag builder and a runner. The modules only some
# commands use (corpus, subdivision, certificates, bounds) are imported inside
# these functions, so a run loads only its own command's modules.


def _gen_flags(sub):
    from .corpus import FAMILIES

    sub.add_argument("--family", choices=FAMILIES, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--format", choices=("g6", "edges"), default="g6")


def _cmd_gen(args, out) -> int:
    from .corpus import generate

    g = generate(args.family, args.n, p=args.p, seed=args.seed)
    _emit_graph(g, args.format, out)
    return 0


def _enum_flags(sub):
    sub.add_argument("--n", type=int, required=True)


def _cmd_enum(args, out) -> int:
    from .corpus import enumerate_connected

    for g in enumerate_connected(args.n):
        print(emit_graph6(g), file=out)
    return 0


def _subdivide_flags(sub):
    _add_input_flags(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--labels", action="store_true",
                     help="append the id->label table as comments (edges format only)")


def _cmd_subdivide(args, out) -> int:
    from .subdivision import subdivide

    if args.labels and args.format != "edges":
        raise _UsageError("--labels requires --format edges")
    if args.k < 1:
        raise _UsageError(f"subdivide needs --k >= 1, got {args.k}")
    for _, g in _read_graphs(args.input, args.format):
        sm = subdivide(g, args.k)
        _emit_graph(sm.derived, args.format, out)
        if args.labels:
            for vid in range(sm.derived.n):
                print(f"# label {vid}\t{sm.label(vid)}", file=out)
    return 0


def _solve_flags(sub):
    _add_input_flags(sub)
    _add_budget_flags(sub)


def _cmd_solve(args, out, secure: bool) -> int:
    budget = _budget(args)
    solve = gamma_s_exact if secure else gamma_exact
    for _, g in _read_graphs(args.input, args.format):
        res = solve(g, budget)
        if res.status == "exact":
            witness = ",".join(str(v) for v in res.witness.sorted())
            print(f"value={res.value} status=exact witness={witness}", file=out)
        else:
            print(f"value=- status=skipped witness=- cap={res.cap}", file=out)
    return 0


def _cert_flags(sub):
    from .certificates import CONSTRUCTIONS

    _add_input_flags(sub)
    sub.add_argument("--theorem", choices=tuple(CONSTRUCTIONS), required=True)
    for flag in ("--k", "-n"):
        ids = ", ".join(row.id for row in CONSTRUCTIONS.values() if row.param == flag)
        sub.add_argument(flag, type=int, help=f"subdivision parameter for --theorem {ids}")


def _cmd_cert(args, out) -> int:
    from .certificates import CONSTRUCTIONS, CertificateError
    from .subdivision import subdivide

    row = CONSTRUCTIONS[args.theorem]
    flags = {"--k": args.k, "-n": args.n}
    k = row.resolve(flags.get(row.param))  # checked before input is read
    for flag, value in flags.items():
        if value is not None and flag != row.param:
            raise _UsageError(f"--theorem {row.id} takes no {flag}")
    for _, g in _read_graphs(args.input, args.format):
        sm = subdivide(g, k)
        try:
            built = row.build(sm)
        except CertificateError as exc:  # a base the construction does not take
            print(f"theorem={row.id} status=skipped ({exc})", file=out)
            continue
        for cert in built if isinstance(built, tuple) else (built,):
            ids = cert.vertices.sorted()
            labels = ",".join(str(sm.label(v)) for v in ids)
            verdict = "true" if cert.validated else "false"
            print(f"theorem={cert.theorem_id} claimed={cert.claimed_size} "
                  f"size={len(cert.vertices)} validated={verdict}", file=out)
            print(f"set={','.join(str(v) for v in ids)}", file=out)
            print(f"labels={labels}", file=out)
    return 0


def _verify_flags(sub):
    from .bounds import CLAIMS, THEOREM_IDS

    _add_input_flags(sub, "--corpus")
    sub.add_argument("--theorem", action="append", required=True,
                     help="theorem id, repeatable or comma-separated: " + ", ".join(THEOREM_IDS))
    ids = ", ".join(claim.id for claim in CLAIMS if not isinstance(claim.k, int))
    sub.add_argument("-n", type=int, dest="n", help=f"subdivision parameter for --theorem {ids}")
    sub.add_argument("--output", choices=("tsv", "jsonl", "text"), default="tsv")
    sub.add_argument("--fail-on-violation", action="store_true")
    _add_budget_flags(sub)


def _cmd_verify(args, out) -> int:
    from . import bounds

    tids = [tid for chunk in args.theorem for tid in chunk.split(",") if tid]
    if not tids:
        raise _UsageError("--theorem names no theorem id")
    claims = bounds.resolve_claims(tids, args.n)  # usage errors end the run before input is read
    if args.n is not None and all(isinstance(claim.k, int) for claim, _ in claims):
        raise _UsageError(f"--theorem {','.join(tids)} takes no -n")
    pairs = _read_graphs(args.corpus, args.format)
    checks = bounds.run_corpus(pairs, tids, n=args.n, budget=_budget(args))
    for line in bounds.render_checks(checks, args.output):
        print(line, file=out)
    if args.fail_on_violation and any(c.status == "violated" for c in checks):
        return 2
    return 0


def _conjecture_flags(sub):
    _add_input_flags(sub, "--corpus")
    sub.add_argument("--output", choices=("tsv", "jsonl", "text"), default="tsv")
    _add_budget_flags(sub)


def _cmd_conjecture(args, out) -> int:
    from . import bounds

    pairs = _read_graphs(args.corpus, args.format)
    report = bounds.conjecture_scan(pairs, budget=_budget(args))
    for line in bounds.render_conjecture(report, args.output):
        print(line, file=out)
    return 0


# command -> (help text, flag builder, runner), in the order --help lists them
_COMMANDS = {
    "gen": ("emit a named graph", _gen_flags, _cmd_gen),
    "enum": ("all connected graphs on n vertices, one per class", _enum_flags, _cmd_enum),
    "subdivide": ("replace each edge with a k-edge path", _subdivide_flags, _cmd_subdivide),
    "gamma": ("exact gamma of each input graph", _solve_flags,
              lambda args, out: _cmd_solve(args, out, secure=False)),
    "gamma-s": ("exact gamma_s of each input graph", _solve_flags,
                lambda args, out: _cmd_solve(args, out, secure=True)),
    "cert": ("build and validate a certificate construction", _cert_flags, _cmd_cert),
    "verify": ("grade claimed bounds over a corpus", _verify_flags, _cmd_verify),
    "conjecture": ("scan a corpus for ratio gamma_s(G^{1/2})/|V|", _conjecture_flags,
                   _cmd_conjecture),
}


def build_parser(command: str | None) -> _Parser:
    """The parser of every command name, with the flags of ``command`` only:
    no other command's flags can be parsed in the same run."""
    parser = _Parser(prog="subsec", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        if name == command:
            add_flags(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option with a value, so argparse reads the
    # first argument that is not an option as the command.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command][2](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Stdout is the only pipe written. Its reader is gone, so stop like
        # a process killed by SIGPIPE.
        return EX_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ParseError as exc:
        where = f"line {exc.line_number}: " if exc.line_number else ""
        print(f"parse error: {where}{exc}", file=sys.stderr)
        return EX_DATAERR
    except ValueError as exc:  # GraphError, CertificateError and other bad values
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATAERR


def run() -> None:
    """The process entry of ``python -m subsec`` and the ``subsec`` script:
    run ``main``, flush what it printed and leave with ``os._exit``, as
    ``_pool`` workers do. Freeing every module and object at interpreter
    teardown would only delay the exit status (10-20 ms a run on a 2-core
    host). A ``--help`` exit and an uncaught exception still take Python's
    own exit."""
    code = main()
    # An error exit leaves what it printed in the buffers. A stream is None
    # if the process started with its descriptor closed.
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except BrokenPipeError:  # its reader is gone, as in main
            code = EX_PIPE
    os._exit(code)


if __name__ == "__main__":
    run()
