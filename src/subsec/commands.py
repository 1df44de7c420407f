"""The commands that make, rewrite or grade graphs: ``gen``, ``enum``,
``subdivide``, ``cert``, ``verify`` and ``conjecture``. ``cli`` loads this
module only when one of them runs or prints its help, so a ``gamma`` or
``gamma-s`` run never compiles it. The modules a command uses (corpus,
subdivision, certificates, bounds, formats) are imported inside its own
functions, so a run loads only its own command's modules.
"""

from __future__ import annotations

from .cli import _BUDGET_FLAGS, _Flag, _budget, _input_flags, _read_graphs
from .graphs import Graph

_OUTPUT_FLAG = _Flag("--output", choices=("tsv", "jsonl", "text"), default="tsv")


def _emit_graph(g: Graph, fmt: str, out) -> None:
    from .formats import emit_edgelist, emit_graph6

    if fmt == "g6":
        print(emit_graph6(g), file=out)
    else:
        out.write(emit_edgelist(g))


def _write_blocks(blocks, out) -> None:
    """Each block of report lines with one write, then a flush, so each
    chunk's rows reach the reader as soon as they are done. The blocks'
    workers are stopped on every way out, a closed pipe included."""
    try:
        for block in blocks:
            out.write("".join(line + "\n" for line in block))
            out.flush()
    finally:
        blocks.close()


# Each command is a function that builds its flag rows, so a row can name
# choices from a module that only that command loads, and a runner.


def _gen_flags():
    from .corpus import FAMILIES

    return (_Flag("--family", choices=FAMILIES, required=True),
            _Flag("--n", "int", required=True),
            _Flag("--p", "float"),
            _Flag("--seed", "int"),
            _Flag("--format", choices=("g6", "edges"), default="g6"))


def _cmd_gen(args, out) -> int:
    from .corpus import generate

    for flag, value in (("--p", args.p), ("--seed", args.seed)):
        if value is not None and args.family != "random":  # only random draws
            raise ValueError(f"--family {args.family} takes no {flag}")
    g = generate(args.family, args.n, p=args.p, seed=args.seed)
    _emit_graph(g, args.format, out)
    return 0


def _enum_flags():
    return (_Flag("--n", "int", required=True),)


def _cmd_enum(args, out) -> int:
    from .corpus import enumerate_connected

    for g in enumerate_connected(args.n):
        _emit_graph(g, "g6", out)
    return 0


def _subdivide_flags():
    return (*_input_flags(),
            _Flag("--k", "int", required=True),
            _Flag("--labels", "switch",
                  help="append the id->label table as comments (edges format only)"))


def _cmd_subdivide(args, out) -> int:
    from .subdivision import subdivide

    if args.labels and args.format != "edges":
        raise ValueError("--labels requires --format edges")
    if args.k < 1:
        raise ValueError(f"subdivide needs --k >= 1, got {args.k}")
    for _, g in _read_graphs(args.input, args.format):
        sm = subdivide(g, args.k)
        _emit_graph(sm.derived, args.format, out)
        if args.labels:
            for vid in range(sm.derived.n):
                print(f"# label {vid}\t{sm.label(vid)}", file=out)
    return 0


def _cert_flags():
    from .certificates import CONSTRUCTIONS

    def parameter(flag):
        ids = ", ".join(row.id for row in CONSTRUCTIONS.values() if row.param == flag)
        return _Flag(flag, "int", help=f"subdivision parameter for --theorem {ids}")

    return (*_input_flags(),
            _Flag("--theorem", choices=tuple(CONSTRUCTIONS), required=True),
            parameter("--k"), parameter("-n"))


def _cmd_cert(args, out) -> int:
    from .certificates import CONSTRUCTIONS, CertificateError
    from .subdivision import subdivide

    row = CONSTRUCTIONS[args.theorem]
    flags = {"--k": args.k, "-n": args.n}
    k = row.resolve(flags.get(row.param))  # checked before input is read
    for flag, value in flags.items():
        if value is not None and flag != row.param:
            raise ValueError(f"--theorem {row.id} takes no {flag}")
    for _, g in _read_graphs(args.input, args.format):
        sm = subdivide(g, k)
        try:
            built = row.build(sm)
        except CertificateError as exc:  # a base the construction does not take
            print(f"theorem={row.id} status=skipped ({exc})", file=out)
            continue
        for cert in built if isinstance(built, tuple) else (built,):
            ids = cert.vertices.sorted()
            labels = ",".join(map(sm.label, ids))
            verdict = "true" if cert.validated else "false"
            print(f"theorem={cert.theorem_id} claimed={cert.claimed_size} "
                  f"size={len(cert.vertices)} validated={verdict}", file=out)
            print(f"set={','.join(str(v) for v in ids)}", file=out)
            print(f"labels={labels}", file=out)
    return 0


def _verify_flags():
    from .bounds import CLAIMS, THEOREM_IDS

    ids = ", ".join(claim.id for claim in CLAIMS if not isinstance(claim.k, int))
    return (*_input_flags("--corpus"),
            _Flag("--theorem", "append", required=True,
                  help="theorem id, repeatable or comma-separated: " + ", ".join(THEOREM_IDS)),
            _Flag("-n", "int", help=f"subdivision parameter for --theorem {ids}"),
            _OUTPUT_FLAG,
            _Flag("--fail-on-violation", "switch"),
            *_BUDGET_FLAGS)


def _cmd_verify(args, out) -> int:
    from . import bounds

    tids = [tid for chunk in args.theorem for tid in chunk.split(",") if tid]
    if not tids:
        raise ValueError("--theorem names no theorem id")
    claims = bounds.resolve_claims(tids, args.n)  # usage errors end the run before input is read
    if args.n is not None and all(isinstance(claim.k, int) for claim, _ in claims):
        raise ValueError(f"--theorem {','.join(tids)} takes no -n")
    pairs = _read_graphs(args.corpus, args.format)
    blocks, counts = bounds.stream_checks(pairs, tids, args.output, n=args.n, budget=_budget(args))
    _write_blocks(blocks, out)
    return 2 if args.fail_on_violation and counts["violated"] else 0


def _conjecture_flags():
    return (*_input_flags("--corpus"), _OUTPUT_FLAG, *_BUDGET_FLAGS)


def _cmd_conjecture(args, out) -> int:
    from . import bounds

    pairs = _read_graphs(args.corpus, args.format)
    _write_blocks(bounds.stream_conjecture(pairs, args.output, budget=_budget(args)), out)
    return 0


# command -> (flag builder, runner); cli holds each command's one-line help
COMMANDS = {
    "gen": (_gen_flags, _cmd_gen),
    "enum": (_enum_flags, _cmd_enum),
    "subdivide": (_subdivide_flags, _cmd_subdivide),
    "cert": (_cert_flags, _cmd_cert),
    "verify": (_verify_flags, _cmd_verify),
    "conjecture": (_conjecture_flags, _cmd_conjecture),
}
