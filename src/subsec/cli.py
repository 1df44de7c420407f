"""Command-line entry point.

One graph per line throughout: a graph6 corpus holds one graph per line, an
edge-list file holds a single graph. Each command reads and parses all its
input, as bytes split at LF, CR or CRLF with no locale consulted, before it
prints. All subcommands are deterministic for fixed inputs and flags; corpus
work fans out to SUBSEC_THREADS workers without changing the output, and
``verify`` and ``conjecture`` write each run of rows finished in input order
with one write and a flush, the summary last.

Exit codes: 0 done, 2 violations found under --fail-on-violation, 64 usage
error, 65 parse error (reported with its line number; a closed or unreadable
input is one too), 74 output could not be written (as to a full disk), 141
stdout or stderr closed by its reader (as by ``| head``; nothing more is
printed). ``main`` flushes stdout on every way out and maps each failed
write to its code; a stdout closed at start sends output nowhere and the
run keeps its status.

Each command's flags are rows of ``_Flag``, read by ``_parse``, and its help
is printed from the same rows. ``gamma`` and ``gamma-s`` run from this
module; the other commands, and the modules only they use, are in
``commands``, which loads when one of them runs or prints its help.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .graphs import Graph, ParseError, _G6_HEADER, _Record, iter_graph6
from .solver import SolverBudget, gamma_exact, gamma_s_exact

EX_USAGE = 64
EX_DATAERR = 65
EX_IOERR = 74
EX_PIPE = 128 + 13  # as if killed by SIGPIPE


class _Flag(_Record):
    """One flag of a command. ``kind`` is "int", "float" or "str" for a flag
    that takes a value, "switch" for one that takes none (True if given), or
    "append" for a str flag whose every use adds a value to a list; any other
    flag given twice keeps its last value. A value must be one of
    ``choices``, if set; ``default`` is the value of a flag not given."""

    name: str
    kind: str = "str"
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        """The attribute that holds the value: ``--max-nodes`` -> ``max_nodes``."""
        return self.name.lstrip("-").replace("-", "_")

    @property
    def synopsis(self) -> str:
        return self.name if self.kind == "switch" else f"{self.name} {self.dest.upper()}"


def _input_flags(name: str = "--input") -> tuple[_Flag, ...]:
    return (_Flag(name, default="-", help="file path, or - for stdin"),
            _Flag("--format", choices=("g6", "edges"), default="g6"))


_BUDGET_FLAGS = (
    _Flag("--max-vertices", "int", default=SolverBudget.max_vertices),
    _Flag("--max-nodes", "int", default=SolverBudget.max_nodes),
)
_HELP = ("-h", "--help")


def _looks_like_flag(arg: str) -> bool:
    """A dash and more, other than a negative number: ``--k -1`` gives --k
    its value, ``--k --format`` gives it none."""
    return arg.startswith("-") and len(arg) > 1 and not (arg[1].isdigit() or arg[1] == ".")


def _parse(command: str, flags: tuple[_Flag, ...], argv: list[str]) -> SimpleNamespace:
    """The values of ``flags`` in ``argv``: ``--flag value``, ``--flag=value``
    or ``-n value``. A flag is named in full, never abbreviated."""
    by_name = {flag.name: flag for flag in flags}
    values = {flag.dest: [] if flag.kind == "append" else flag.default for flag in flags}
    given = set()
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        flag = by_name.get(name)
        if flag is None:
            if _looks_like_flag(arg):
                raise ValueError(f"{command} has no flag {name}")
            raise ValueError(f"{command} takes no argument {arg!r}")
        given.add(name)
        if flag.kind == "switch":
            if eq:
                raise ValueError(f"{name} takes no value")
            values[flag.dest] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or _looks_like_flag(value):
                raise ValueError(f"{name} needs a value")
        if flag.kind in ("int", "float"):
            try:
                value = int(value) if flag.kind == "int" else float(value)
            except ValueError:
                expected = "an integer" if flag.kind == "int" else "a number"
                raise ValueError(f"{name} needs {expected}, got {value!r}") from None
        if flag.choices is not None and value not in flag.choices:
            raise ValueError(f"unknown {name} {value!r} (choose from {', '.join(flag.choices)})")
        if flag.kind == "append":
            values[flag.dest].append(value)
        else:
            values[flag.dest] = value
    for flag in flags:
        if flag.required and flag.name not in given:
            raise ValueError(f"{command} needs {flag.name}")
    return SimpleNamespace(**values)


def _help(command: str, flags: tuple[_Flag, ...]) -> str:
    """One line per flag at a fixed width, whatever the terminal's."""
    rows = []
    for flag in flags:
        notes = [flag.help] if flag.help else []
        if flag.choices:
            notes.append(f"one of {', '.join(flag.choices)}")
        if flag.required:
            notes.append("(required)")
        elif flag.default is not None:
            notes.append(f"(default {flag.default})")
        rows.append((flag.synopsis, " ".join(notes)))
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    required = "".join(f"{flag.synopsis} " for flag in flags if flag.required)
    lines = [f"usage: subsec {command} {required}[flag ...]", "", _COMMANDS[command], "",
             "flags:", *(f"  {left:<{width}}{right}".rstrip() for left, right in rows)]
    return "\n".join(lines) + "\n"


def _usage() -> str:
    width = max(map(len, _COMMANDS)) + 2
    return "\n".join([
        "usage: subsec <command> [flag ...]", "", "commands:",
        *(f"  {name:<{width}}{text}" for name, text in _COMMANDS.items()), "",
        "'subsec <command> --help' lists the flags of a command.",
    ]) + "\n"


def _read_lines(path: str) -> list[str]:
    """Stripped lines, one character per byte: a bad byte keeps its value.
    An input that cannot be read is a ParseError."""
    if path == "-" and sys.stdin is None:  # the process started with fd 0 closed
        raise ParseError("standard input is closed")
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise ParseError(str(exc)) from None
    return [line.strip().decode("latin-1") for line in data.splitlines()]


def _read_graphs(path: str, fmt: str) -> list[tuple[str | None, Graph]]:
    """(graph_id, Graph) pairs: one per nonblank line for g6, one per file
    for edge lists. graph_id is the input g6 line without its ``>>graph6<<``
    header, or None for an edge list (``bounds`` names it by its g6)."""
    lines = _read_lines(path)
    if fmt == "edges":
        from .formats import parse_edgelist

        return [(None, parse_edgelist("\n".join(lines)))]
    ids = [line.removeprefix(_G6_HEADER) for line in lines if line]
    return list(zip(ids, iter_graph6(lines)))


def _budget(args) -> SolverBudget:
    return SolverBudget(args.max_vertices, args.max_nodes)


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


# command -> its one-line help, in the order --help lists them
_COMMANDS = {
    "gen": "emit a named graph",
    "enum": "all connected graphs on n vertices, one per class",
    "subdivide": "replace each edge with a k-edge path",
    "gamma": "exact gamma of each input graph",
    "gamma-s": "exact gamma_s of each input graph",
    "cert": "build and validate a certificate construction",
    "verify": "grade claimed bounds over a corpus",
    "conjecture": "scan a corpus for ratio gamma_s(G^{1/2})/|V|",
}


def _command(name: str):
    """The flags and the runner of command ``name``."""
    if name in ("gamma", "gamma-s"):
        secure = name == "gamma-s"
        return (*_input_flags(), *_BUDGET_FLAGS), lambda args, out: _cmd_solve(args, out, secure)
    from .commands import COMMANDS

    flags, runner = COMMANDS[name]
    return flags(), runner


def _run(argv: list[str], out) -> int:
    if argv and argv[0] in _HELP:
        out.write(_usage())
        return 0
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ValueError(f"{given} (choose from {', '.join(_COMMANDS)})")
    command, rest = argv[0], argv[1:]
    flags, runner = _command(command)
    if any(arg in _HELP for arg in rest):
        out.write(_help(command, flags))
        return 0
    return runner(_parse(command, flags, rest), out)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code (0 for ``--help``), with
    stdout flushed. A write that fails, an error line's too, gives the code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            return _run(argv, sys.stdout)
        except ParseError as exc:
            where = f"line {exc.line_number}: " if exc.line_number else ""
            print(f"parse error: {where}{exc}", file=sys.stderr)
            return EX_DATAERR
        except ValueError as exc:  # usage errors, GraphError, CertificateError and other bad values
            print(f"usage error: {exc}", file=sys.stderr)
            return EX_USAGE
        finally:
            sys.stdout.flush()
    except BrokenPipeError:  # a reader of stdout or stderr is gone: stop as SIGPIPE would
        return EX_PIPE
    except OSError as exc:  # input errors are ParseErrors, so output failed
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr failed too; the first failure gives the code
            pass
        return EX_IOERR


def run() -> None:
    """The process entry of ``python -m subsec`` and the ``subsec`` script:
    run ``main`` and leave with ``os._exit``, as ``_pool`` workers do, since
    interpreter teardown would only delay the exit status (10-20 ms a run on
    a 2-core host). A stdout closed at start (None) becomes os.devnull, so
    output goes nowhere, as ``print`` sends it, and the run keeps its status.
    Stderr needs no flush: it is line-buffered, so each error line was
    written, or failed, at its print."""
    if sys.stdout is None:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    os._exit(main())
