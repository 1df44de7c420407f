"""Spans around the calls into subsec's layers, recorded from outside the program.

The tracer replaces module attributes (for example ``bounds.gamma_s_exact``)
with wrappers that open a span, call the original and close the span. Spans
are kept in memory and written out when the run ends. Each span records its
name, start, end, parent and the graph6 id of the graph it works on; a span
without its own id inherits its parent's, so all spans of one graph share it.

The layer of a span is the part of its name before the first dot. Work the
pool dispatches runs as ``bounds.task`` spans (the task functions live in
``bounds``), nested in the ``pool.map`` span of the dispatch.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "gid", "start", "end", "attrs")

    def __init__(self, name, parent, gid, start, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.gid = gid
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # (index, graph) of every distinct graph a solver was called on,
        # keyed by its adjacency; solver spans carry the index.
        self.graphs: dict[tuple[int, tuple[int, ...]], tuple[int, object]] = {}

    def call(self, name, fn, args=(), kwargs=None, gid=None):
        """Run fn(*args, **kwargs) inside a new span; return (result, span)."""
        parent = self._stack[-1] if self._stack else None
        if gid is None and parent is not None:
            gid = self.spans[parent].gid
        span = Span(name, parent, gid, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {})), span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr, name, *, gid=None, note=None, adapt=None):
        """Replace module.attr with a traced wrapper.

        ``gid(args, kwargs)`` names the graph of a call, ``note(span, args,
        result)`` adds counters after the span has closed, and ``adapt(orig)``
        returns the callable to time in place of the original (used where the
        original returns a lazy generator).
        """
        orig = getattr(module, attr)
        target = adapt(orig) if adapt else orig

        def traced(*args, **kwargs):
            result, span = self.call(name, target, args, kwargs,
                                     gid(args, kwargs) if gid else None)
            if note:
                note(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def unpatch(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path) -> None:
        """Write one JSON line per span; times are seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for idx, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": idx, "name": span.name, "parent": span.parent, "gid": span.gid,
                    "start": span.start - origin, "end": span.end - origin,
                    "self": selfs[idx], **span.attrs,
                }) + "\n")


def wrapper_cost(reps: int = 20_000) -> float:
    """Seconds a traced call adds to the call it wraps, measured on a no-op
    through the same wrapper the layers get."""
    probe = types.SimpleNamespace(fn=lambda x: x)
    start = time.perf_counter()
    for _ in range(reps):
        probe.fn(1)
    direct = time.perf_counter() - start
    tracer = Tracer()
    tracer.patch(probe, "fn", "probe.call", note=lambda span, args, result: None)
    start = time.perf_counter()
    for _ in range(reps):
        probe.fn(1)
    return max(0.0, (time.perf_counter() - start - direct) / reps)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of its interval its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for child in sorted(children[idx], key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] += own
    return dict(totals)


def instrument(tracer: Tracer, cli, bounds, pool, emit_graph6) -> None:
    """Install the wrappers on the layer boundaries that the CLI commands cross."""

    def eager(orig):
        # cli pulls graphs one at a time from a generator; time the parse itself.
        return lambda lines: iter(list(orig(lines)))

    def first_line(args, kwargs):
        lines = args[0]
        return lines[0].strip() if isinstance(lines, list) and len(lines) == 1 else None

    # k of the subdivision made under each open span; the solve that follows
    # under the same parent works on it. A solve with no subdivision has k=1.
    pending_k = {}

    def note_subdivide(span, args, result):
        span.attrs.update(k=args[1], vertices_out=result.derived.n)
        pending_k[span.parent] = args[1]

    def note_solve(span, args, result):
        graph = args[0]
        index, _ = tracer.graphs.setdefault((graph.n, graph.adj_masks), (len(tracer.graphs), graph))
        if span.gid is None:
            span.gid = emit_graph6(graph)
        span.attrs.update(nodes=result.nodes, status=result.status, n=graph.n, graph=index,
                          k=pending_k.pop(span.parent, 1))

    def note_check(span, args, result):
        span.attrs.update(theorem=result.theorem_id, status=result.status, detail=result.detail)

    def graph_id(args, kwargs):
        return kwargs.get("graph_id")

    def dispatch(orig):
        def mapped(fn, items, workers=None):
            def task(item):
                return tracer.call("bounds.task", fn, (item,), gid=item[0])[0]
            return orig(task, items, workers)
        return mapped

    tracer.patch(cli, "iter_graph6", "graphs.parse", gid=first_line, adapt=eager)
    for module in (cli, bounds):
        tracer.patch(module, "gamma_s_exact", "solver.gamma_s", note=note_solve)
        tracer.patch(module, "gamma_exact", "solver.gamma", note=note_solve)
    tracer.patch(bounds, "subdivide", "subdivision.subdivide", note=note_subdivide)
    tracer.patch(bounds, "check_theorem", "bounds.check", gid=graph_id, note=note_check)
    for attr in ("run_corpus", "conjecture_scan"):
        tracer.patch(bounds, attr, "bounds.run")
    for attr in ("render_checks", "render_conjecture"):
        tracer.patch(bounds, attr, "bounds.render")
    tracer.patch(pool, "ordered_map", "pool.map", adapt=dispatch)


def layer_metrics(spans: list[Span], traced_wall: float, span_cost: float,
                  seed_nodes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced single-worker run, as name -> (value, unit).

    pool.efficiency is task busy time over wall time (times the one worker).

    trace.overhead_ratio is traced wall over the wall without tracing, where
    the latter is the traced wall less ``span_cost`` (see wrapper_cost) per
    span. Comparing against a second, untraced pass would measure host noise
    instead: on a shared 2-core host two identical passes differ by up to a
    quarter, while the spans cost well under a millisecond per thousand.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = layer_self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def count(name):
        return len(by_name[name])

    solves = by_name["solver.gamma_s"] + by_name["solver.gamma"]
    nodes = {name: sum(s.attrs["nodes"] for s in by_name[name])
             for name in ("solver.gamma_s", "solver.gamma")}
    solve_time = total("solver.gamma_s") + total("solver.gamma")
    distinct = {(s.gid, s.attrs["k"]) for s in by_name["solver.gamma_s"]}
    details = [s.attrs["detail"] for s in by_name["bounds.check"] if s.attrs["status"] == "skipped"]
    tasks = by_name["bounds.task"]
    out = {
        "graphs.parse_s": (total("graphs.parse"), "s"),
        "graphs.parse_calls": (count("graphs.parse"), "count"),
        "subdivision.subdivide_s": (total("subdivision.subdivide"), "s"),
        "subdivision.calls": (count("subdivision.subdivide"), "count"),
        "subdivision.vertices_out": (
            sum(s.attrs["vertices_out"] for s in by_name["subdivision.subdivide"]), "count"),
    }
    for name in ("solver.gamma_s", "solver.gamma"):
        out[f"{name}.calls"] = (count(name), "count")
        out[f"{name}.time_s"] = (total(name), "s")
        out[f"{name}.nodes"] = (nodes[name], "count")
    all_nodes = sum(nodes.values())
    out.update({
        "solver.ns_per_node": (solve_time / all_nodes * 1e9 if all_nodes else 0.0, "ns"),
        "solver.seed_nodes": (seed_nodes, "count"),
        "solver.unique_ratio": (
            len(distinct) / count("solver.gamma_s") if by_name["solver.gamma_s"] else 0.0, "ratio"),
        "solver.max_solve_s": (max((s.duration for s in solves), default=0.0), "s"),
        "solver.skipped": (sum(s.attrs["status"] == "skipped" for s in solves), "count"),
        "bounds.check_calls": (count("bounds.check"), "count"),
        "bounds.self_s": (selfs.get("bounds", 0.0), "s"),
        "bounds.render_s": (total("bounds.render"), "s"),
        "bounds.skipped_vertex_cap": (
            sum(d.startswith("budget: derived graph has") for d in details), "count"),
        "bounds.skipped_budget": (sum(d.startswith("budget: exhausted") for d in details), "count"),
        "bounds.skipped_precondition": (sum(d.startswith("precondition:") for d in details), "count"),
        "pool.tasks": (len(tasks), "count"),
        "pool.max_task_s": (max((s.duration for s in tasks), default=0.0), "s"),
        "pool.efficiency": (sum(s.duration for s in tasks) / traced_wall, "ratio"),
        "cli.self_s": (selfs.get("cli", 0.0), "s"),
        "trace.overhead_ratio": (traced_wall / (traced_wall - len(spans) * span_cost), "ratio"),
    })
    return out
