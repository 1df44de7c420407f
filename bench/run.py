"""Benchmark of the subsec CLI: one workload per call, its outputs checked.

    python3 bench/run.py --workload corpus7 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run it from anywhere inside a checkout; the program is taken from the
checkout's ``src``. Inputs are built before any timing starts.

``--trace 0`` (end-to-end). Load is closed-loop: one CLI process at a time.
It times the workload's commands on an empty input several times (setup_s,
the median). Then it splits the input into the workload's parts and runs
every command on every part as subprocesses, pass after pass, starting
another pass only while it should end within ``--seconds`` (at least one
pass). It reports the sum over parts and commands of each one's fastest time
(wall_s), the largest max RSS of any CLI process or pool worker
(peak_rss_mb), the rows that carry an exact value (rows_exact) and their
rate (exact_per_s). Every row of every pass is checked. Each CLI process
is started, timed and measured by spawn.py.

``--trace 1`` (per layer). It runs the same commands once in-process
through ``cli.main`` with SUBSEC_THREADS=1 and wrappers on the layer
boundaries (see spans.py), checks the output and reports the per-layer
metrics. The spans are written to ``bench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give each metric by name and unit, fail_ratio,
and a context line with the host (nproc, Python, load average, a fixed
calibration loop timed before and after) and the sha256 and line count of
the input. Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPAWN = BENCH / "spawn.py"
NAMES = ("verify6", "corpus7", "pathcycle", "random22")
SETUP_REPS = 7


def calibrate(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of host speed, not a metric."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(wl, lines, work, empty_path, seconds):
    """End-to-end metrics from CLI subprocesses."""
    from checks import Run, Verdict
    from workloads import check_outputs

    env = {**os.environ, "SUBSEC_THREADS": str(wl.threads),
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}

    peak_kb = 0

    def spawn(argv):
        nonlocal peak_kb
        proc = subprocess.run([sys.executable, "-I", "-S", str(SPAWN), sys.executable, "-m", "subsec", *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True)
        stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
        stats = json.loads(last)
        peak_kb = max(peak_kb, stats["maxrss_kb"])
        return Run(tuple(argv), stats["code"], proc.stdout, stderr), stats["wall_s"]

    verdict = Verdict()
    setups = []
    for _ in range(SETUP_REPS):
        spent = 0.0
        for argv in wl.argvs(empty_path):
            run, wall = spawn(argv)
            spent += wall
            verdict.attempted += 1
            if run.code != 0:
                verdict.failures.append(f"empty input: {argv[0]} exit {run.code}")
        setups.append(spent)

    # Every i-th line, so that the parts cost about the same; each part's
    # output is checked on its own.
    parts = [lines[i::wl.parts] for i in range(wl.parts)]
    part_paths = [work / f"part{i}.g6" for i in range(wl.parts)]
    for part, path in zip(parts, part_paths):
        path.write_text("".join(line + "\n" for line in part), encoding="utf-8")

    # passes[i][j]: the time of the j-th (part, command) in pass i.
    passes, exact_rows = [], []
    begin = time.perf_counter()
    while True:
        spent, exact = [], 0
        for part, path in zip(parts, part_paths):
            runs = []
            for argv in wl.argvs(path):
                run, wall = spawn(argv)
                runs.append(run)
                spent.append(wall)
            passed = check_outputs(wl.name, part, runs)
            exact += passed.rows_exact
            verdict.merge(passed)
        passes.append(spent)
        exact_rows.append(exact)
        # Start another pass only if it should end within --seconds.
        if time.perf_counter() - begin + statistics.mean(map(sum, passes)) > seconds:
            break

    rows = statistics.median(exact_rows)
    # Other tenants of a shared host slow it for stretches of seconds to
    # minutes, which moves a median pass by up to a third. The fastest time of each
    # short (part, command) unit is the steadiest figure between runs; see
    # NOTES.md.
    wall = sum(min(times) for times in zip(*passes))
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "rows_exact": (rows, "count"),
        "exact_per_s": (rows / wall, "1/s"),
    }
    return verdict, metrics, {"passes_s": passes, "setups_s": setups}


def traced(wl, lines, input_path, seed):
    """Per-layer metrics from one traced in-process pass."""
    os.environ["SUBSEC_THREADS"] = "1"
    from subsec import _pool, bounds, cli, emit_graph6, solver

    import spans
    from checks import Run
    from workloads import check_outputs

    tracer = spans.Tracer()

    def call_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.call("cli.main", cli.main, (argv,))[0]
            except Exception:
                code = 1
                err.write(traceback.format_exc())
        return Run(tuple(argv), code, out.getvalue(), err.getvalue())

    spans.instrument(tracer, cli, bounds, _pool, emit_graph6)
    try:
        runs = [call_main(argv) for argv in wl.argvs(input_path)]
    finally:
        tracer.unpatch()
    traced_wall = sum(s.duration for s in tracer.spans if s.name == "cli.main")

    exact = {s.attrs["graph"] for s in tracer.spans
             if s.name == "solver.gamma_s" and s.attrs["status"] == "exact"}
    seed_nodes = sum(solver.gamma_exact(g).nodes
                     for index, g in tracer.graphs.values() if index in exact)

    verdict = check_outputs(wl.name, lines, runs)
    span_cost = spans.wrapper_cost()
    metrics = spans.layer_metrics(tracer.spans, traced_wall, span_cost, seed_nodes)
    dump = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.dump(dump)
    selfs = spans.layer_self_times(tracer.spans)
    extra = {
        "trace_file": str(dump.relative_to(ROOT)),
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "span_cost_s": span_cost,
        "layer_self_s": selfs,
    }
    for layer, own in sorted(selfs.items(), key=lambda item: -item[1]):
        print(f"{wl.name} self time {layer:<12} {own:10.4f} s {100 * own / traced_wall:6.2f} %")
    return verdict, metrics, extra


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subsec" / "__init__.py").is_file():
        print(f"no subsec package under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    context = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "subsec_threads": 1 if args.trace else wl.threads,
        "loadavg_before": os.getloadavg(), "calibration_before_s": calibrate(),
    }
    try:
        lines = workloads.make_input(wl.name, args.seed)
    except workloads.InputError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    text = "".join(line + "\n" for line in lines)
    context["input"] = {"lines": len(lines), "sha256": hashlib.sha256(text.encode()).hexdigest()}

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        input_path, empty_path = work / "input.g6", work / "empty.g6"
        input_path.write_text(text, encoding="utf-8")
        empty_path.write_text("", encoding="utf-8")
        if args.trace:
            verdict, metrics, extra = traced(wl, lines, input_path, args.seed)
        else:
            verdict, metrics, extra = timed(wl, lines, work, empty_path, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context.update(extra, loadavg_after=os.getloadavg(), calibration_after_s=calibrate())

    for failure in verdict.failures[:20]:
        print(f"FAIL {wl.name}: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    fail_ratio = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"{wl.name} fail_ratio = {fail_ratio:.6g} ratio ({verdict.failed} of {verdict.attempted})")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
