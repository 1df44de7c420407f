"""Run workloads over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workloads corpus7,pathcycle --seeds 1-10 --seconds 60
    python3 bench/repeat.py --seeds 1-10 --trace-seed 1 --out bench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median. ``--trace-seed`` adds one traced run per workload.
``--out`` writes everything, every run's value included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="corpus7,pathcycle")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="60")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"seeds": seed_range(args.seeds), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in summary["seeds"]:
            result, context = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed",
                      file=sys.stderr)
            runs.append({"seed": seed, "result": result, "context": context})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {}
        for name, vals in values.items():
            q1, mid, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "n": len(vals)}
            print(f"{workload:<10} {name:<12} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {(q3 - q1) / mid:.4f}", flush=True)
        entry = {"end_to_end": stats, "runs": runs}
        if args.trace_seed is not None:
            result, context = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "result": result, "context": context}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
