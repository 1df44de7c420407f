"""Run one command; print its exit code, wall time and peak RSS on stderr.

    python3 -I -S bench/spawn.py <program> [args...]

The last line of stderr is a JSON object: ``code``, ``wall_s`` (from just
before the spawn to the exit) and ``maxrss_kb``, the largest max RSS of the
command and of every descendant it waited for. The benchmark starts the CLI
through this small process because exec keeps the high-water RSS of the
memory a child shared or copied from its parent: started straight from the
benchmark, the CLI would report at least the benchmark's own RSS.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    code = subprocess.call(sys.argv[1:])
    wall = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stderr.write(json.dumps({"code": code, "wall_s": wall, "maxrss_kb": maxrss}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
