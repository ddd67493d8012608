"""Print the wall time and peak RSS of one cold CLI command.

    python3 tools/limits.py check relations --bound 40

runs `python3 -m qonsager <args>` in a subprocess, with its stdout and
stderr discarded, and prints one line

    <exit code> <wall s> <peak RSS MB>  <command>

The wall time includes the interpreter's start.  The peak RSS is the
largest of this process's waited-for children (`RUSAGE_CHILDREN`), so run
the script once per command, as its own process.  It imports whichever
`qonsager` is on the path, as the CLI does; the caps in `cli.LIMITS` and
`cli.CENTRAL_COST_CAP` are measured with it.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def measure(argv) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of `python3 -m qonsager
    argv`, run cold in a subprocess."""
    t = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "qonsager", *argv],
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - t
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return code, wall, peak


def main(argv) -> int:
    code, wall, peak = measure(argv)
    print(f"{code} {wall:.2f} {peak:.0f}  {' '.join(argv)}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
