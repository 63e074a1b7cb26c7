"""Run one command; write its wall time, peak resident memory and exit code as JSON.

Usage: ``python3 spawn.py RESULT.json STDOUT STDERR -- PROGRAM [ARG ...]``

The benchmark launches every timed command through this small process
rather than from its own, larger one.  Linux charges the forking process's
memory high-water mark to the child when the child calls exec, so a child
spawned straight from a process that has held large arrays reports that
process's peak as its own.  This launcher imports nothing heavy, so its
mark stays below that of any command it runs.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, stdout_path, stderr_path, separator, *argv = sys.argv[1:]
    if separator != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "peak_rss_kb": usage.ru_maxrss,
                   "exit_code": proc.returncode}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
