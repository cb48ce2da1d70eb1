"""Start processes on request; report exit code, wall time and peak memory.

Run as `python -S perfbench/spawn.py`. A child started with vfork, as
posix_spawn does, shares its parent's memory until it executes the new
program, and the kernel charges the parent's peak resident size to the
child's ru_maxrss. The process running run.py holds NumPy and is over
30 MB; this one imports only os, sys and time and stays near 8 MB, so
the peak memory read for each blockinv child is that child's own.

Protocol, one line per request on stdin: the stdout path followed by
the argv, tab-separated. Replies on stdout: the child's pid as soon as
it has started, then "exit_code wall_seconds maxrss_kb" once it has
ended. The wall time runs from just before the spawn to the reap.
"""

import os
import sys
import time


def main() -> int:
    devnull = os.open(os.devnull, os.O_WRONLY)
    for line in sys.stdin:
        out, *argv = line.rstrip("\n").split("\t")
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, fd, 1),
                (os.POSIX_SPAWN_DUP2, devnull, 2)])
            print(pid, flush=True)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(fd)
        print(os.waitstatus_to_exitcode(status), repr(wall), usage.ru_maxrss,
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
