"""Run the entry point, ``python -W error -m markovband``, in a child process."""

import os
import subprocess
import sys
from typing import NamedTuple

# Linux carries a process's peak RSS across exec, so the entry point started
# straight from the test process would report at least the test process's
# size.  This small launcher forks the entry point, waits for it and writes
# its own peak (ru_maxrss) to the file descriptor named by its first argument.
_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""
# ru_maxrss counts KiB on Linux and bytes on macOS
_RSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_module(*argv, preexec_fn=None) -> Run:
    """Run ``python -W error -m markovband *argv`` to its end.

    Any warning is an error in that process, and a traceback on its stderr
    fails the calling test.  ``peak_rss_mb`` is its own peak resident set,
    from ``os.wait4``.  ``preexec_fn`` runs in the launcher before it forks
    the entry point, so what it sets for itself (a CPU affinity, say) holds
    there too.
    """
    read, write = os.pipe()
    with os.fdopen(read, "rb") as report:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _LAUNCHER, str(write),
                 "-W", "error", "-m", "markovband", *argv],
                capture_output=True, pass_fds=(write,), preexec_fn=preexec_fn,
            )
        finally:
            os.close(write)
        peak_rss_mb = int(report.read()) / _RSS_PER_MB
    run = Run(proc.returncode, proc.stdout.decode(), proc.stderr.decode(), peak_rss_mb)
    assert "Traceback" not in run.stderr, run.stderr
    return run
