"""Closed-loop command runner: one client, one fresh process per command.

Each command runs as `python -c LAUNCH <mark> <cli args>`, which imports the
`formatio` package, writes the monotonic clock to the mark file, and then runs
`formatio.cli` as `__main__` exactly as `python -m formatio.cli` would.  The
next command starts only after the previous one has been reaped, so at most
one command (plus the pool workers of a `--workers 2` sweep) runs at a time.

Peak RSS comes from each child's own rusage (`os.wait4`), not from the
running maximum that `getrusage(RUSAGE_CHILDREN)` keeps over all children.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCH = (
    "import sys, time\n"
    "import formatio\n"
    "with open(sys.argv.pop(1), 'w') as f:\n"
    "    f.write(repr(time.monotonic()))\n"
    "import runpy\n"
    "runpy.run_module('formatio.cli', run_name='__main__', alter_sys=True)\n"
)


@dataclass
class Outcome:
    exit_code: int
    seconds: float          # spawn until reaped
    setup_seconds: float    # spawn until `formatio` was imported
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


def child_env(src_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FORMATIO_", "PYTHON"))}
    env["PYTHONPATH"] = str(src_dir)
    return env


class Spawner:
    """Runs CLI commands in `work_dir`, which must be the current directory."""

    def __init__(self, src_dir: Path, work_dir: Path, timeout: float):
        self.env = child_env(src_dir)
        self.io_dir = work_dir / "io"
        self.io_dir.mkdir(exist_ok=True)
        self.timeout = timeout
        self.count = 0

    def run(self, args: tuple[str, ...]) -> Outcome:
        self.count += 1
        base = self.io_dir / f"{self.count:05d}"
        mark, out, err = (base.with_suffix(s) for s in (".mark", ".out", ".err"))
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        argv = [sys.executable, "-c", LAUNCH, str(mark), *args]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=actions, setpgroup=0)
        reaped = threading.Event()
        killed = []

        def kill() -> None:
            if not reaped.is_set():
                killed.append(True)
                os.killpg(pid, signal.SIGKILL)

        timer = threading.Timer(self.timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        end = time.monotonic()
        try:
            imported = float(mark.read_text())
        except (OSError, ValueError):
            imported = end
        return Outcome(os.waitstatus_to_exitcode(status), end - start,
                       imported - start, usage.ru_maxrss / 1024.0,
                       out.read_bytes(), err.read_bytes(), bool(killed))
