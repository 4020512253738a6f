"""Run the ``reviewstream`` CLI as a child process and measure it.

The child is started the way the installed ``reviewstream`` console
script starts it (``reviewstream.cli:main``), from the checkout's
``src/`` tree. Wall time is taken around the whole process and peak RSS
from that child's own rusage via ``os.wait4``; ``RUSAGE_CHILDREN`` would
be a maximum over every child run so far.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_ENTRY = "import sys; from reviewstream.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    rss_mb: float
    exit_code: int  # negative: killed by that signal


def run_cli(root: Path, argv: list[str], log: Path, timeout_s: float) -> ChildRun:
    """Run ``reviewstream <argv>`` with ``root`` as working directory.

    stdout and stderr go to ``log``. A child still running after
    ``timeout_s`` is killed, and is always reaped before returning.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    lock = threading.Lock()
    reaped = False
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _ENTRY, *argv],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
        )

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


VERSION_ARGV = ["--version"]


def pipeline_argv(inputs: Path, out_dir: Path, period: int) -> list[str]:
    """``reviewstream pipeline`` on a generated workload; paths relative to the root."""
    return ["pipeline", "--reviews", str(inputs / "reviews.jsonl"),
            "--catalog", str(inputs / "catalog.csv"), "--out-dir", str(out_dir),
            "--origin", "0", "--period", str(period)]


def network_argv(inputs: Path, out_csv: Path) -> list[str]:
    return ["stats", "network", "--reviews", str(inputs / "reviews.jsonl"),
            "--out", str(out_csv)]
