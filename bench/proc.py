"""Child processes timed from outside, with resources from os.wait4."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out


def child_env() -> dict[str, str]:
    """The environment every child gets: the package from src/, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout_s: float) -> Proc:
    """Run argv to completion and measure it; kill it after timeout_s.

    The child is waited for with WNOWAIT first, so the timeout thread can
    never signal a pid that has already been reaped and reused; os.wait4
    then reaps it and returns its user + system time and peak RSS.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(child.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - started
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
            with lock:
                if not state["exited"]:  # interrupted while waiting
                    os.kill(child.pid, signal.SIGKILL)
                    os.wait4(child.pid, 0)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=child.returncode,
        timed_out=state["killed"],
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]
