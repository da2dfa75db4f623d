"""Helpers shared by the workloads: child processes, scratch space, statistics."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: settings that would make a child write outside its scratch directory or
#: change how the program runs
_SCRUBBED_ENV = ("REPRO_LEDGER", "REPRO_LEDGER_SHARD", "REPRO_ENGINE", "REPRO_FARM_CACHE")


def child_env(work: Path, cache_dir: Path | None = None) -> dict:
    """Environment for a child running the program from ``src/``; its
    temporary files (the farm pool's among them) go under ``work``."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(work)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench/`` in the checkout, removed afterwards."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


@dataclasses.dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def start_child(args: list[str], env: dict):
    """Spawn ``python3 args...`` in the checkout; returns the process and its start time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    return proc, started


def finish_child(proc: subprocess.Popen, started: float, timeout: float = 170.0,
                 head: bytes = b"") -> ChildResult:
    """Read the rest of ``proc``'s output and reap it with ``wait4``, so its
    peak RSS is known; ``head`` is output the caller already read.  The
    figure is the largest of the process and every child it has reaped,
    so it is the process's own peak only for one that starts no children."""
    out: list = []
    err: list = []
    readers = [
        threading.Thread(target=lambda: out.append(proc.stdout.read()), daemon=True),
        threading.Thread(target=lambda: err.append(proc.stderr.read()), daemon=True),
    ]
    for reader in readers:
        reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    # ru_maxrss is in KiB on Linux
    return ChildResult(
        proc.returncode,
        (head + b"".join(out)).decode("utf-8", "replace"),
        b"".join(err).decode("utf-8", "replace"),
        wall_s,
        usage.ru_maxrss / 1024.0,
    )


def own_peak_rss_mb(pid: int) -> float:
    """Peak RSS of the live process ``pid`` alone (``VmHWM``), in MB; unlike
    ``wait4``'s figure it leaves out the children the process has reaped."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_child(args: list[str], env: dict, timeout: float = 170.0) -> ChildResult:
    """Run ``python3 args...`` to completion; wall time from spawn to exit."""
    proc, started = start_child(args, env)
    return finish_child(proc, started, timeout)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
