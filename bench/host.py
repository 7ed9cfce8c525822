"""What the machine is and what a process has used."""

from __future__ import annotations

import os
import platform
import resource
import threading
import time
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")


def out_path(name: str) -> str:
    """A path under bench/out/ (created on first use; git-ignored)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def fingerprint() -> Dict[str, object]:
    """Cores, python, numpy, kernel backend and commit of this run."""
    import numpy

    try:
        from repro.kernels import jit_available, kernel_backend

        kernels = kernel_backend()
        jit = bool(jit_available())
    except ImportError:
        kernels, jit = "absent", False
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "kernel_backend": kernels,
        "jit_active": jit,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD's hash read from .git by hand (a checkout may not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu(pid: int) -> float:
    """CPU seconds of every thread of another process so far, from
    /proc/<pid>/task/*/schedstat (nanoseconds; /proc/<pid>/stat counts in
    10 ms ticks, too coarse for half-second blocks)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:
            continue  # the thread ended between listdir() and the read
    return total / 1e9


def thread_cpu() -> Dict[str, float]:
    """CPU seconds of every live Python thread, by name (per-thread CPU clocks:
    the same counters as /proc/self/task/*/stat, at nanosecond resolution)."""
    out: Dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            spent = time.clock_gettime(clock)
        except (OSError, TypeError):
            continue  # the thread ended between enumerate() and the read
        out[thread.name] = out.get(thread.name, 0.0) + spent
    return out
