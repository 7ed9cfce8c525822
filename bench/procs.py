"""No process outlives the run that started it.

The stack starts processes the benchmark never names: the engine's
``processes`` backend forks pool workers, and its shared-memory arena makes
``multiprocessing`` launch a resource tracker that by design exits only
*after* its parent has.  ``adopt_orphans()`` at the start of a run and
``stop_descendants()`` on every path out of it (``cli.main`` and
``server_child.main``) end each of them and wait until it is gone.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Set

PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
LIMIT_S = 20.0


def adopt_orphans() -> bool:
    """Make this process the parent of any descendant whose own parent dies,
    so it stays findable (and waitable) here instead of moving to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _parents() -> Dict[int, int]:
    """pid -> parent pid of every process in /proc."""
    out: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces and ')'.
                out[int(entry)] = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # it ended while we were reading
    return out


def descendants(root: int = 0) -> Set[int]:
    """Every process below *root* (default: this one), zombies included."""
    root = root or os.getpid()
    children: Dict[int, list] = {}
    for pid, parent in _parents().items():
        children.setdefault(parent, []).append(pid)
    found: Set[int] = set()
    stack = [root]
    while stack:
        for pid in children.get(stack.pop(), ()):
            if pid not in found:
                found.add(pid)
                stack.append(pid)
    return found


def _release_resource_tracker() -> None:
    """Close our end of the resource tracker's pipe: it unlinks what was
    left registered and exits (it ignores SIGTERM, so this is the polite way)."""
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        fd = getattr(tracker, "_fd", None)
        if fd is not None:
            os.close(fd)
            tracker._fd = tracker._pid = None  # a later use starts a new one
    except (ImportError, AttributeError, OSError):
        pass


def _reap() -> None:
    """Collect every child that has already ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace_s: float = 3.0) -> int:
    """End every descendant and wait until none is left; returns how many
    there were.  SIGTERM at once (whatever is still here was not stopped by
    its owner), SIGKILL after *grace_s*; a process that survives even that
    for LIMIT_S is an error, not something to leave behind quietly."""
    _release_resource_tracker()
    start = time.monotonic()
    seen: Set[int] = set()
    termed: Set[int] = set()
    while True:
        _reap()
        live = descendants()
        if not live:
            return len(seen)
        seen |= live
        waited = time.monotonic() - start
        if waited > LIMIT_S:
            raise RuntimeError(f"bench: processes {sorted(live)} would not end")
        for pid in live:
            if waited > grace_s or pid not in termed:
                try:
                    os.kill(pid, signal.SIGKILL if waited > grace_s else signal.SIGTERM)
                except (ProcessLookupError, PermissionError):
                    pass
                termed.add(pid)
        time.sleep(0.01)
