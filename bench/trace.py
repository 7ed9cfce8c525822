"""Spans recorded from outside: wrappers around each layer's entry point.

The traced run installs a timing wrapper around every public entry point
the stack exposes (``CachingExecutor.execute``, ``PlannedExecutor.execute``,
``ExecutionEngine.execute``, ``ShardedHint.execute``, ``run_strategy`` /
``compiled_run``, ``DynamicHint.insert/delete/query``).  A span is
``(id, layer, wall start, wall end, thread-CPU start, thread-CPU end,
parent id, batch id, queries, tag)``; spans stay in memory and are written
to ``bench/out/`` when the run ends.  A layer's self time is its span
minus the part of it that its child spans cover.

Nothing in ``src/`` knows about this module: a layer that a later PR
removes simply has no entry point to wrap and reports no spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench import host

#: (layer, module, owner class or None for a module function, attribute)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("cache", "repro.cache.executor", "CachingExecutor", "execute"),
    ("planner", "repro.planner.executor", "PlannedExecutor", "execute"),
    ("engine", "repro.engine.engine", "ExecutionEngine", "execute"),
    ("shard", "repro.shard.sharded", "ShardedHint", "execute"),
    ("core", "repro.core.strategies", None, "run_strategy"),
    ("core", "repro.kernels.compiled", None, "compiled_run"),
    ("hint.insert", "repro.hint.dynamic", "DynamicHint", "insert"),
    ("hint.delete", "repro.hint.dynamic", "DynamicHint", "delete"),
    ("hint.query", "repro.hint.dynamic", "DynamicHint", "query"),
)

# span tuple field positions
SID, LAYER, T0, T1, C0, C1, PARENT, BATCH, QUERIES, TAG = range(10)


def _batch_len(args, kwargs) -> int:
    """Queries in the call: the first positional/keyword arg with a length
    that looks like a batch (execute(batch, ...), run_strategy(name, index,
    batch, ...))."""
    batch = kwargs.get("batch")
    if batch is None:
        for arg in args:
            if hasattr(arg, "st") and hasattr(arg, "end"):
                batch = arg
                break
    try:
        return len(batch) if batch is not None else 1
    except TypeError:
        return 1


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.plans: List[str] = []  # one entry per planner.execute call
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        # The span stack of the thread that started the batch in flight.
        # A span that starts on a pool thread (shard workers, the threads
        # backend) adopts its innermost span as parent.  One batch is in
        # flight per process in every workload, so this is exact.
        self._main_stack: Optional[list] = None
        self._rebuilds_seen: Optional[int] = None
        self._undo: List[Tuple[object, str, object]] = []
        self.installed: List[str] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _wrap(self, layer: str, fn: Callable, tagger=None) -> Callable:
        spans = self.spans
        local = self._local
        execution = not layer.startswith("hint.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(self._ids)
            root = False
            main = self._main_stack
            if stack:
                parent, batch = stack[-1]
            elif execution and main:
                parent, batch = main[-1]
            else:
                parent, batch = 0, next(self._batches)
                if execution:
                    self._main_stack = stack
                    root = True
            stack.append((sid, batch))
            c0 = thread_time()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                if root:
                    self._main_stack = None
                tag = tagger(args) if tagger is not None else ""
                spans.append(
                    (sid, layer, t0, t1, c0, c1, parent, batch,
                     _batch_len(args, kwargs), tag)
                )

        return traced

    def install(self) -> List[str]:
        """Wrap every entry point that exists; returns the layers found."""
        taggers = {"planner": self._plan_tag, "hint.insert": self._rebuild_tag}
        for layer, mod_name, owner, attr in ENTRY_POINTS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            if owner is not None:
                cls = getattr(module, owner, None)
                fn = getattr(cls, attr, None) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, attr, self._wrap(layer, fn, taggers.get(layer)))
                self._undo.append((cls, attr, fn))
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, fn)
                # `from x import run_strategy` copies the name into every
                # importer's globals: patch each reference.
                for name, mod in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))
            self.installed.append(layer)
        return self.installed

    @property
    def active(self) -> bool:
        return bool(self._undo)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _plan_tag(self, args) -> str:
        decision = getattr(args[0], "last_decision", None)
        plan = getattr(decision, "plan", None)
        if plan is None:
            tag = "fallback"
        else:
            describe = getattr(plan, "describe", None)
            tag = describe() if callable(describe) else str(plan)
            if getattr(decision, "split", False):
                tag = "split:" + tag
        self.plans.append(tag)
        return tag

    def _rebuild_tag(self, args) -> str:
        """``rebuild`` when this insert moved ``DynamicHint.rebuilds``."""
        count = getattr(args[0], "rebuilds", 0)
        moved = self._rebuilds_seen is not None and count != self._rebuilds_seen
        self._rebuilds_seen = count
        return "rebuild" if moved else ""

    def dump(self, workload: str) -> None:
        """Write the spans (JSON lines) to ``bench/out/trace-<workload>.jsonl``."""
        header = {"fields": ["id", "layer", "start", "end", "cpu_start", "cpu_end",
                             "parent", "batch", "queries", "tag"],
                  "workload": workload, "layers": self.installed, **host.fingerprint()}
        with open(host.out_path(f"trace-{workload}.jsonl"), "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


# --------------------------------------------------------------------- #
# analysis (over any list of spans)
# --------------------------------------------------------------------- #


def self_times(spans: List[tuple], clock: str = "wall") -> Dict[str, float]:
    """Total self seconds per layer.

    ``wall``: span duration minus the union of its children's intervals
    (children may run in parallel on pool threads).  ``cpu``: thread CPU
    of the span minus that of its children on the same thread (the clock
    for a process whose threads share a GIL).
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for sp in spans:
        if sp[PARENT]:
            children[sp[PARENT]].append(sp)
    totals: Dict[str, float] = defaultdict(float)
    for sp in spans:
        kids = children.get(sp[SID], ())
        if clock == "cpu":
            own = sp[C1] - sp[C0]
            # A child on another thread has CPU stamps from another
            # clock; only same-thread children nest inside [C0, C1].
            covered = sum(
                k[C1] - k[C0] for k in kids if sp[C0] <= k[C0] and k[C1] <= sp[C1]
            )
        else:
            own = sp[T1] - sp[T0]
            covered = _union_length([(k[T0], k[T1]) for k in kids])
        totals[sp[LAYER]] += max(own - covered, 0.0)
    return dict(totals)


def roots(spans: List[tuple]) -> List[tuple]:
    """Top-level execution spans (one per batch/flush), in start order."""
    return sorted(
        (sp for sp in spans if not sp[PARENT] and not sp[LAYER].startswith("hint.")),
        key=lambda sp: sp[T0],
    )


def durations(spans: List[tuple], layer: str, tag: Optional[str] = None) -> np.ndarray:
    return np.asarray(
        [sp[T1] - sp[T0] for sp in spans
         if sp[LAYER] == layer and (tag is None or sp[TAG] == tag)]
    )


def plan_shares(plans: List[str]) -> Dict[str, float]:
    """How one-sided the planner's choices were (nothing without a planner)."""
    if not plans:
        return {}
    modal = max(set(plans), key=plans.count)
    return {
        "planner.modal_plan_share": plans.count(modal) / len(plans),
        "planner.split_share": sum(p.startswith("split:") for p in plans) / len(plans),
    }


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
