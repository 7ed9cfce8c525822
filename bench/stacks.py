"""Compose each workload's stack by feature detection.

The benchmark depends on a narrow surface only: something with
``execute(batch, strategy=, mode=)`` returning ``.counts`` / ``.ids(i)``,
and the ``repro.net`` server/codec for the served workload.  Every wrapper
(cache, planner, engine, shards) is looked up at run time and skipped when
a later PR has removed it, so that PR runs this benchmark unedited and the
removed layer's metrics read ABSENT.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from bench.workloads import SERVE_MAX_BATCH, SERVE_MAX_DELAY_MS, Workload

STRATEGY = "partition-based"
#: The planner's default 0.12 s probe budget runs out after one or two ids
#: plans; which ones then depends on timing, and a run whose model only
#: knows the serial plan stays on it (5x slower on batch-ids-long).  With
#: this budget every plan is probed on every run.
CALIBRATION_BUDGET_S = 2.0


def optional(module: str, name: str):
    """``module.name`` or None when either is gone."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def construct(factory: Callable, *args, **kwargs):
    """Call *factory* with only the keyword options its signature still names."""
    params = inspect.signature(factory).parameters
    return factory(*args, **{k: v for k, v in kwargs.items() if k in params})


@dataclass
class Stack:
    top: object  # exposes execute(batch, strategy=, mode=)
    layers: Dict[str, object] = field(default_factory=dict)
    setup: Dict[str, float] = field(default_factory=dict)  # layer set-up seconds

    def execute(self, batch, mode: str):
        return self.top.execute(batch, strategy=STRATEGY, mode=mode)

    def close(self) -> None:
        for name in ("cache", "planner", "engine", "shard"):
            close = getattr(self.layers.get(name), "close", None)
            if close is not None:
                close()


class _Executable:
    """``execute()`` over an index that has none of its own."""

    def __init__(self, index):
        self._index = index

    def execute(self, batch, *, strategy: str = STRATEGY, mode: str = "count"):
        if hasattr(self._index, "levels"):
            from repro.core.strategies import run_strategy

            return run_strategy(strategy, self._index, batch, mode=mode)
        from repro.core.result import BatchResult

        arrays = [np.asarray(self._index.query(s, e), dtype=np.int64) for s, e in batch]
        return BatchResult.from_id_arrays(arrays, mode)


def build_repeatedly(build: Callable, count: int):
    """Call *build* *count* times, closing every result but the last; returns
    ``(the last, [seconds each took])``.  setup_s is read off those."""
    seconds: List[float] = []
    built = None
    for _ in range(count):
        if built is not None:
            built.close()
            built = None
            gc.collect()
        t0 = perf_counter()
        built = build()
        seconds.append(perf_counter() - t0)
    return built, seconds


def _timed(setup: Dict[str, float], key: str, factory: Callable, *args, **kwargs):
    t0 = perf_counter()
    built = construct(factory, *args, **kwargs)
    setup[key] = setup.get(key, 0.0) + perf_counter() - t0
    return built


def _walk(top, type_name: str, depth: int = 6):
    """The first object of class *type_name* on the wrapper chain under *top*."""
    seen = top
    for _ in range(depth):
        if seen is None or type(seen).__name__ == type_name:
            return seen
        for attr in ("backend", "_backend", "engine", "_engine", "index", "_index"):
            inner = getattr(seen, attr, None)  # ExecutionEngine.backend is a name
            if inner is not None and not isinstance(inner, str):
                seen = inner
                break
        else:
            return None
    return None


def compose(w: Workload, collection) -> Stack:
    """cache -> planner -> engine -> (ShardedHint | HintIndex), or
    cache -> DynamicHint; each wrapper only if it still exists."""
    import repro

    build_stack = getattr(repro, "build_stack", None)
    if build_stack is not None:
        # One composition root beats four constructors, if repro grows one
        # that takes these options; otherwise compose by hand below.
        try:
            top = build_stack(
                collection, m=w.m, mode=w.mode, shards=w.shards,
                dynamic=w.dynamic, cache_bytes=w.cache_bytes,
            )
        except TypeError:
            top = None
        if top is not None and hasattr(top, "execute"):
            names = {"cache": "CachingExecutor", "planner": "PlannedExecutor",
                     "engine": "ExecutionEngine", "shard": "ShardedHint",
                     "hint": "DynamicHint" if w.dynamic else "HintIndex"}
            found = {k: _walk(top, v) for k, v in names.items()}
            return Stack(top, {k: v for k, v in found.items() if v is not None})

    stack = Stack(top=None)
    layers, setup = stack.layers, stack.setup

    if w.dynamic:
        index = _timed(
            setup, "hint.build_s", repro.DynamicHint, collection, m=w.m,
            rebuild_threshold=w.rebuild_threshold,
        )
        layers["hint"] = index
    else:
        sharded = optional("repro.shard", "ShardedHint") if w.shards else None
        if sharded is not None:
            index = _timed(setup, "hint.build_s", sharded, collection, k=w.shards, m=w.m)
            layers["shard"] = index
        else:
            index = _timed(setup, "hint.build_s", repro.HintIndex, collection, m=w.m)
        layers["hint"] = index
    top = index

    if not w.dynamic:
        engine_cls = optional("repro.engine", "ExecutionEngine")
        planner_cls = optional("repro.planner", "PlannedExecutor")
        if engine_cls is not None:
            # The engine sits under the planner, which pins the backend per
            # batch; alone it runs its static policy, never the exploring
            # `auto` ledger, so no run is bimodal by construction.
            top = layers["engine"] = _timed(
                setup, "engine.setup_s", engine_cls, top, backend="auto-static"
            )
        if planner_cls is not None:
            # model_path=None: calibrate afresh and write nothing outside bench/.
            top = layers["planner"] = _timed(
                setup, "planner.calibrate_s", planner_cls, index,
                engine=layers.get("engine"), calibrate=True,
                reuse_calibration=False, model_path=None,
                calibration_modes=(w.mode,),
                calibration_budget_s=CALIBRATION_BUDGET_S,
            )

    cache_cls = optional("repro.cache", "CachingExecutor")
    if cache_cls is not None:
        top = layers["cache"] = construct(cache_cls, top, max_bytes=w.cache_bytes)
    if not hasattr(top, "execute"):
        top = _Executable(top)
    stack.top = top
    return stack


@dataclass
class Served:
    stack: Stack
    service: object
    handle: object  # the server running on its own event-loop thread
    flusher_threads: List[str]  # names of the threads the service started
    loop_threads: List[str]  # names of the threads the server started

    @property
    def port(self) -> int:
        return self.handle.port

    def close(self) -> None:
        self.handle.close()
        self.service.close()
        self.stack.close()


def serve(stack: Stack, w: Workload) -> Served:
    """socket -> QueryServer (admission on, non-binding) -> batching service
    -> *stack*; closing the result closes all of it."""
    from repro.net import QueryServer, serve_in_thread
    from repro.service import BatchingQueryService

    def thread_names():
        return {t.name for t in threading.enumerate()}

    before = thread_names()
    service = construct(
        BatchingQueryService, stack.top, strategy=STRATEGY, mode=w.mode,
        max_batch=SERVE_MAX_BATCH, max_delay_ms=SERVE_MAX_DELAY_MS,
    )
    with_service = thread_names()
    options = {"max_inflight": 1024}
    admission = optional("repro.net", "TenantAdmission")
    if admission is not None:
        options["admission"] = admission(rate=1e9, burst=1e9)
    known = inspect.signature(QueryServer).parameters
    handle = serve_in_thread(
        service, **{k: v for k, v in options.items() if k in known}
    )
    return Served(
        stack, service, handle,
        flusher_threads=sorted(with_service - before),
        loop_threads=sorted(thread_names() - with_service),
    )
