"""The micro-batching query service.

:class:`BatchingQueryService` turns the paper's batch strategies into a
serving layer: many callers submit single ``(st, end)`` G-OVERLAPS
queries, the service coalesces them into a
:class:`~repro.intervals.QueryBatch`, and a background flusher executes
each batch with a strategy from
:data:`~repro.core.strategies.STRATEGIES`, through the installed
backend's own ``execute()`` when it has one (an engine, a planner, a
cache, a sharded index — how the batch runs is theirs to decide) and
:func:`~repro.core.strategies.run_strategy` otherwise.  Each caller
receives a
:class:`concurrent.futures.Future` resolved with its own result.

Admission follows the paper's footnote 5 — a batch is closed by
whichever fires first:

* **size** — ``max_batch`` queries are staged;
* **deadline** — the oldest staged query has waited ``max_delay_ms``.

The staging queue is bounded (``max_queue``); when it is full the
configured backpressure policy either **blocks** the submitting thread
until the flusher catches up or **rejects** the query with
:class:`QueueFullError` — the two standard answers of an admission
queue under overload.

The index is read through a single attribute reference that the flusher
snapshots once per flush, so :meth:`BatchingQueryService.swap_index` can
atomically install a freshly built index (e.g. after a
:class:`~repro.hint.dynamic.DynamicHint` rebuild) without ever blocking
query execution.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, List, Optional

import repro.obs as obs
from repro.analysis.service_stats import ServiceMetrics
from repro.core.result import MODES
from repro.core.strategies import STRATEGIES, run_strategy
from repro.intervals.batch import QueryBatch
from repro.verify.faults import (
    SITE_FLUSH,
    SITE_STRATEGY,
    SITE_SWAP,
    FaultPlan,
)

__all__ = [
    "BatchingQueryService",
    "DeadlineExceededError",
    "QueueFullError",
    "ServiceClosedError",
    "BACKPRESSURE_POLICIES",
]

#: Admission policies for a full staging queue.
BACKPRESSURE_POLICIES = ("block", "reject")

#: Most sampled trace ids one flush propagates onto its spans.
_TRACE_SCOPE_CAP = 64


class ServiceClosedError(RuntimeError):
    """Submitted to (or pending in) a service that has shut down."""


class QueueFullError(RuntimeError):
    """Rejected because the staging queue is full (``backpressure="reject"``)."""


class DeadlineExceededError(RuntimeError):
    """The query's client deadline expired before it was executed.

    Raised into the caller's future when a query submitted with a
    ``deadline`` is still staged when that deadline passes: the flusher
    drops it at batch-formation time instead of spending index work on
    an answer nobody is waiting for (deadline propagation).  Also raised
    synchronously by :meth:`BatchingQueryService.submit` when the
    deadline is already in the past at admission time.
    """


def _fail_future(future: Future, exc: BaseException) -> bool:
    """Resolve *future* with *exc* iff it is still unresolved.

    The exactly-once helper of every error path that may race another
    resolver (drain-timeout abandonment vs. the in-flight flush): a
    future that is already done (or was cancelled by its caller) is left
    untouched.  Returns whether this call resolved it.
    """
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


class _Pending:
    """One staged query and the future its caller holds."""

    __slots__ = (
        "st", "end", "enqueued_at", "deadline", "deferred", "future", "trace"
    )

    def __init__(
        self,
        st: int,
        end: int,
        enqueued_at: float,
        deadline: Optional[float] = None,
        trace=None,
    ):
        self.st = st
        self.end = end
        self.enqueued_at = enqueued_at
        #: Absolute deadline on the service clock (None = no deadline).
        self.deadline = deadline
        #: Flushes this query has been passed over by a flush policy.
        self.deferred = 0
        #: Optional TraceContext from the submitting layer.
        self.trace = trace
        self.future: Future = Future()


class BatchingQueryService:
    """Coalesce single-query traffic into batches and execute them.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex` (queries are clipped into
        its domain, exactly as for the strategies).
    strategy:
        Name from :data:`~repro.core.strategies.STRATEGIES` used for
        every flush.
    mode:
        Result mode; each future resolves to the per-query view —
        ``"count"``: an ``int``; ``"ids"``: an id array; ``"checksum"``:
        a ``(count, checksum)`` pair.
    max_batch:
        Flush as soon as this many queries are staged.
    max_delay_ms:
        Flush when the oldest staged query has waited this long
        (milliseconds) — the latency bound of the admission policy.
    max_queue:
        Bound on staged queries; at most ``max_queue`` queries wait
        while a flush is in flight.
    backpressure:
        ``"block"`` (submitters wait for room) or ``"reject"``
        (:class:`QueueFullError` is raised immediately).
    metrics:
        Optional externally owned :class:`ServiceMetrics` (a fresh one
        is created by default and exposed as :attr:`metrics`).
    clock:
        Monotonic time source; injectable for tests.
    flush_policy:
        Optional flush selector (e.g.
        :class:`~repro.cache.AffinityFlushPolicy`).  When set, each
        flush calls ``flush_policy.select(pending, max_batch)`` with the
        service lock held; the returned indices are staged and every
        passed-over query's ``deferred`` counter is incremented (the
        input the policy's starvation bound works from).  Selections are
        validated — duplicate/out-of-range indices or a policy exception
        fall back to plain FIFO, so a misbehaving policy can reorder
        work but never lose or duplicate a future.  ``None`` (the
        default) drains FIFO.
    fault_plan:
        Optional :class:`repro.verify.faults.FaultPlan`.  When set, the
        flusher fires the :data:`~repro.verify.faults.SITE_FLUSH` site
        at the start of every flush and the
        :data:`~repro.verify.faults.SITE_STRATEGY` site right before
        strategy execution, and :meth:`swap_index` fires
        :data:`~repro.verify.faults.SITE_SWAP` — injected exceptions
        follow the normal error path (every staged future is resolved
        with the exception, the flush counts as failed).  ``None`` (the
        default) costs nothing.

    Examples
    --------
    >>> from repro import BatchingQueryService, HintIndex, IntervalCollection
    >>> index = HintIndex(IntervalCollection.from_pairs([(2, 5), (4, 9)]), m=4)
    >>> with BatchingQueryService(index, max_batch=2, max_delay_ms=50) as svc:
    ...     futures = [svc.submit(0, 3), svc.submit(8, 12)]
    ...     [f.result(timeout=5) for f in futures]
    [1, 1]
    """

    def __init__(
        self,
        index,
        *,
        strategy: str = "partition-based",
        mode: str = "count",
        max_batch: int = 256,
        max_delay_ms: float = 5.0,
        max_queue: int = 8192,
        backpressure: str = "block",
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        flush_policy=None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if flush_policy is not None and not callable(
            getattr(flush_policy, "select", None)
        ):
            raise TypeError("flush_policy must expose select(pending, max_batch)")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
            )
        if mode not in MODES:
            raise ValueError(f"unknown result mode {mode!r}; expected one of {MODES}")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_delay_ms <= 0:
            raise ValueError("max_delay_ms must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self._index = index
        self.strategy = strategy
        self.mode = mode
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self.max_queue = int(max_queue)
        self.backpressure = backpressure
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._clock = clock
        self.flush_policy = flush_policy
        self._fault_plan = fault_plan

        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_room = threading.Condition(self._lock)
        self._pending: List[_Pending] = []
        self._in_flight: List[_Pending] = []
        self._force_flush = False
        self._closing = False
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run, name="repro-batch-flusher", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        q_st: int,
        q_end: int,
        *,
        deadline: Optional[float] = None,
        trace=None,
    ) -> Future:
        """Stage one query; the returned future resolves after its flush.

        Applies the configured backpressure policy when the staging
        queue is full, and raises :class:`ServiceClosedError` once
        :meth:`close` has begun.

        *deadline* is an absolute instant on the service clock (the
        ``clock`` constructor argument — ``time.monotonic`` by default).
        A staged query whose deadline has passed when its flush forms a
        batch is **dropped instead of executed**: its future fails with
        :class:`DeadlineExceededError` and no index work is spent on it
        (deadline propagation — the contract the network front end in
        :mod:`repro.net` relies on).  A deadline already in the past at
        submit time raises :class:`DeadlineExceededError` synchronously.

        *trace* is an optional :class:`~repro.obs.tracecontext.
        TraceContext`; the sampled traces of a batch scope the flush
        (every span the flush records carries their trace ids), which is
        how one wire request stays attributable through batching.
        """
        if q_st > q_end:
            raise ValueError("query must have st <= end")
        now = self._clock()
        if deadline is not None and now >= deadline:
            self.metrics.record_deadline_dropped()
            raise DeadlineExceededError(
                "client deadline expired before admission"
            )
        with self._lock:
            if self._closing:
                raise ServiceClosedError("service is shut down")
            while len(self._pending) >= self.max_queue:
                if self.backpressure == "reject":
                    self.metrics.record_rejected()
                    raise QueueFullError(
                        f"staging queue is full ({self.max_queue} queries)"
                    )
                self._has_room.wait()
                if self._closing:
                    raise ServiceClosedError("service is shut down")
                now = self._clock()  # the wait is not formation delay
            item = _Pending(int(q_st), int(q_end), now, deadline, trace)
            self._pending.append(item)
            self.metrics.record_submitted(len(self._pending))
            self._has_work.notify()
            return item.future

    def flush(self) -> None:
        """Ask the flusher to execute whatever is staged right now."""
        with self._lock:
            if self._pending:
                self._force_flush = True
                self._has_work.notify()

    @property
    def queue_depth(self) -> int:
        """Number of currently staged (not yet flushed) queries."""
        with self._lock:
            return len(self._pending)

    @property
    def index(self):
        """The currently installed index."""
        return self._index

    def swap_index(self, new_index, *, close_old: bool = False):
        """Atomically install *new_index*; returns the replaced index.

        The flusher snapshots the index reference once per flush, so a
        swap never blocks (or is blocked by) query execution — the
        standard pattern for installing a
        :class:`~repro.hint.dynamic.DynamicHint` rebuild, or any index
        rebuilt offline, under live traffic.  In-flight flushes finish
        on the index they started with.

        With ``close_old=True`` the replaced backend's ``close()`` is
        called (when it has one) after the swap and the result is still
        returned.  For an installed
        :class:`~repro.engine.ExecutionEngine` this is the resource
        contract: its ``close()`` waits for the in-flight flush to
        drain, then shuts its pools down and unlinks its shared-memory
        arena — swapping an engine out can never leak a segment.
        """
        ob = obs.active()
        if ob is None:
            return self._swap_inner(new_index, close_old)
        with ob.span("service.swap_index"):
            return self._swap_inner(new_index, close_old)

    def _swap_inner(self, new_index, close_old: bool = False):
        if self._fault_plan is not None:
            # Fires before the swap: an injected failure leaves the old
            # index installed and the swap counter untouched.
            self._fault_plan.fire(SITE_SWAP)
        old, self._index = self._index, new_index
        self.metrics.record_swap()
        if close_old:
            close = getattr(old, "close", None)
            if close is not None:
                close()
        return old

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down; with *drain* (default) all staged work still runs.

        With ``drain=False`` staged queries fail with
        :class:`ServiceClosedError` instead of executing.  Idempotent;
        blocks until the flusher exits (or *timeout* elapses).

        When *timeout* expires mid-drain, the drain is **abandoned**:
        every outstanding future — staged *and* in the flush currently
        running — fails immediately with :class:`ServiceClosedError`,
        exactly once (when the in-flight flush later completes, its
        result for an already-failed future is discarded by the
        ``InvalidStateError`` guard).  No caller is ever left holding an
        unresolved future after ``close`` returns; the network front
        end's shutdown path depends on this bound.
        """
        with self._lock:
            if not self._closing:
                self._closing = True
                if not drain:
                    abandoned = self._pending[:]
                    self._pending.clear()
                    for item in abandoned:
                        _fail_future(
                            item.future,
                            ServiceClosedError(
                                "service shut down before execution"
                            ),
                        )
                self._has_work.notify_all()
                self._has_room.notify_all()
        self._flusher.join(timeout)
        if self._flusher.is_alive():
            # Drain timed out.  Fail everything still outstanding: the
            # staged queue, and the batch the in-flight flush is holding
            # (its eventual result hits already-resolved futures and is
            # discarded — _fail_future / the InvalidStateError guard make
            # both orders exactly-once).  The flusher finishes its flush
            # on its own and then exits on the empty queue.
            with self._lock:
                abandoned = self._in_flight + self._pending
                self._in_flight = []
                self._pending.clear()
                self._has_work.notify_all()
                self._has_room.notify_all()
            for item in abandoned:
                _fail_future(
                    item.future,
                    ServiceClosedError("drain timed out; query abandoned"),
                )
        self._closed = True

    def __enter__(self) -> "BatchingQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # flusher side
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        while True:
            with self._lock:
                reason = self._wait_for_batch()
                if reason is None:
                    return
                staged = self._select_staged()
                depth = len(self._pending)
                self._force_flush = False
                self._in_flight = staged
                self._has_room.notify_all()
            self._execute(staged, reason, depth)
            with self._lock:
                self._in_flight = []

    def _select_staged(self) -> List[_Pending]:
        """Pick and remove this flush's batch from the pending queue.

        Holds the lock (called from :meth:`_run`).  Without a policy:
        plain FIFO.  With one: the policy's selection is validated and
        applied; passed-over queries get ``deferred += 1``; any invalid
        selection or policy exception degrades to FIFO.
        """
        if self.flush_policy is None:
            staged = self._pending[: self.max_batch]
            del self._pending[: len(staged)]
            return staged
        n = len(self._pending)
        cap = min(n, self.max_batch)
        try:
            idxs = list(self.flush_policy.select(self._pending, self.max_batch))
            if len(idxs) > cap or len(set(idxs)) != len(idxs):
                raise ValueError("invalid flush selection")
            idxs = [int(i) for i in idxs]
            if any(i < 0 or i >= n for i in idxs):
                raise ValueError("flush selection index out of range")
            if not idxs:
                raise ValueError("empty flush selection")
        except Exception:
            idxs = list(range(cap))  # FIFO fallback
        chosen = set(idxs)
        staged = [self._pending[i] for i in idxs]
        rest = [p for i, p in enumerate(self._pending) if i not in chosen]
        for item in rest:
            item.deferred += 1
        self._pending[:] = rest
        return staged

    def _wait_for_batch(self) -> Optional[str]:
        """Hold the lock until a batch is due; returns the flush trigger
        (``None`` means the service is fully drained and closing)."""
        while True:
            if self._pending:
                if len(self._pending) >= self.max_batch:
                    return "size"
                if self._closing:
                    return "drain"
                if self._force_flush:
                    return "forced"
                now = self._clock()
                deadline = self._pending[0].enqueued_at + self.max_delay
                if now >= deadline:
                    return "deadline"
                self._has_work.wait(timeout=deadline - now)
            else:
                if self._closing:
                    return None
                self._has_work.wait()

    def _execute(self, staged: List[_Pending], reason: str, depth: int) -> None:
        ob = obs.active()
        if ob is None:
            return self._execute_inner(staged, reason, depth, None)
        # Scope the flush with the sampled trace ids of the batch: every
        # span recorded below (flush, engine, strategy, cache) carries
        # them, which is what stitches one wire request to the batch
        # that answered it.  Bounded so a huge batch of traced requests
        # cannot bloat each span.
        trace_ids: List[int] = []
        for q in staged:
            if q.trace is not None and q.trace.sampled:
                trace_ids.append(q.trace.trace_id)
                if len(trace_ids) >= _TRACE_SCOPE_CAP:
                    break
        with ob.recorder.trace_scope(trace_ids):
            with ob.span(
                "service.flush", reason=reason, batch_size=len(staged)
            ) as sp:
                if trace_ids:
                    sp.attrs["traces"] = len(trace_ids)
                return self._execute_inner(staged, reason, depth, sp)

    def _execute_inner(
        self, staged: List[_Pending], reason: str, depth: int, sp
    ) -> None:
        t0 = self._clock()
        # Deadline propagation: queries whose client deadline already
        # passed are dropped at batch-formation time — their callers
        # fail with DeadlineExceededError and the strategy never sees
        # them.  The drop happens before the fault sites so an injected
        # flush failure cannot double-resolve a dropped future.
        expired: List[_Pending] = []
        if any(q.deadline is not None for q in staged):
            live: List[_Pending] = []
            for q in staged:
                if q.deadline is not None and t0 >= q.deadline:
                    expired.append(q)
                else:
                    live.append(q)
            staged = live
        if expired:
            for item in expired:
                _fail_future(
                    item.future,
                    DeadlineExceededError(
                        "client deadline expired while staged"
                    ),
                )
            self.metrics.record_deadline_dropped(len(expired))
            if sp is not None:
                sp.attrs["deadline_dropped"] = len(expired)
            if not staged:
                return
        try:
            # The whole flush body sits inside the try: whatever dies —
            # batch formation, an injected fault, the strategy itself —
            # every staged future is resolved with the exception, so no
            # caller is ever left hanging.
            if self._fault_plan is not None:
                self._fault_plan.fire(SITE_FLUSH)
            index = self._index  # one atomic snapshot per flush
            batch = QueryBatch([q.st for q in staged], [q.end for q in staged])
            if self._fault_plan is not None:
                self._fault_plan.fire(SITE_STRATEGY)
            execute = getattr(index, "execute", None)
            if execute is not None:
                # Self-executing backend (engine, planner, cache,
                # sharded index): how the batch runs is its decision,
                # so swap_index can install one with zero call-site
                # changes.
                result = execute(batch, strategy=self.strategy, mode=self.mode)
            else:
                result = run_strategy(self.strategy, index, batch, mode=self.mode)
        except BaseException as exc:  # route failures to the callers
            if sp is not None:
                sp.attrs["error"] = type(exc).__name__
            self.metrics.record_flush(
                reason,
                len(staged),
                self._clock() - t0,
                failed=True,
                queue_depth=depth,
            )
            for item in staged:
                _fail_future(item.future, exc)
            return
        latency = self._clock() - t0
        for pos, item in enumerate(staged):
            try:
                item.future.set_result(self._extract(result, pos))
            except InvalidStateError:
                # The caller cancelled (e.g. a disconnected network
                # client); the result is simply discarded.
                pass
        self.metrics.record_flush(reason, len(staged), latency, queue_depth=depth)

    def _extract(self, result, pos: int):
        """Per-query view of a batch result, shaped by the service mode."""
        if self.mode == "count":
            return int(result.counts[pos])
        if self.mode == "checksum":
            return (int(result.counts[pos]), result.query_checksum(pos))
        return result.ids(pos)

    def __repr__(self) -> str:
        state = "closed" if self._closing else "open"
        return (
            f"BatchingQueryService(strategy={self.strategy!r}, "
            f"mode={self.mode!r}, max_batch={self.max_batch}, "
            f"max_delay_ms={self.max_delay * 1000:g}, {state})"
        )
