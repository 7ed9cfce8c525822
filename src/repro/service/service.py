"""The micro-batching query service.

:class:`BatchingQueryService` turns the paper's batch strategies into a
serving layer: many callers submit single ``(st, end)`` G-OVERLAPS
queries, the service coalesces them into a
:class:`~repro.intervals.QueryBatch`, and a background flusher executes
each batch with a strategy from
:data:`~repro.core.strategies.STRATEGIES`, through the installed
backend's own ``execute()`` when it has one (an engine, a planner, a
cache, a sharded index — how the batch runs is theirs to decide) and
:func:`~repro.core.strategies.run_strategy` otherwise.  A caller with
one query (:meth:`~BatchingQueryService.submit`) receives a
:class:`concurrent.futures.Future` resolved with its own result; a
caller that already holds a column of queries
(:meth:`~BatchingQueryService.submit_many`, the network front end's read
loop) is called back once per flush with the positions that flush
answered and their slice of the batch result.  Both stage into the same
columnar queue: a query is a row of one structured array from admission
to its flush, never an object of its own.

Admission follows the paper's footnote 5 — a batch is closed on size or
on waiting time — but the arrivals, not a fixed timer, decide whether
waiting can pay.  When the flusher is free, the staged batch goes out on
whichever holds first:

* **size** — ``max_batch`` queries are staged;
* **deadline** — the oldest staged query has waited ``max_delay_ms``;
* **idle** — the executor is idle: at the measured arrival rate the
  batch would not reach ``max_batch`` before that deadline anyway, and
  the last flush took less than one arrival gap, so a flush now is over
  before the next query is due.  Waiting would only add latency.

The rate is the smaller of two per-query arrival gaps: the gap inside
the last batch taken (its ``enqueued_at`` span over ``size - 1``; a batch
of one raises it to at least the time that query waited alone) and the
gap before the latest submission (time since the previous one over its
rows; the service's construction counts as an arrival).  A service with
no batch behind it yet assumes the batch can fill.  Closed-loop traffic
that fills batches keeps both gaps small, and traffic fast enough to
keep the flusher busy fails the flush-cost test, so both still batch up
to ``max_batch`` or ``max_delay_ms``; at low load ``max_delay_ms`` no
longer sets the latency.

The staging queue is bounded (``max_queue``); when it is full the
configured backpressure policy either **blocks** the submitting thread
until the flusher catches up or **rejects** the query with
:class:`QueueFullError` — the two standard answers of an admission
queue under overload.

The index is read through a single attribute reference that the flusher
snapshots once per flush, so :meth:`BatchingQueryService.swap_index` can
atomically install a freshly built index (e.g. one built from a
:class:`~repro.hint.dynamic.DynamicHint` snapshot) without ever blocking
query execution.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional

import numpy as np

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


#: One staged query.  ``owner`` is the number of the submitting call and
#: ``pos`` the query's position in it; ``deadline`` is absolute on the
#: service clock (``inf`` = none); ``deferred`` counts the flushes a flush
#: policy has passed the query over.
_ROW = np.dtype([
    ("st", "i8"), ("end", "i8"), ("enqueued_at", "f8"), ("deadline", "f8"),
    ("deferred", "i8"), ("owner", "i8"), ("pos", "i8"),
])


class _Call:
    """One submitting call: whom to tell, and what it has been told."""

    __slots__ = ("on_done", "traces", "resolved", "open")

    def __init__(self, on_done, n: int, traces):
        self.on_done = on_done
        #: Optional per-position TraceContexts from the submitting layer.
        self.traces = traces
        #: Positions already reported.  Every resolver marks under the
        #: service lock before it reports, which is what makes racing
        #: resolvers (drain-timeout abandonment vs. the in-flight flush)
        #: exactly-once.
        self.resolved = np.zeros(n, dtype=bool)
        self.open = n  #: positions admitted and not reported yet


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
        Result mode; each :meth:`submit` future resolves to the
        per-query view — ``"count"``: an ``int``; ``"ids"``: an id
        array; ``"checksum"``: a ``(count, checksum)`` pair.
    max_batch:
        Flush as soon as this many queries are staged.
    max_delay_ms:
        Flush when the oldest staged query has waited this long
        (milliseconds) — the latency bound of the admission policy.  A
        batch the arrival rate cannot fill by then goes out at once
        while the executor is idle (the ``idle`` flush, see above).
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
        service lock held (*pending*: a record-array view of the staged
        rows, so ``pending[i].st`` / ``.end`` / ``.deferred`` read one
        query); the returned indices are staged and every passed-over
        query's ``deferred`` counter is incremented (the input the
        policy's starvation bound works from).  Selections are
        validated — duplicate/out-of-range indices or a policy exception
        fall back to plain FIFO, so a misbehaving policy can reorder
        work but never lose or duplicate a query.  ``None`` (the
        default) drains FIFO.
    fault_plan:
        Optional :class:`repro.verify.faults.FaultPlan`.  When set, the
        flusher fires the :data:`~repro.verify.faults.SITE_FLUSH` site
        at the start of every flush and the
        :data:`~repro.verify.faults.SITE_STRATEGY` site right before
        strategy execution, and :meth:`swap_index` fires
        :data:`~repro.verify.faults.SITE_SWAP` — injected exceptions
        follow the normal error path (every staged query is resolved
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
        #: The staging queue: rows ``[:_n]`` of ``_rows``, oldest first.
        self._rows = np.empty(min(self.max_queue, 1024), dtype=_ROW)
        self._n = 0
        #: The rows the flush now running took (drain-timeout abandonment).
        self._in_flight = self._rows[:0]
        #: Calls with positions not reported yet, by their number.
        self._calls: Dict[int, _Call] = {}
        self._last_call = 0
        #: What the idle rule reads (seconds): the per-query arrival gap
        #: inside the last batch taken (0 = none taken yet, assume it can
        #: fill) and before the latest submission (since
        #: ``_last_arrival``), and how long the last flush executed.
        self._batch_gap = 0.0
        self._submit_gap = 0.0
        self._last_arrival = clock()
        self._flush_cost = 0.0
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
        """Stage one query; the returned future resolves after its flush
        with the per-query view of the result (see *mode*).

        A one-row :meth:`submit_many` — the same staging queue, the same
        backpressure, *deadline* and *trace* as there — except that a
        refusal at admission is raised, not reported:
        :class:`QueueFullError` under ``"reject"``,
        :class:`DeadlineExceededError` for a deadline already in the
        past, :class:`ServiceClosedError` once :meth:`close` has begun.
        """
        future: Future = Future()

        def on_done(_positions, outcome) -> None:
            try:
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(self._extract(outcome, 0))
            except InvalidStateError:
                pass  # the caller cancelled; the outcome is discarded

        if self.submit_many(
            [q_st],
            [q_end],
            None if deadline is None else [deadline],
            None if trace is None else [trace],
            on_done=on_done,
        ):
            raise future.exception()
        return future

    def submit_many(
        self, st, end, deadlines=None, traces=None, *, on_done: Callable
    ) -> int:
        """Stage a column of queries; *on_done* learns their fate.

        ``on_done(positions, outcome)`` is called once per flush that
        answers some of the call's queries: *positions* are their indices
        into *st* / *end* and *outcome* is either the
        :class:`~repro.core.result.BatchResult` whose query ``k`` answers
        ``positions[k]``, or the exception those queries failed with.
        Every position is reported exactly once, whatever races.  The
        callback runs on the thread that resolved the queries (the
        flusher, as a rule) and must not block.

        The lock, the metrics and the backpressure decision are taken
        once per call: when the queue is full, ``"block"`` stages what
        fits and waits for room for the rest, ``"reject"`` refuses the
        rest with :class:`QueueFullError`.  Positions refused at
        admission are reported before the call returns, and it returns
        how many they were.  Raises :class:`ServiceClosedError` once
        :meth:`close` has begun and ``ValueError`` when some
        ``st > end``; nothing is staged then.

        *deadlines* are absolute instants on the service clock (the
        ``clock`` constructor argument; ``inf`` = none), one per query.
        A query whose deadline has passed when its flush forms a batch is
        **dropped instead of executed**: it fails with
        :class:`DeadlineExceededError` and no index work is spent on it
        (deadline propagation — the contract the network front end in
        :mod:`repro.net` relies on); one already past at admission is
        refused with the same error.  *traces* are optional
        :class:`~repro.obs.tracecontext.TraceContext` objects (or
        ``None``), one per query; the sampled traces of a batch scope the
        flush (every span it records carries their trace ids), which is
        how one wire request stays attributable through batching.
        """
        st, end = np.asarray(st, dtype=np.int64), np.asarray(end, dtype=np.int64)
        if (st > end).any():
            raise ValueError("query must have st <= end")
        call = _Call(on_done, len(st), traces)
        pos = np.arange(len(st))
        refused = []
        now = self._clock()
        if deadlines is not None:
            deadlines = np.asarray(deadlines, dtype=np.float64)
            late = now >= deadlines
            if late.any():
                self.metrics.record_deadline_dropped(int(late.sum()))
                refused.append((pos[late], DeadlineExceededError(
                    "client deadline expired before admission"
                )))
                pos = pos[~late]
                st, end, deadlines = st[pos], end[pos], deadlines[pos]
        with self._lock:
            if self._closing:
                raise ServiceClosedError("service is shut down")
            self._last_call = number = self._last_call + 1
            self._calls[number] = call
            if len(pos):
                gap = (now - self._last_arrival) / len(pos)
                self._submit_gap, self._last_arrival = max(gap, 0.0), now
            lo, exc = 0, None
            while lo < len(pos) and exc is None:
                hi = min(len(pos), lo + self.max_queue - self._n)
                if hi > lo:
                    if self._n + hi - lo > len(self._rows):  # <= max_queue
                        grown = np.empty(
                            max(2 * len(self._rows), self._n + hi - lo), _ROW
                        )
                        grown[: self._n] = self._rows[: self._n]
                        self._rows = grown
                    new = self._rows[self._n : self._n + hi - lo]
                    new["st"], new["end"] = st[lo:hi], end[lo:hi]
                    new["enqueued_at"] = now
                    new["deadline"] = (
                        np.inf if deadlines is None else deadlines[lo:hi]
                    )
                    new["deferred"], new["owner"] = 0, number
                    new["pos"] = pos[lo:hi]
                    self._n += hi - lo
                    self.metrics.record_submitted(self._n, hi - lo)
                    self._has_work.notify()
                    lo = hi
                elif self.backpressure == "reject":
                    self.metrics.record_rejected(len(pos) - lo)
                    exc = QueueFullError(
                        f"staging queue is full ({self.max_queue} queries)"
                    )
                else:
                    self._has_room.wait()
                    if self._closing:
                        exc = ServiceClosedError("service is shut down")
                    now = self._clock()  # the wait is not formation delay
            if exc is not None:
                refused.append((pos[lo:], exc))
            # Only staged positions stay open (a flush may have reported
            # some of them already, while this call waited for room).
            call.open -= len(call.resolved) - lo
            if not call.open:
                del self._calls[number]
        for positions, exc in refused:
            _tell(on_done, positions, exc)
        return len(call.resolved) - lo

    def flush(self) -> None:
        """Ask the flusher to execute whatever is staged right now."""
        with self._lock:
            if self._n:
                self._force_flush = True
                self._has_work.notify()

    @property
    def queue_depth(self) -> int:
        """Number of currently staged (not yet flushed) queries."""
        with self._lock:
            return self._n

    @property
    def index(self):
        """The currently installed index."""
        return self._index

    def swap_index(self, new_index, *, close_old: bool = False):
        """Atomically install *new_index*; returns the replaced index.

        The flusher snapshots the index reference once per flush, so a
        swap never blocks (or is blocked by) query execution — the
        standard pattern for installing an index built from a
        :class:`~repro.hint.dynamic.DynamicHint` snapshot, or any index
        rebuilt offline, under live traffic.  In-flight flushes finish
        on the index they started with.

        With ``close_old=True`` the replaced backend's ``close()`` is
        called (when it has one) after the swap and the result is still
        returned.  For an installed
        :class:`~repro.engine.ExecutionEngine` this is the resource
        contract: its ``close()`` waits for the in-flight flush to
        drain, then joins its pool threads — swapping an engine out can
        never leak a thread.
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
        every outstanding query — staged *and* in the flush currently
        running — fails immediately with :class:`ServiceClosedError`,
        exactly once (when the in-flight flush later completes, its
        outcome for positions already reported is discarded by their
        call's resolved mask).  No caller is ever left waiting on an
        unresolved query after ``close`` returns; the network front
        end's shutdown path depends on this bound.
        """
        abandoned = self._rows[:0]
        with self._lock:
            if not (self._closing or drain):
                abandoned, self._n = self._rows[: self._n].copy(), 0
            self._closing = True
            self._has_work.notify_all()
            self._has_room.notify_all()
        self._resolve(
            abandoned, ServiceClosedError("service shut down before execution")
        )
        self._flusher.join(timeout)
        if self._flusher.is_alive():
            # Drain timed out.  Fail everything still outstanding: the
            # staged queue, and the batch the in-flight flush is holding
            # (whichever of the two reports a position second finds it
            # marked resolved).  The flusher finishes its flush on its
            # own and then exits on the empty queue.
            with self._lock:
                abandoned = np.concatenate(
                    [self._in_flight, self._rows[: self._n]]
                )
                self._in_flight, self._n = self._rows[:0], 0
                self._has_room.notify_all()
            self._resolve(
                abandoned, ServiceClosedError("drain timed out; query abandoned")
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
                staged = self._in_flight = self._select_staged()
                at = staged["enqueued_at"]
                if len(at) > 1:
                    self._batch_gap = (at.max() - at.min()) / (len(at) - 1)
                else:  # nothing else arrived while it waited
                    self._batch_gap = max(self._batch_gap, self._clock() - at[0])
                depth = self._n
                self._force_flush = False
                self._has_room.notify_all()
            try:
                self._execute(staged, reason, depth)
            except Exception as exc:
                # Bookkeeping died outside the flush's own error path (a
                # metrics sink, the trace scope): answer whoever is still
                # unanswered and keep the flusher alive.
                logging.getLogger(__name__).exception(
                    "flush of %d queries failed outside execution", len(staged)
                )
                self._resolve(staged, exc)
            with self._lock:
                self._in_flight = self._rows[:0]

    def _select_staged(self) -> np.ndarray:
        """Pick and remove this flush's batch from the staging queue.

        Holds the lock (called from :meth:`_run`).  Without a policy:
        plain FIFO.  With one: the policy's selection is validated and
        applied; any invalid selection or policy exception degrades to
        FIFO.  Passed-over queries get ``deferred += 1`` and keep their
        order.
        """
        n = self._n
        pending = self._rows[:n]
        cap = min(n, self.max_batch)
        idxs = np.arange(cap)  # FIFO
        if self.flush_policy is not None:
            try:
                picked = [int(i) for i in self.flush_policy.select(
                    pending.view(np.recarray), self.max_batch
                )]
                if not 0 < len(picked) <= cap or len(set(picked)) != len(picked):
                    raise ValueError("invalid flush selection")
                if any(i < 0 or i >= n for i in picked):
                    raise ValueError("flush selection index out of range")
                idxs = picked
            except Exception:
                pass  # FIFO fallback
        passed_over = np.ones(n, dtype=bool)
        passed_over[idxs] = False
        staged = pending[idxs]
        rest = pending[passed_over]
        rest["deferred"] += 1
        self._n = len(rest)
        self._rows[: self._n] = rest
        return staged

    def _wait_for_batch(self) -> Optional[str]:
        """Hold the lock until a batch is due; returns the flush trigger
        (``None`` means the service is fully drained and closing)."""
        while True:
            if self._n:
                if self._n >= self.max_batch:
                    return "size"
                if self._closing:
                    return "drain"
                if self._force_flush:
                    return "forced"
                now = self._clock()
                deadline = self._rows["enqueued_at"][0] + self.max_delay
                if now >= deadline:
                    return "deadline"
                gap = min(self._batch_gap, self._submit_gap)
                if (
                    (self.max_batch - self._n) * gap > deadline - now
                    and self._flush_cost < gap
                ):
                    # The wait could not fill the batch, and a flush now
                    # is over before the next query is due.
                    return "idle"
                self._has_work.wait(timeout=deadline - now)
            else:
                if self._closing:
                    return None
                self._has_work.wait()

    def _execute(self, staged: np.ndarray, reason: str, depth: int) -> None:
        ob = obs.active()
        if ob is None:
            return self._execute_inner(staged, reason, depth, None)
        # Scope the flush with the sampled trace ids of the batch: every
        # span recorded below (flush, engine, strategy, cache) carries
        # them, which is what stitches one wire request to the batch
        # that answered it.  Bounded so a huge batch of traced requests
        # cannot bloat each span.
        rows = zip(staged["owner"].tolist(), staged["pos"].tolist())
        with self._lock:
            traced = [
                (self._calls[number].traces, pos)
                for number, pos in rows if number in self._calls
            ]
        trace_ids: List[int] = []
        for traces, pos in traced:
            trace = None if traces is None else traces[pos]
            if trace is not None and trace.sampled:
                trace_ids.append(trace.trace_id)
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
        self, staged: np.ndarray, reason: str, depth: int, sp
    ) -> None:
        t0 = self._clock()
        waited = t0 - float(staged["enqueued_at"].min())
        # Deadline propagation: queries whose client deadline already
        # passed are dropped at batch-formation time — their callers
        # fail with DeadlineExceededError and the strategy never sees
        # them.
        late = t0 >= staged["deadline"]
        if late.any():
            self._resolve(staged[late], DeadlineExceededError(
                "client deadline expired while staged"
            ))
            staged = staged[~late]
            self.metrics.record_deadline_dropped(int(late.sum()))
            if sp is not None:
                sp.attrs["deadline_dropped"] = int(late.sum())
            if not len(staged):
                return
        try:
            # The whole flush body sits inside the try: whatever dies —
            # batch formation, an injected fault, the strategy itself —
            # every staged query is resolved with the exception, so no
            # caller is ever left hanging.
            if self._fault_plan is not None:
                self._fault_plan.fire(SITE_FLUSH)
            index = self._index  # one atomic snapshot per flush
            batch = QueryBatch(staged["st"], staged["end"])
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
            result = exc
        latency = self._flush_cost = self._clock() - t0
        self._resolve(staged, result)
        self.metrics.record_flush(
            reason,
            len(staged),
            latency,
            failed=isinstance(result, BaseException),
            queue_depth=depth,
            formation_wait=waited,
        )

    def _resolve(self, rows: np.ndarray, outcome) -> None:
        """Report *outcome* — an exception, or the batch result whose
        query ``k`` answers ``rows[k]`` — to the call that owns each of
        *rows*, once per call, leaving out the positions somebody else
        has reported already."""
        if not len(rows):
            return
        owner = rows["owner"]
        by_owner = np.argsort(owner, kind="stable")
        pos = rows["pos"][by_owner]
        cuts = (np.flatnonzero(np.diff(owner[by_owner])) + 1).tolist()
        told = []
        with self._lock:
            for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
                number = int(owner[by_owner[lo]])
                call = self._calls.get(number)
                if call is None:
                    continue  # every position of it has been reported
                idx, mine = by_owner[lo:hi], pos[lo:hi]
                if call.resolved[mine].any():
                    fresh = ~call.resolved[mine]
                    idx, mine = idx[fresh], mine[fresh]
                call.resolved[mine] = True
                call.open -= len(mine)
                if not call.open:
                    del self._calls[number]
                if len(mine):
                    told.append((call.on_done, mine, idx))
        for on_done, mine, idx in told:
            if isinstance(outcome, BaseException) or len(idx) == len(rows):
                part = outcome  # the one owner's rows, in batch order
            else:
                part = outcome.take(idx)
            _tell(on_done, mine, part)

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


def _tell(on_done: Callable, positions: np.ndarray, outcome) -> None:
    """Call one owner back.  A callback that raises must not take the
    flusher (or a closing thread) down with it: logged, as a future's
    done-callbacks are."""
    try:
        on_done(positions, outcome)
    except Exception:
        logging.getLogger(__name__).exception(
            "exception calling %r for %d positions", on_done, len(positions)
        )
