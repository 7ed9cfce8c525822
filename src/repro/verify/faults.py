"""Deterministic, seeded fault injection for the serving/indexing layers.

A :class:`FaultPlan` names *injection sites* — well-defined points in the
production code (strategy execution, a service flush, an index swap, a
dynamic-index rebuild) that call :meth:`FaultPlan.fire` when a plan is
installed — and decides, deterministically from a seed, whether each
pass through a site raises an :class:`InjectedFault` or injects a delay.

This turns "what happens when a flush dies mid-batch?" from a thought
experiment into an assertion: tests install a plan, drive real traffic
and prove the error-path contracts (no future lost or double-resolved,
clean drain on close, metrics that still add up).  Production code never
pays for it — the hooks are a single ``is None`` check when no plan is
installed.

The plan is thread-safe: sites are hit from the service flusher thread,
client threads and test threads at once, and all bookkeeping (pass
counters, per-rule firing counts, the seeded RNG) is guarded by one
lock.  Sleeps and raises happen outside the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import repro.obs as obs

__all__ = [
    "ACTIONS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "SITES",
    "SITE_CACHE_INVALIDATE",
    "SITE_FLUSH",
    "SITE_NET_ACCEPT",
    "SITE_NET_DECODE",
    "SITE_PLANNER_DECIDE",
    "SITE_REBUILD",
    "SITE_STRATEGY",
    "SITE_SWAP",
]

#: A batch strategy is about to execute inside a service flush.
SITE_STRATEGY = "strategy.execute"
#: A service flush is starting (before the batch snapshot is taken).
SITE_FLUSH = "service.flush"
#: :meth:`BatchingQueryService.swap_index` is about to install an index.
SITE_SWAP = "service.swap_index"
#: :class:`~repro.hint.dynamic.DynamicHint` is about to merge its buffer
#: and tombstones into the index.
SITE_REBUILD = "dynamic.rebuild"
#: :class:`~repro.cache.CachingExecutor` is about to run a *selective*
#: invalidation pass (dropping only cached queries that overlap mutated
#: intervals).  An injected failure exercises the degrade path: the
#: executor falls back to a full cache flush — strictly more
#: invalidation, never a stale answer.
SITE_CACHE_INVALIDATE = "cache.invalidate"
#: :class:`~repro.net.QueryServer` accepted a TCP connection (fired
#: before any frame is read).  An injected failure simulates an I/O
#: error on accept: the connection is closed immediately and counted —
#: the server itself must survive.
SITE_NET_ACCEPT = "net.accept"
#: :class:`~repro.net.QueryServer` is about to decode a received frame.
#: An injected failure simulates a decode/IO failure mid-stream: the
#: client gets a typed ``BAD_REQUEST`` error and the connection is
#: closed; the server never crashes or leaks the socket.
SITE_NET_DECODE = "net.decode"
#: :class:`~repro.planner.PlannedExecutor` is about to ask its
#: :class:`~repro.planner.AdaptivePlanner` for a plan.  An injected
#: failure exercises the degrade path: the batch runs under the
#: engine's static ``auto`` rule instead — a worse plan at most, never a
#: lost or wrong batch.
SITE_PLANNER_DECIDE = "planner.decide"

#: All injection sites wired into the production code.
SITES = (
    SITE_STRATEGY,
    SITE_FLUSH,
    SITE_SWAP,
    SITE_REBUILD,
    SITE_CACHE_INVALIDATE,
    SITE_NET_ACCEPT,
    SITE_NET_DECODE,
    SITE_PLANNER_DECIDE,
)

#: Supported fault actions.
ACTIONS = ("raise", "delay")


class InjectedFault(RuntimeError):
    """Raised by an armed :class:`FaultPlan` at an injection site."""


@dataclass(frozen=True)
class FaultRule:
    """One site's fault policy inside a :class:`FaultPlan`.

    Parameters
    ----------
    site:
        One of :data:`SITES`.
    action:
        ``"raise"`` (raise :class:`InjectedFault`, or *exc_factory*'s
        exception) or ``"delay"`` (sleep *delay* seconds, then proceed).
    probability:
        Chance that an eligible pass fires, drawn from the plan's seeded
        RNG — 1.0 fires on every eligible pass.
    times:
        Maximum number of firings; ``None`` means unlimited.
    after:
        Number of initial passes through the site that are always left
        untouched (e.g. "fail the third flush": ``after=2, times=1``).
    delay:
        Sleep duration in seconds for ``action="delay"``.
    exc_factory:
        Optional zero-argument callable producing the exception to raise
        instead of :class:`InjectedFault`.
    """

    site: str
    action: str = "raise"
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    delay: float = 0.0
    exc_factory: Optional[Callable[[], BaseException]] = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(
                f"unknown injection site {self.site!r}; expected one of {SITES}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be positive (or None for unlimited)")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus firing bookkeeping.

    Parameters
    ----------
    rules:
        The rules; a single rule may be passed bare.  When several rules
        name the same site, the first eligible one wins per pass.
    seed:
        Seed of the RNG behind probabilistic rules — two plans with the
        same rules and seed fire on exactly the same pass sequence.
    sleep:
        Sleep function used by ``"delay"`` rules; injectable for tests.

    Examples
    --------
    >>> plan = FaultPlan.once(SITE_FLUSH)
    >>> plan.fire(SITE_FLUSH)
    Traceback (most recent call last):
        ...
    repro.verify.faults.InjectedFault: injected fault at 'service.flush' (pass 1)
    >>> plan.fire(SITE_FLUSH)  # armed once; later passes proceed
    >>> plan.hits(SITE_FLUSH), plan.passes(SITE_FLUSH)
    (1, 2)
    """

    def __init__(
        self,
        rules: Union[FaultRule, Iterable[FaultRule]],
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if isinstance(rules, FaultRule):
            rules = [rules]
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise TypeError(f"expected FaultRule, got {type(rule).__name__}")
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        # random.Random avoids coupling injection decisions to numpy
        # global state; the module import is deferred to keep this file
        # dependency-free for the hot `is None` path.
        import random

        self._rng = random.Random(self.seed)
        self._passes: Dict[str, int] = {site: 0 for site in SITES}
        self._fired: List[int] = [0] * len(self.rules)
        #: Chronological record of every firing: (site, pass_no, action).
        self.history: List[Tuple[str, int, str]] = []

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def once(cls, site: str, *, after: int = 0, seed: int = 0) -> "FaultPlan":
        """Plan raising :class:`InjectedFault` at the first eligible pass."""
        return cls(FaultRule(site=site, times=1, after=after), seed=seed)

    @classmethod
    def delaying(
        cls, site: str, delay: float, *, times: Optional[int] = None, seed: int = 0
    ) -> "FaultPlan":
        """Plan injecting a *delay*-second sleep at every eligible pass."""
        return cls(
            FaultRule(site=site, action="delay", delay=delay, times=times),
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # the injection hook
    # ------------------------------------------------------------------ #

    def fire(self, site: str) -> None:
        """Record one pass through *site*; raise or sleep if a rule fires.

        Called by the production code at its injection sites.  Raising
        rules raise; delaying rules sleep and return; unarmed passes
        return immediately.
        """
        if site not in SITES:
            raise ValueError(
                f"unknown injection site {site!r}; expected one of {SITES}"
            )
        to_raise: Optional[BaseException] = None
        sleep_for = 0.0
        fired_action: Optional[str] = None
        with self._lock:
            self._passes[site] += 1
            pass_no = self._passes[site]
            for pos, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if pass_no <= rule.after:
                    continue
                if rule.times is not None and self._fired[pos] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._fired[pos] += 1
                self.history.append((site, pass_no, rule.action))
                fired_action = rule.action
                if rule.action == "delay":
                    sleep_for = rule.delay
                else:
                    to_raise = (
                        rule.exc_factory()
                        if rule.exc_factory is not None
                        else InjectedFault(
                            f"injected fault at {site!r} (pass {pass_no})"
                        )
                    )
                break  # first eligible rule wins this pass
        if fired_action is not None:
            ob = obs.active()
            if ob is not None:
                ob.record_fault(site, fired_action)
        if to_raise is not None:
            raise to_raise
        if sleep_for > 0.0:
            self._sleep(sleep_for)

    # ------------------------------------------------------------------ #
    # introspection (what did the plan actually do?)
    # ------------------------------------------------------------------ #

    def passes(self, site: str) -> int:
        """Total passes through *site* (fired or not)."""
        with self._lock:
            return self._passes[site]

    def hits(self, site: str) -> int:
        """Number of faults actually fired at *site*."""
        with self._lock:
            return sum(1 for s, _, _ in self.history if s == site)

    def total_hits(self) -> int:
        """Number of faults fired across all sites."""
        with self._lock:
            return len(self.history)

    def __repr__(self) -> str:
        with self._lock:
            fired = len(self.history)
            passes = sum(self._passes.values())
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"passes={passes}, fired={fired})"
        )
