"""Per-tenant token-bucket admission control for the query server.

A :class:`TokenBucket` refills continuously at ``rate`` tokens/second up
to ``burst`` tokens; each admitted query spends one token.  The classic
property this buys the server: a tenant may burst up to ``burst``
queries instantly, but its *sustained* throughput is capped at ``rate``
— one tenant flooding the socket cannot starve the others of flush
capacity.

:class:`TenantAdmission` maps tenant ids to buckets lazily: every tenant
gets the default ``rate``/``burst`` unless an explicit override is
registered (``overrides={"analytics": (50, 100)}``), and a rate of
``None`` means unlimited (no bucket is kept at all).  The structure is
thread-safe — the asyncio server drives it from its event loop, the
load generator's tests from many threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Optional, Tuple

__all__ = ["TokenBucket", "TenantAdmission"]


class TokenBucket:
    """Continuous-refill token bucket.

    Parameters
    ----------
    rate:
        Tokens added per second (may be 0: the bucket never refills and
        only the initial *burst* is ever admitted — useful in tests).
    burst:
        Bucket capacity; also the initial fill.
    clock:
        Monotonic time source, injectable for tests.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: int = 1) -> int:
        """Spend up to *tokens* whole tokens if available right now;
        never blocks.  Returns how many were granted (``0`` .. *tokens*;
        truthy exactly when a single-token call was admitted)."""
        with self._lock:
            # The clock is read under the lock: read before it, two
            # racing callers could store their stamps out of order and
            # the next refill would count the interval between them twice.
            now = self._clock()
            if now > self._stamp:
                if self.rate > 0.0:
                    self._tokens = min(
                        self.burst,
                        self._tokens + (now - self._stamp) * self.rate,
                    )
                self._stamp = now  # never lowered, whatever the clock does
            granted = min(int(tokens), int(self._tokens))
            self._tokens -= granted
            return granted

    @property
    def tokens(self) -> float:
        """Currently available tokens (without refilling)."""
        with self._lock:
            return self._tokens

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate:g}, burst={self.burst:g}, "
            f"tokens={self.tokens:.1f})"
        )


class TenantAdmission:
    """Lazily materialized per-tenant token buckets.

    Parameters
    ----------
    rate, burst:
        Defaults for tenants without an override.  ``rate=None``
        disables admission control for those tenants entirely.
    overrides:
        ``{tenant: (rate, burst)}`` explicit per-tenant budgets; a rate
        of ``None`` exempts that tenant.
    clock:
        Shared monotonic time source for every bucket.
    """

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: float = 64.0,
        *,
        overrides: Optional[
            Mapping[str, Tuple[Optional[float], float]]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate is not None and rate < 0:
            raise ValueError("rate must be non-negative (or None)")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.default_rate = rate
        self.default_burst = float(burst)
        self._overrides: Dict[str, Tuple[Optional[float], float]] = dict(
            overrides or {}
        )
        self._clock = clock
        self._buckets: Dict[str, Optional[TokenBucket]] = {}
        self._lock = threading.Lock()

    def bucket(self, tenant: str) -> Optional[TokenBucket]:
        """The tenant's bucket (created on first use); None = unlimited."""
        with self._lock:
            if tenant not in self._buckets:
                rate, burst = self._overrides.get(
                    tenant, (self.default_rate, self.default_burst)
                )
                self._buckets[tenant] = (
                    None
                    if rate is None
                    else TokenBucket(rate, burst, clock=self._clock)
                )
            return self._buckets[tenant]

    def try_admit(self, tenant: str, n: int = 1) -> int:
        """Admit up to *n* queries from *tenant*, as many as its budget
        allows right now; returns how many (the first that many of a
        chunk are the admitted ones)."""
        bucket = self.bucket(tenant)
        return n if bucket is None else bucket.try_acquire(n)

    def __repr__(self) -> str:
        return (
            f"TenantAdmission(rate={self.default_rate}, "
            f"burst={self.default_burst:g}, "
            f"overrides={len(self._overrides)}, "
            f"tenants={len(self._buckets)})"
        )
