"""Gateway admission control: per-tenant quotas and a global retry budget.

Two instruments, both plain token buckets over a monotonic clock:

* :class:`TenantQuotas` -- one bucket per tenant (the ``X-Repro-Api-Key``
  request header; absent keys share the ``anonymous`` bucket).  A submit
  that finds the bucket empty is rejected with 429 + ``Retry-After``
  sized to the refill time of one token, so an over-quota tenant backs
  off while in-quota tenants on the same fleet proceed untouched.
* :class:`RetryBudget` -- one global bucket the router draws from before
  each failover hop and the gateway before each loss-resubmission.  A
  flapping node can therefore amplify load only up to the budget rate;
  past it the gateway answers ``NodeUnavailable`` (503 + ``Retry-After``)
  instead of hammering the survivors.

Both are configured through ``make_gateway(quota=, quota_burst=,
retry_budget=)`` (``repro fleet serve --quota / --quota-burst /
--retry-budget``); a rate of 0 disables the instrument entirely -- the
quota's default, so single-tenant deployments pay nothing (the retry
budget defaults to 60 per minute).

The bucket math is deterministic given a clock, and every class takes an
injectable ``clock`` callable so tests never sleep.
"""

from __future__ import annotations

import collections
import math
import time
from typing import Callable, Optional, Tuple

from .. import forksafe

__all__ = ["TokenBucket", "TenantQuotas", "RetryBudget",
           "ANONYMOUS_TENANT", "TENANT_HEADER"]

#: Request header naming the tenant; absent = the shared anonymous bucket.
TENANT_HEADER = "X-Repro-Api-Key"
ANONYMOUS_TENANT = "anonymous"

#: Distinct tenants tracked before the least-recently-seen bucket is
#: dropped (a dropped tenant simply starts over with a full bucket).
MAX_TENANTS = 4096


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``try_take`` either takes one token (``(True, 0.0)``) or reports how
    long until one is available (``(False, retry_after_s)``).  A rate of
    0 means unlimited: every take succeeds and costs nothing.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = max(0.0, float(rate))
        self.burst = max(1.0, float(burst)) if self.rate else 0.0
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = forksafe.lock("fleet.bucket")

    def _refill_locked(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_take(self, n: float = 1.0) -> Tuple[bool, float]:
        """Take ``n`` tokens -> ``(ok, retry_after_s)``."""
        if not self.rate:
            return True, 0.0
        with self._lock:
            now = self._clock()
            self._refill_locked(now)
            if self._tokens >= n:
                self._tokens -= n
                return True, 0.0
            return False, (n - self._tokens) / self.rate

    def available(self) -> float:
        """Current token count (refilled to now); unlimited reads as inf."""
        if not self.rate:
            return math.inf
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens


class TenantQuotas:
    """Per-tenant submit buckets, LRU-bounded at :data:`MAX_TENANTS`.

    ``rate`` <= 0 disables admission control: every tenant is always in
    quota.  ``burst`` <= 0 derives a burst of ``max(1, 2 * rate)`` so a
    small quota still admits at least one request instantly.
    """

    def __init__(self, rate: float, burst: float = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = max(0.0, float(rate))
        self.burst = (float(burst) if burst and burst > 0
                      else max(1.0, 2.0 * self.rate))
        self._clock = clock
        self._buckets: "collections.OrderedDict[str, TokenBucket]" = \
            collections.OrderedDict()
        self._lock = forksafe.lock("fleet.quotas")

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[tenant] = bucket
            self._buckets.move_to_end(tenant)
            while len(self._buckets) > MAX_TENANTS:
                self._buckets.popitem(last=False)
            return bucket

    def try_take(self, tenant: Optional[str]) -> Tuple[bool, float]:
        """Admit one submit for ``tenant`` -> ``(ok, retry_after_s)``."""
        if not self.enabled:
            return True, 0.0
        return self._bucket(tenant or ANONYMOUS_TENANT).try_take()


class RetryBudget:
    """Global failover/resubmit budget: ``per_minute`` retries sustained,
    with a full minute's burst so a single node death can still fail its
    whole in-flight shard over at once.  ``per_minute`` <= 0 disables."""

    def __init__(self, per_minute: float,
                 clock: Callable[[], float] = time.monotonic):
        per_minute = max(0.0, float(per_minute))
        self._bucket = TokenBucket(per_minute / 60.0, per_minute,
                                   clock=clock)
        self.per_minute = per_minute

    @property
    def enabled(self) -> bool:
        return self.per_minute > 0

    def try_take(self) -> bool:
        """Spend one retry; ``False`` means the budget is exhausted."""
        return self._bucket.try_take()[0]

    def available(self) -> float:
        return self._bucket.available()
