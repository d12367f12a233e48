"""Dynamic micro-batching primitives: requests, futures, clock, batcher.

The decision server accepts requests from any number of concurrently
running campaigns and answers them in fused batches.  The moving parts:

* :class:`PendingResult` — the handle a client holds while its request sits
  in a queue; resolved (value or exception) when the batch it joined is
  flushed.
* :class:`TickClock` — a deterministic logical clock.  The serving layer has
  no wall-clock deadlines: "time" advances only when the scheduler says so,
  which makes flush timing — and therefore every batched computation —
  reproducible under a fixed request schedule.
* :class:`MicroBatcher` — per-endpoint, per-tenant FIFO queues with the two
  classic flush triggers: an endpoint is *due* when it holds ``max_batch``
  requests (flush for occupancy) or when its oldest request has waited
  ``max_wait_ticks`` clock ticks (flush for latency).

Fairness
--------
Within one endpoint, requests are bucketed by *tenant* (campaign id) and a
batch is assembled round-robin across tenants — one request per tenant per
round, rounds ordered by each tenant's oldest pending sequence number —
optionally capped at ``max_inflight_per_tenant`` requests per tenant per
batch.  A chatty campaign therefore cannot push another campaign's requests
out of a batch.  Crucially the schedule is *stateless given the queues*
(no persistent rotation pointer): when every tenant has at most one pending
request — the campaign runners' steady state — the assembled batch is in
plain arrival order, so single-tenant and runner-driven traffic keeps the
exact FIFO batch composition of the original scheduler, bit for bit.

The batcher only decides *when* a batch is ready and *who* gets its slots;
*how* a batch of requests is fused into one computation is the
:class:`~repro.serve.server.DecisionServer`'s job.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.utils.validation import check_positive_int

_UNSET = object()

#: Tenant id used when a request is submitted without one.
DEFAULT_TENANT = "default"


class TickClock:
    """A deterministic logical clock counting integer ticks."""

    def __init__(self, start: int = 0) -> None:
        self._now = int(start)

    def now(self) -> int:
        """The current tick."""
        return self._now

    def advance(self, ticks: int = 1) -> int:
        """Advance the clock and return the new tick."""
        if int(ticks) < 0:
            raise ValueError(f"cannot advance by a negative tick count ({ticks})")
        self._now += int(ticks)
        return self._now

    # -- round-tripping ----------------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        """The clock's full state (one integer), JSON-able."""
        return {"now": self._now}

    @classmethod
    def from_dict(cls, state: Mapping[str, int]) -> "TickClock":
        """Rebuild a clock from :meth:`as_dict` output."""
        return cls(start=int(state["now"]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TickClock(now={self._now})"


class PendingResult:
    """A single-assignment future resolved when the request's batch flushes."""

    __slots__ = ("_value", "_error")

    def __init__(self) -> None:
        self._value: Any = _UNSET
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """True once a value or an exception has been set."""
        return self._value is not _UNSET or self._error is not None

    def set_result(self, value: Any) -> None:
        if self.done:
            raise RuntimeError("PendingResult is already resolved")
        self._value = value

    def set_exception(self, error: BaseException) -> None:
        if self.done:
            raise RuntimeError("PendingResult is already resolved")
        self._error = error

    def result(self) -> Any:
        """The resolved value; raises the stored exception, or if unresolved."""
        if self._error is not None:
            raise self._error
        if self._value is _UNSET:
            raise RuntimeError(
                "PendingResult is not resolved yet; flush or drain the server first"
            )
        return self._value


@dataclass
class ServeRequest:
    """One queued request: endpoint kind, payload, tenant, and its future."""

    kind: str
    payload: Any
    future: PendingResult = field(default_factory=PendingResult)
    enqueued_at: int = 0
    sequence: int = 0
    tenant: str = DEFAULT_TENANT


class MicroBatcher:
    """Per-endpoint, per-tenant FIFO queues with fair batch assembly.

    Parameters
    ----------
    max_batch:
        Flush an endpoint as soon as it holds this many requests (across all
        of its tenants).
    max_wait_ticks:
        Flush an endpoint once its oldest request has waited this many clock
        ticks (0 = due immediately at the next poll).
    clock:
        The logical clock used to age requests; defaults to a fresh
        :class:`TickClock`.
    max_inflight_per_tenant:
        Cap on the requests one tenant may occupy in a single assembled
        batch; ``None`` leaves tenants uncapped (round-robin fairness still
        applies).  The serving layer exposes this as
        ``max_inflight_per_campaign``.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_wait_ticks: int = 2,
        clock: Optional[TickClock] = None,
        max_inflight_per_tenant: Optional[int] = None,
    ) -> None:
        self.max_batch = check_positive_int(max_batch, "max_batch")
        if int(max_wait_ticks) < 0:
            raise ValueError(f"max_wait_ticks must be >= 0, got {max_wait_ticks}")
        self.max_wait_ticks = int(max_wait_ticks)
        if max_inflight_per_tenant is not None:
            max_inflight_per_tenant = check_positive_int(
                max_inflight_per_tenant, "max_inflight_per_tenant"
            )
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.clock = clock or TickClock()
        # kind -> tenant -> FIFO of requests.  Kinds persist in
        # first-submission order; drained-empty tenant buckets are removed
        # (tenant order is recomputed per batch from pending sequences).
        self._queues: Dict[str, Dict[str, Deque[ServeRequest]]] = {}
        self._sequence = 0

    # -- enqueueing -------------------------------------------------------------

    def submit(
        self, kind: str, payload: Any, *, tenant: str = DEFAULT_TENANT
    ) -> ServeRequest:
        """Queue a request and return it (the caller keeps ``request.future``)."""
        if not isinstance(kind, str) or not kind:
            raise ValueError(f"request kind must be a non-empty string, got {kind!r}")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        request = ServeRequest(
            kind=kind,
            payload=payload,
            enqueued_at=self.clock.now(),
            sequence=self._sequence,
            tenant=tenant,
        )
        self._sequence += 1
        buckets = self._queues.setdefault(kind, {})
        buckets.setdefault(tenant, deque()).append(request)
        return request

    # -- inspection -------------------------------------------------------------

    def pending(self, kind: Optional[str] = None) -> int:
        """Number of queued requests, for one kind or overall."""
        if kind is not None:
            buckets = self._queues.get(kind, {})
            return sum(len(queue) for queue in buckets.values())
        return sum(
            len(queue)
            for buckets in self._queues.values()
            for queue in buckets.values()
        )

    def kinds(self) -> Tuple[str, ...]:
        """Kinds with at least one pending request, in first-submission order."""
        return tuple(
            kind
            for kind, buckets in self._queues.items()
            if any(buckets.values())
        )

    def pending_tenants(self, kind: str) -> Tuple[str, ...]:
        """Tenants with pending requests of ``kind``, oldest-pending first."""
        buckets = self._queues.get(kind, {})
        ordered = sorted(
            (queue[0].sequence, tenant)
            for tenant, queue in buckets.items()
            if queue
        )
        return tuple(tenant for _, tenant in ordered)

    def is_full(self, kind: str) -> bool:
        """True when ``kind``'s queue has reached ``max_batch``."""
        return self.pending(kind) >= self.max_batch

    def is_due(self, kind: str) -> bool:
        """True when ``kind`` should flush: full, or its oldest request aged out."""
        oldest = self.oldest_wait(kind)
        if oldest is None:
            return False
        if self.pending(kind) >= self.max_batch:
            return True
        return oldest >= self.max_wait_ticks

    def oldest_wait(self, kind: str) -> Optional[int]:
        """Ticks the oldest pending request of ``kind`` has waited (None if empty)."""
        buckets = self._queues.get(kind, {})
        oldest: Optional[int] = None
        for queue in buckets.values():
            if queue and (oldest is None or queue[0].enqueued_at < oldest):
                oldest = queue[0].enqueued_at
        if oldest is None:
            return None
        return self.clock.now() - oldest

    # -- draining ---------------------------------------------------------------

    def drain(self, kind: str, limit: Optional[int] = None) -> List[ServeRequest]:
        """Assemble one batch of up to ``limit`` (default ``max_batch``) requests.

        Round-robin across tenants: each round takes one request per tenant
        with work remaining, tenants ordered by their oldest pending
        sequence number, until the batch is full, every queue is empty, or
        every tenant hit ``max_inflight_per_tenant``.  With at most one
        pending request per tenant this degenerates to plain FIFO arrival
        order — the compatibility anchor the parity tests rely on.
        """
        buckets = self._queues.get(kind)
        if not buckets:
            return []
        limit = self.max_batch if limit is None else check_positive_int(limit, "limit")
        cap = self.max_inflight_per_tenant
        batch: List[ServeRequest] = []
        taken: Dict[str, int] = {}
        while len(batch) < limit:
            candidates = sorted(
                (queue[0].sequence, tenant)
                for tenant, queue in buckets.items()
                if queue and (cap is None or taken.get(tenant, 0) < cap)
            )
            if not candidates:
                break
            for _, tenant in candidates:
                if len(batch) >= limit:
                    break
                queue = buckets[tenant]
                if not queue or (cap is not None and taken.get(tenant, 0) >= cap):
                    continue
                batch.append(queue.popleft())
                taken[tenant] = taken.get(tenant, 0) + 1
        for tenant in [tenant for tenant, queue in buckets.items() if not queue]:
            del buckets[tenant]
        return batch

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable scheduler state (requires empty queues).

        The cooperative scheduler reaches quiescence (no pending requests)
        between every scheduling round, so checkpoints are taken there; the
        only state that must survive is the global submission sequence
        counter (request sequence numbers order the fairness rotation and
        the journal).  Raises when requests are still queued — a checkpoint
        that silently dropped live futures could never resume bitwise.
        """
        pending = self.pending()
        if pending:
            raise RuntimeError(
                f"cannot checkpoint a MicroBatcher with {pending} pending "
                "request(s); flush or drain the server first"
            )
        return {
            "sequence": self._sequence,
            "max_batch": self.max_batch,
            "max_wait_ticks": self.max_wait_ticks,
            "max_inflight_per_tenant": self.max_inflight_per_tenant,
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state_dict` output onto this (empty) batcher."""
        if self.pending():
            raise RuntimeError("cannot restore onto a MicroBatcher with pending requests")
        self._sequence = int(state["sequence"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        depths = {
            kind: sum(len(queue) for queue in buckets.values())
            for kind, buckets in self._queues.items()
            if any(buckets.values())
        }
        return f"MicroBatcher(max_batch={self.max_batch}, pending={depths})"
