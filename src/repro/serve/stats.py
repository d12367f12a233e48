"""Server telemetry: request counts, batch occupancy, latency, cache hit rate.

Two reporting views coexist:

* :meth:`ServerStats.as_dict` — the full operational snapshot, including
  wall-clock latency percentiles measured with
  :func:`repro.utils.timing.monotonic`;
* :meth:`ServerStats.deterministic_dict` — the subset that is a pure
  function of the request schedule (request/batch/tick/tenant/cache/learner
  counters, no wall-clock seconds).  This is the view the serving journal
  records and the differential replay harness compares, because two bitwise
  identical runs still take different nanoseconds per batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.serve.batcher import ServeRequest
    from repro.serve.cache import CompletionCache
    from repro.serve.server import FlushRecord


class LatencyReservoir:
    """A bounded window of the most recent latency samples.

    Keeps the last ``capacity`` samples in a fixed-size ring plus a ``seen``
    counter of everything ever recorded, so a long-lived server's latency
    memory is bounded while percentiles stay meaningful (they describe the
    retained window).  Keep-last is deliberate: it is deterministic and
    seedless — unlike probabilistic reservoir sampling, two identical
    request schedules retain identical windows — which the serving stack's
    bitwise-reproducibility guarantees require.
    """

    __slots__ = ("capacity", "seen", "_samples")

    DEFAULT_CAPACITY = 512

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if int(capacity) < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self._samples: Deque[float] = deque(maxlen=self.capacity)

    def append(self, sample: float) -> None:
        self._samples.append(float(sample))
        self.seen += 1

    def extend(self, samples: Iterable[float]) -> None:
        for sample in samples:
            self.append(sample)

    def samples(self) -> List[float]:
        """The retained window, oldest first."""
        return list(self._samples)

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    def __eq__(self, other: object) -> bool:
        """Equal to another reservoir (same window + counters) or to a plain
        sample sequence (the retained window) — the shape the field held
        before it was bounded."""
        if isinstance(other, LatencyReservoir):
            return (self.capacity, self.seen, self.samples()) == (
                other.capacity,
                other.seen,
                other.samples(),
            )
        if isinstance(other, (list, tuple)):
            return self.samples() == [float(sample) for sample in other]
        return NotImplemented

    def state_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "samples": self.samples(),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.capacity = int(state["capacity"])  # type: ignore[arg-type]
        self._samples = deque(
            (float(sample) for sample in state["samples"]),  # type: ignore[union-attr]
            maxlen=self.capacity,
        )
        self.seen = int(state["seen"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyReservoir({len(self._samples)}/{self.capacity}, seen={self.seen})"
        )


@dataclass
class EndpointStats:
    """Counters for one endpoint (request kind)."""

    requests: int = 0
    batches: int = 0
    batched_requests: int = 0
    seconds: float = 0.0
    #: Per-request service latency samples: a request completes when its
    #: batch's handler completes, so each request in a flushed batch records
    #: that batch's handler duration.  Bounded: a :class:`LatencyReservoir`
    #: keeps the most recent window, so long-lived servers don't accumulate
    #: one float per request forever.
    latencies: LatencyReservoir = field(default_factory=LatencyReservoir)

    def __post_init__(self) -> None:
        # Accept a plain sample list (the field's pre-reservoir shape) and
        # adopt it as the retained window.
        if not isinstance(self.latencies, LatencyReservoir):
            samples = self.latencies
            self.latencies = LatencyReservoir()
            self.latencies.extend(samples)

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean number of requests fused per flushed batch (NaN before any flush)."""
        if self.batches == 0:
            return float("nan")
        return self.batched_requests / self.batches

    @property
    def mean_latency_seconds(self) -> float:
        """Mean handler wall-clock seconds per request (NaN before any flush)."""
        if self.batched_requests == 0:
            return float("nan")
        return self.seconds / self.batched_requests

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-request latency (NaN before any flush).

        Computed over the reservoir's retained window.  Well-defined at the
        edges: with a single sample every percentile is that sample, and
        with all-equal samples (the common case — every request in a batch
        records the same handler duration) every percentile is that shared
        value.
        """
        if not self.latencies:
            return float("nan")
        return float(np.percentile(self.latencies.samples(), q))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly counters; derived fields are None before any flush."""
        flushed = bool(self.batched_requests)
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch_occupancy": round(self.mean_batch_occupancy, 3)
            if self.batches
            else None,
            "seconds": round(self.seconds, 4),
            "mean_latency_seconds": round(self.mean_latency_seconds, 6)
            if flushed
            else None,
            "p50_latency_seconds": round(self.latency_percentile(50), 6)
            if flushed
            else None,
            "p99_latency_seconds": round(self.latency_percentile(99), 6)
            if flushed
            else None,
        }

    def deterministic_dict(self) -> Dict[str, object]:
        """The schedule-determined subset of :meth:`as_dict` (no wall clock)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_batch_occupancy": round(self.mean_batch_occupancy, 3)
            if self.batches
            else None,
        }

    def state_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "seconds": self.seconds,
            "latencies": self.latencies.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.requests = int(state["requests"])  # type: ignore[arg-type]
        self.batches = int(state["batches"])  # type: ignore[arg-type]
        self.batched_requests = int(state["batched_requests"])  # type: ignore[arg-type]
        self.seconds = float(state["seconds"])  # type: ignore[arg-type]
        recorded = state["latencies"]
        self.latencies = LatencyReservoir()
        if isinstance(recorded, Mapping):
            self.latencies.load_state_dict(recorded)
        else:
            # Checkpoints from before the bounded reservoir stored a plain
            # sample list; adopt it as the retained window.
            self.latencies.extend(float(sample) for sample in recorded)  # type: ignore[union-attr]


@dataclass
class TenantStats:
    """Fairness counters for one tenant (campaign id).

    ``starved_flushes`` counts flushes of an endpoint where this tenant had
    requests pending but contributed none to the assembled batch — the
    scheduler's round-robin guarantees this only happens when a batch fills
    with one-request-per-tenant rounds before reaching it, so a growing
    counter is the signature of an oversubscribed endpoint, not of a
    misbehaving scheduler.
    """

    requests: int = 0
    served: int = 0
    starved_flushes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "served": self.served,
            "starved_flushes": self.starved_flushes,
        }

    def state_dict(self) -> Dict[str, int]:
        return self.as_dict()

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.requests = int(state["requests"])  # type: ignore[arg-type]
        self.served = int(state["served"])  # type: ignore[arg-type]
        self.starved_flushes = int(state["starved_flushes"])  # type: ignore[arg-type]


@dataclass
class ServerStats:
    """Aggregated decision-server telemetry.

    The server's first event subscriber (see
    :meth:`~repro.serve.server.DecisionServer.subscribe`): endpoint and
    tenant counters move as requests arrive and batches flush, and the
    cache's hit/miss counters are read live from the attached
    :class:`~repro.serve.cache.CompletionCache`, so this object is always
    current — snapshot it with :meth:`as_dict` for reporting.  Learner
    telemetry (weight-version staleness, per-campaign replay accounting) is
    snapshotted after every ``learn`` flush, one entry per learner instance.
    Tenant counters track per-campaign request volume and fairness (see
    :class:`TenantStats`).
    """

    endpoints: Dict[str, EndpointStats] = field(default_factory=dict)
    #: The logical tick of the latest flush.
    ticks: int = 0
    cache: Optional["CompletionCache"] = None
    learners: Dict[str, Dict[str, object]] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)

    # -- counters ---------------------------------------------------------------

    def endpoint(self, kind: str) -> EndpointStats:
        """The (auto-created) counters for ``kind``."""
        if kind not in self.endpoints:
            self.endpoints[kind] = EndpointStats()
        return self.endpoints[kind]

    def tenant(self, label: str) -> TenantStats:
        """The (auto-created) fairness counters for tenant ``label``."""
        if label not in self.tenants:
            self.tenants[label] = TenantStats()
        return self.tenants[label]

    # -- event stream (see DecisionServer.subscribe) ----------------------------

    def request(self, request: "ServeRequest") -> None:
        """Count one accepted request for its endpoint and tenant."""
        self.endpoint(request.kind).requests += 1
        self.tenant(request.tenant).requests += 1

    def flush(self, record: "FlushRecord") -> None:
        """Account one assembled batch: who got slots, who waited it out."""
        self.ticks = record.tick
        for request in record.requests:
            self.tenant(request.tenant).served += 1
        for label in record.starved:
            self.tenant(label).starved_flushes += 1

    def flushed(self, record: "FlushRecord") -> None:
        """Time one handled batch; snapshot the learners it fed."""
        endpoint = self.endpoint(record.kind)
        elapsed = record.end - record.start
        size = len(record.requests)
        endpoint.batches += 1
        endpoint.batched_requests += size
        endpoint.seconds += elapsed
        endpoint.latencies.extend([elapsed] * size)
        for label, learner in record.learners.items():
            self.learners[label] = dict(learner.telemetry())

    # -- cache passthroughs -----------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    @property
    def cache_hit_rate(self) -> float:
        if self.cache is None:
            return float("nan")
        return self.cache.hit_rate

    # -- reporting --------------------------------------------------------------

    def _snapshot(
        self, endpoint_view: Callable[[EndpointStats], Dict[str, object]]
    ) -> Dict[str, object]:
        """The shared body of :meth:`as_dict` and :meth:`deterministic_dict`."""
        total = self.cache_hits + self.cache_misses
        return {
            "endpoints": {kind: endpoint_view(stats) for kind, stats in self.endpoints.items()},
            "ticks": self.ticks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4) if total else None,
            "learners": {label: dict(data) for label, data in self.learners.items()},
            "tenants": {
                label: tenant.as_dict() for label, tenant in self.tenants.items()
            },
        }

    def as_dict(self) -> Dict[str, object]:
        """One JSON-friendly snapshot of everything."""
        return self._snapshot(EndpointStats.as_dict)

    def deterministic_dict(self) -> Dict[str, object]:
        """The schedule-determined snapshot (no wall-clock fields).

        Two runs with identical request schedules and identical component
        seeds produce identical ``deterministic_dict()`` output — this is
        the stats view the journal records and replay verification diffs.
        """
        return self._snapshot(EndpointStats.deterministic_dict)

    def rows(self) -> List[Dict[str, object]]:
        """Per-endpoint rows for tabular reporting (one dict per kind)."""
        return [
            {"endpoint": kind, **stats.as_dict()}
            for kind, stats in self.endpoints.items()
        ]

    def metrics(self) -> Dict[str, object]:
        """The canonical ``repro_serve_*`` metric view of this snapshot.

        Flat ``name{label="value"}`` sample keys and values, exactly the
        samples :mod:`repro.obs` exports for this object; :meth:`as_dict`
        remains the backwards-compatible legacy shape.
        """
        from repro.obs.adapters import flat_samples, ingest_server_stats

        return flat_samples(ingest_server_stats, self)

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable counters (the live cache reference is *not* included)."""
        return {
            "endpoints": {
                kind: stats.state_dict() for kind, stats in self.endpoints.items()
            },
            "ticks": self.ticks,
            "learners": {label: dict(data) for label, data in self.learners.items()},
            "tenants": {
                label: tenant.state_dict() for label, tenant in self.tenants.items()
            },
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore :meth:`state_dict` output (cache wiring is left untouched)."""
        self.endpoints = {}
        for kind, endpoint_state in state["endpoints"].items():  # type: ignore[union-attr]
            self.endpoint(kind).load_state_dict(endpoint_state)
        self.ticks = int(state["ticks"])  # type: ignore[arg-type]
        self.learners = {
            label: dict(data)
            for label, data in state["learners"].items()  # type: ignore[union-attr]
        }
        self.tenants = {}
        for label, tenant_state in state["tenants"].items():  # type: ignore[union-attr]
            self.tenant(label).load_state_dict(tenant_state)
