"""``repro.serve`` — a multi-campaign decision server with dynamic micro-batching.

The serving layer turns the library's batched kernels (stacked Q-network
forwards, batched ALS completions, pooled LOO assessments) into a shared
online service: any number of concurrently running campaigns submit
``select_cell`` / ``assess_quality`` / ``complete_matrix`` requests to one
:class:`DecisionServer`, which coalesces them into fused batched calls and
memoises completions in an LRU :class:`CompletionCache`.

* :mod:`repro.serve.batcher` — :class:`MicroBatcher` (per-tenant fair batch
  assembly), the deterministic :class:`TickClock`, and :class:`PendingResult`
  futures.
* :mod:`repro.serve.cache` — content-fingerprint completion caching
  (:class:`CompletionCache`, :class:`CachingInference`).
* :mod:`repro.serve.server` — :class:`DecisionServer`, :class:`ServeConfig`,
  the :class:`FlushRecord` its event stream reports batches with
  (:meth:`DecisionServer.subscribe`), and the cooperative :func:`drive`
  scheduler (:func:`drive_rounds` steps it one round at a time).
* :mod:`repro.serve.stats` — :class:`ServerStats` telemetry, including
  per-campaign fairness counters (:class:`TenantStats`).
* :mod:`repro.serve.journal` — the :class:`RequestJournal` flight recorder
  and the :func:`replay_journal` differential replay driver.
* :mod:`repro.serve.checkpoint` — :class:`ServerCheckpoint`, freezing a
  quiescent session for bitwise resumption.

The campaign-side client adapter lives in :mod:`repro.mcs.served`
(:class:`~repro.mcs.served.ServedCampaignRunner`), and
:meth:`repro.api.session.Session.serve` drives a whole scenario — every
slot, across datasets — through one server.
"""

from repro.serve.batcher import (
    DEFAULT_TENANT,
    MicroBatcher,
    PendingResult,
    ServeRequest,
    TickClock,
)
from repro.serve.cache import (
    CachingInference,
    CompletionCache,
    config_key,
    matrix_fingerprint,
    pool_key,
)
from repro.serve.checkpoint import ServerCheckpoint
from repro.serve.journal import (
    ReplayReport,
    RequestJournal,
    diff_journals,
    replay_journal,
    weights_fingerprint,
)
from repro.serve.server import (
    CYCLE_BARRIER,
    DecisionServer,
    FlushRecord,
    ServeConfig,
    drive,
    drive_rounds,
)
from repro.serve.stats import EndpointStats, LatencyReservoir, ServerStats, TenantStats

__all__ = [
    "CYCLE_BARRIER",
    "CachingInference",
    "CompletionCache",
    "DEFAULT_TENANT",
    "DecisionServer",
    "EndpointStats",
    "FlushRecord",
    "LatencyReservoir",
    "MicroBatcher",
    "PendingResult",
    "ReplayReport",
    "RequestJournal",
    "ServeConfig",
    "ServeRequest",
    "ServerCheckpoint",
    "ServerStats",
    "TenantStats",
    "TickClock",
    "config_key",
    "diff_journals",
    "drive",
    "drive_rounds",
    "matrix_fingerprint",
    "pool_key",
    "replay_journal",
    "weights_fingerprint",
]
