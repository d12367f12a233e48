"""Adapters: the stack's existing telemetry, mirrored into one ``repro_*`` namespace.

Each ``ingest_*`` function reads one subsystem's native telemetry object —
duck-typed, so this module imports nothing from ``repro.serve`` /
``repro.learner`` / ``repro.inference`` — and mirrors it into a
:class:`~repro.obs.metrics.MetricsRegistry` under the canonical metric
families:

========================  =====================================================
family                    source
========================  =====================================================
``repro_serve_*``         :class:`~repro.serve.stats.ServerStats` (endpoint,
                          tenant, cache, tick counters + latency samples)
``repro_als_*``           :class:`~repro.inference.als.SolverStats`
``repro_learner_*``       :meth:`~repro.learner.core.Learner.telemetry`
                          (weight staleness + replay-buffer occupancy)
``repro_train_*``         :class:`~repro.core.trainer.TrainingReport`
========================  =====================================================

Ingestion is **idempotent**: counters mirror the subsystem's own running
totals via ``set_total`` and gauges are overwritten, so calling an adapter
again (the periodic cycle-barrier snapshots) updates rather than
double-counts.  The latency histogram is rebuilt from the endpoint's
bounded sample ring on each call — it reflects the retained window, exactly
like the p50/p99 columns of ``ServerStats.rows()``.

The ``*_metrics`` companions return the same data as a flat
``{sample_name: value}`` dict — ``repro_serve_requests_total{endpoint="select"}``
style keys, identical to the Prometheus sample names the exporter emits.
These back the ``metrics()`` methods on ``ServerStats`` / ``SolverStats`` /
``Learner``, which is where the repo's telemetry dialects converge (the
legacy ``as_dict()`` / ``telemetry()`` shapes remain as backwards-compatible
aliases).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ingest_server_stats",
    "ingest_solver_stats",
    "ingest_learner",
    "ingest_training_report",
    "server_stats_metrics",
    "solver_stats_metrics",
    "learner_metrics",
    "training_report_metrics",
]


def _sample_name(name: str, **labels: object) -> str:
    """A flat Prometheus-style sample key: ``name{label="value",...}``."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{value}"' for key, value in sorted((k, str(v)) for k, v in labels.items())
    )
    return f"{name}{{{rendered}}}"


# -- serve -----------------------------------------------------------------------


def ingest_server_stats(registry: MetricsRegistry, stats: Any) -> None:
    """Mirror a :class:`~repro.serve.stats.ServerStats` into ``repro_serve_*``."""
    requests = registry.counter(
        "repro_serve_requests_total", "Requests submitted per endpoint"
    )
    batches = registry.counter(
        "repro_serve_batches_total", "Batches flushed per endpoint"
    )
    batched = registry.counter(
        "repro_serve_batched_requests_total", "Requests resolved in flushed batches"
    )
    handler_seconds = registry.counter(
        "repro_serve_handler_seconds_total", "Batch handler wall-clock seconds"
    )
    occupancy = registry.gauge(
        "repro_serve_batch_occupancy", "Mean requests fused per flushed batch"
    )
    latency = registry.histogram(
        "repro_serve_latency_seconds",
        "Per-request service latency (bounded sample window)",
    )
    latency.reset()
    for kind in sorted(stats.endpoints):
        endpoint = stats.endpoints[kind]
        requests.set_total(endpoint.requests, endpoint=kind)
        batches.set_total(endpoint.batches, endpoint=kind)
        batched.set_total(endpoint.batched_requests, endpoint=kind)
        handler_seconds.set_total(endpoint.seconds, endpoint=kind)
        if endpoint.batches:
            occupancy.set(endpoint.mean_batch_occupancy, endpoint=kind)
        for sample in endpoint.latencies:
            latency.observe(float(sample), endpoint=kind)

    registry.gauge("repro_serve_ticks", "Logical clock ticks elapsed").set(stats.ticks)
    registry.counter("repro_serve_cache_hits_total", "Completion cache hits").set_total(
        stats.cache_hits
    )
    registry.counter(
        "repro_serve_cache_misses_total", "Completion cache misses"
    ).set_total(stats.cache_misses)
    hit_rate = stats.cache_hit_rate
    if not math.isnan(hit_rate):
        registry.gauge(
            "repro_serve_cache_hit_rate", "Completion cache hit rate"
        ).set(hit_rate)

    tenant_requests = registry.counter(
        "repro_serve_tenant_requests_total", "Requests submitted per tenant"
    )
    tenant_served = registry.counter(
        "repro_serve_tenant_served_total", "Batch slots granted per tenant"
    )
    tenant_starved = registry.counter(
        "repro_serve_tenant_starved_flushes_total",
        "Flushes that left a tenant's pending requests out of the batch",
    )
    for label in sorted(stats.tenants):
        tenant = stats.tenants[label]
        tenant_requests.set_total(tenant.requests, tenant=label)
        tenant_served.set_total(tenant.served, tenant=label)
        tenant_starved.set_total(tenant.starved_flushes, tenant=label)

    for label in sorted(stats.learners):
        ingest_learner(registry, stats.learners[label], learner=label)


def server_stats_metrics(stats: Any) -> Dict[str, object]:
    """The flat ``repro_serve_*`` sample view of a :class:`ServerStats`."""
    out: Dict[str, object] = {}
    for kind in sorted(stats.endpoints):
        endpoint = stats.endpoints[kind]
        out[_sample_name("repro_serve_requests_total", endpoint=kind)] = endpoint.requests
        out[_sample_name("repro_serve_batches_total", endpoint=kind)] = endpoint.batches
        out[_sample_name("repro_serve_batched_requests_total", endpoint=kind)] = (
            endpoint.batched_requests
        )
        out[_sample_name("repro_serve_handler_seconds_total", endpoint=kind)] = (
            endpoint.seconds
        )
        if endpoint.batches:
            out[_sample_name("repro_serve_batch_occupancy", endpoint=kind)] = (
                endpoint.mean_batch_occupancy
            )
    out["repro_serve_ticks"] = stats.ticks
    out["repro_serve_cache_hits_total"] = stats.cache_hits
    out["repro_serve_cache_misses_total"] = stats.cache_misses
    hit_rate = stats.cache_hit_rate
    if not math.isnan(hit_rate):
        out["repro_serve_cache_hit_rate"] = hit_rate
    for label in sorted(stats.tenants):
        tenant = stats.tenants[label]
        out[_sample_name("repro_serve_tenant_requests_total", tenant=label)] = (
            tenant.requests
        )
        out[_sample_name("repro_serve_tenant_served_total", tenant=label)] = tenant.served
        out[_sample_name("repro_serve_tenant_starved_flushes_total", tenant=label)] = (
            tenant.starved_flushes
        )
    for label in sorted(stats.learners):
        out.update(learner_metrics(stats.learners[label], learner=label))
    return out


# -- ALS -------------------------------------------------------------------------

_ALS_COUNTERS = {
    "solves": ("repro_als_solves_total", "ALS kernel solve calls"),
    "matrices": ("repro_als_matrices_total", "Matrices completed"),
    "sweeps_run": ("repro_als_sweeps_run_total", "ALS sweeps executed"),
}


def ingest_solver_stats(
    registry: MetricsRegistry, solver_stats: Any, *, backend: str = "numpy"
) -> None:
    """Mirror a :class:`~repro.inference.als.SolverStats` into ``repro_als_*``."""
    for attr, (name, help_text) in _ALS_COUNTERS.items():
        registry.counter(name, help_text).set_total(
            getattr(solver_stats, attr), backend=backend
        )


def solver_stats_metrics(solver_stats: Any, *, backend: Optional[str] = None) -> Dict[str, object]:
    """The flat ``repro_als_*`` sample view of a :class:`SolverStats`."""
    labels = {} if backend is None else {"backend": backend}
    return {
        _sample_name(name, **labels): getattr(solver_stats, attr)
        for attr, (name, _) in _ALS_COUNTERS.items()
    }


# -- learner ---------------------------------------------------------------------

_LEARNER_GAUGES = {
    "total_steps": ("repro_learner_total_steps", "Agent environment steps observed"),
    "learn_steps": ("repro_learner_learn_steps", "Fused minibatch updates applied"),
}

_WEIGHT_GAUGES = {
    "version": ("repro_learner_weights_version", "Published weight version"),
    "publishes": ("repro_learner_weights_publishes_total", "Weight publications"),
    "pulls": ("repro_learner_weights_pulls_total", "Weight pulls by actors"),
    "stale_pulls": (
        "repro_learner_weights_stale_pulls_total",
        "Pulls that observed an outdated version",
    ),
    "mean_versions_behind": (
        "repro_learner_weights_mean_versions_behind",
        "Mean staleness of pulled weights (versions)",
    ),
    "max_versions_behind": (
        "repro_learner_weights_max_versions_behind",
        "Worst staleness of pulled weights (versions)",
    ),
}

_REPLAY_GAUGES = {
    "capacity": ("repro_learner_replay_capacity", "Shared replay buffer capacity"),
    "size": ("repro_learner_replay_size", "Transitions currently buffered"),
    "batches": ("repro_learner_replay_batches_total", "Transition batches ingested"),
    "transitions": (
        "repro_learner_replay_transitions_total",
        "Transitions ingested across campaigns",
    ),
}


def ingest_learner(
    registry: MetricsRegistry,
    telemetry: Mapping[str, Any],
    *,
    learner: str = "learner-0",
) -> None:
    """Mirror one :meth:`Learner.telemetry` snapshot into ``repro_learner_*``.

    Accepts the full telemetry dict (``weights`` / ``replay`` sub-dicts are
    optional, so :attr:`ServerStats.learners` entries ingest unchanged).
    """
    for key, (name, help_text) in _LEARNER_GAUGES.items():
        if key in telemetry:
            registry.gauge(name, help_text).set(float(telemetry[key]), learner=learner)
    weights = telemetry.get("weights") or {}
    for key, (name, help_text) in _WEIGHT_GAUGES.items():
        if key in weights:
            registry.gauge(name, help_text).set(float(weights[key]), learner=learner)
    replay = telemetry.get("replay") or {}
    for key, (name, help_text) in _REPLAY_GAUGES.items():
        if key in replay:
            registry.gauge(name, help_text).set(float(replay[key]), learner=learner)
    if replay.get("capacity"):
        registry.gauge(
            "repro_learner_replay_occupancy",
            "Replay buffer fill fraction (size / capacity)",
        ).set(float(replay["size"]) / float(replay["capacity"]), learner=learner)
    campaigns = replay.get("campaigns") or {}
    if campaigns:
        per_campaign = registry.gauge(
            "repro_learner_replay_campaign_transitions",
            "Transitions ingested per campaign",
        )
        for campaign in sorted(campaigns):
            per_campaign.set(
                float(campaigns[campaign]["transitions"]),
                learner=learner,
                campaign=campaign,
            )


def learner_metrics(
    telemetry: Mapping[str, Any], *, learner: Optional[str] = None
) -> Dict[str, object]:
    """The flat ``repro_learner_*`` sample view of a telemetry snapshot."""
    labels = {} if learner is None else {"learner": learner}
    out: Dict[str, object] = {}
    for key, (name, _) in _LEARNER_GAUGES.items():
        if key in telemetry:
            out[_sample_name(name, **labels)] = telemetry[key]
    weights = telemetry.get("weights") or {}
    for key, (name, _) in _WEIGHT_GAUGES.items():
        if key in weights:
            out[_sample_name(name, **labels)] = weights[key]
    replay = telemetry.get("replay") or {}
    for key, (name, _) in _REPLAY_GAUGES.items():
        if key in replay:
            out[_sample_name(name, **labels)] = replay[key]
    if replay.get("capacity"):
        out[_sample_name("repro_learner_replay_occupancy", **labels)] = float(
            replay["size"]
        ) / float(replay["capacity"])
    for campaign in sorted(replay.get("campaigns") or {}):
        out[
            _sample_name(
                "repro_learner_replay_campaign_transitions",
                campaign=campaign,
                **labels,
            )
        ] = replay["campaigns"][campaign]["transitions"]
    return out


# -- trainer ---------------------------------------------------------------------


def ingest_training_report(
    registry: MetricsRegistry, report: Any, *, run: str = "train"
) -> None:
    """Mirror a :class:`~repro.core.trainer.TrainingReport` into ``repro_train_*``."""
    registry.counter(
        "repro_train_episodes_total", "Training episodes completed"
    ).set_total(report.episodes, run=run)
    registry.counter(
        "repro_train_steps_total", "Environment steps taken during training"
    ).set_total(report.total_steps, run=run)
    registry.gauge(
        "repro_train_wall_clock_seconds", "Training wall-clock seconds"
    ).set(report.wall_clock_seconds, run=run)
    if report.wall_clock_seconds > 0:
        registry.gauge(
            "repro_train_steps_per_second", "Training throughput (steps/s)"
        ).set(report.total_steps / report.wall_clock_seconds, run=run)
    rewards = getattr(report, "episode_rewards", None)
    if rewards is not None and len(rewards):
        registry.gauge(
            "repro_train_mean_episode_reward", "Mean episode reward"
        ).set(float(sum(rewards) / len(rewards)), run=run)


def training_report_metrics(report: Any, *, run: Optional[str] = None) -> Dict[str, object]:
    """The flat ``repro_train_*`` sample view of a :class:`TrainingReport`."""
    labels = {} if run is None else {"run": run}
    out: Dict[str, object] = {
        _sample_name("repro_train_episodes_total", **labels): report.episodes,
        _sample_name("repro_train_steps_total", **labels): report.total_steps,
        _sample_name("repro_train_wall_clock_seconds", **labels): report.wall_clock_seconds,
    }
    if report.wall_clock_seconds > 0:
        out[_sample_name("repro_train_steps_per_second", **labels)] = (
            report.total_steps / report.wall_clock_seconds
        )
    return out
