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

:func:`flat_samples` runs one adapter into a fresh registry and returns the
exporter's samples as a flat ``{sample_name: value}`` dict —
``repro_serve_requests_total{endpoint="select"}`` style keys.  It backs the
``metrics()`` methods on ``ServerStats`` / ``SolverStats`` / ``Learner`` /
``TrainingReport``, which is where the repo's telemetry dialects converge
(the legacy ``as_dict()`` / ``telemetry()`` shapes remain as
backwards-compatible aliases), so each family's mapping is written once.
A label passed as ``None`` is left off the samples.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Optional

from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ingest_server_stats",
    "ingest_solver_stats",
    "ingest_learner",
    "ingest_training_report",
    "flat_samples",
]


def flat_samples(
    ingest: Callable[..., None], source: Any, **labels: Optional[str]
) -> Dict[str, float]:
    """``ingest(registry, source, **labels)`` into a fresh registry; its samples.

    The flat ``{sample_name: value}`` view is the exporter's own: the
    registry is rendered as Prometheus text and parsed back, so a
    ``metrics()`` view can never drift from what ``python -m repro.obs``
    exports.
    """
    registry = MetricsRegistry()
    ingest(registry, source, **labels)
    return {
        sample: value
        for family in parse_prometheus(render_prometheus(registry)).values()
        for sample, value in family["samples"].items()
    }


def _label(name: str, value: Optional[str]) -> Dict[str, str]:
    """``{name: value}``, or no label at all when ``value`` is None."""
    return {} if value is None else {name: value}


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


# -- ALS -------------------------------------------------------------------------

_ALS_COUNTERS = {
    "solves": ("repro_als_solves_total", "ALS kernel solve calls"),
    "matrices": ("repro_als_matrices_total", "Matrices completed"),
    "sweeps_run": ("repro_als_sweeps_run_total", "ALS sweeps executed"),
}


def ingest_solver_stats(
    registry: MetricsRegistry, solver_stats: Any, *, backend: Optional[str] = "numpy"
) -> None:
    """Mirror a :class:`~repro.inference.als.SolverStats` into ``repro_als_*``."""
    labels = _label("backend", backend)
    for attr, (name, help_text) in _ALS_COUNTERS.items():
        registry.counter(name, help_text).set_total(getattr(solver_stats, attr), **labels)


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
    learner: Optional[str] = "learner-0",
) -> None:
    """Mirror one :meth:`Learner.telemetry` snapshot into ``repro_learner_*``.

    Accepts the full telemetry dict (``weights`` / ``replay`` sub-dicts are
    optional, so :attr:`ServerStats.learners` entries ingest unchanged).
    """
    labels = _label("learner", learner)
    for key, (name, help_text) in _LEARNER_GAUGES.items():
        if key in telemetry:
            registry.gauge(name, help_text).set(float(telemetry[key]), **labels)
    weights = telemetry.get("weights") or {}
    for key, (name, help_text) in _WEIGHT_GAUGES.items():
        if key in weights:
            registry.gauge(name, help_text).set(float(weights[key]), **labels)
    replay = telemetry.get("replay") or {}
    for key, (name, help_text) in _REPLAY_GAUGES.items():
        if key in replay:
            registry.gauge(name, help_text).set(float(replay[key]), **labels)
    if replay.get("capacity"):
        registry.gauge(
            "repro_learner_replay_occupancy",
            "Replay buffer fill fraction (size / capacity)",
        ).set(float(replay["size"]) / float(replay["capacity"]), **labels)
    campaigns = replay.get("campaigns") or {}
    if campaigns:
        per_campaign = registry.gauge(
            "repro_learner_replay_campaign_transitions",
            "Transitions ingested per campaign",
        )
        for campaign in sorted(campaigns):
            per_campaign.set(
                float(campaigns[campaign]["transitions"]), campaign=campaign, **labels
            )


# -- trainer ---------------------------------------------------------------------


def ingest_training_report(
    registry: MetricsRegistry, report: Any, *, run: Optional[str] = "train"
) -> None:
    """Mirror a :class:`~repro.core.trainer.TrainingReport` into ``repro_train_*``."""
    labels = _label("run", run)
    registry.counter(
        "repro_train_episodes_total", "Training episodes completed"
    ).set_total(report.episodes, **labels)
    registry.counter(
        "repro_train_steps_total", "Environment steps taken during training"
    ).set_total(report.total_steps, **labels)
    registry.gauge(
        "repro_train_wall_clock_seconds", "Training wall-clock seconds"
    ).set(report.wall_clock_seconds, **labels)
    if report.wall_clock_seconds > 0:
        registry.gauge(
            "repro_train_steps_per_second", "Training throughput (steps/s)"
        ).set(report.total_steps / report.wall_clock_seconds, **labels)
    rewards = getattr(report, "episode_rewards", None)
    if rewards is not None and len(rewards):
        registry.gauge(
            "repro_train_mean_episode_reward", "Mean episode reward"
        ).set(float(sum(rewards) / len(rewards)), **labels)
