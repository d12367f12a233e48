"""Adapters: subsystem telemetry mirrored into the ``repro_*`` namespace.

Also covers the ``metrics()`` methods on :class:`ServerStats` /
:class:`SolverStats` / :class:`Learner` — the canonical flat-sample view of
each subsystem's telemetry (the legacy ``as_dict()`` / ``telemetry()``
shapes stay untouched as backwards-compatible aliases).
"""

from dataclasses import dataclass, field
from typing import Tuple

import pytest

from repro.inference.als import SolverStats
from repro.obs.adapters import (
    ingest_learner,
    ingest_server_stats,
    ingest_solver_stats,
    ingest_training_report,
    learner_metrics,
    training_report_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.stats import ServerStats
from repro.utils.timing import fake_clock


def build_server_stats() -> ServerStats:
    """Hand-exercise a ServerStats the way the server does, deterministically."""
    stats = ServerStats()
    with fake_clock() as clock:
        stats.record_request("assess", tenant="t0")
        stats.record_request("assess", tenant="t1")
        stats.record_request("select", tenant="t0")
        with stats.record_batch("assess", 2):
            clock.advance(0.5)
        with stats.record_batch("select", 1):
            clock.advance(0.25)
    stats.ticks = 2
    stats.record_fairness(("t0", "t1"), ())
    stats.record_fairness(("t0",), ("t1",))
    stats.record_learner("learner-0", {"total_steps": 40, "learn_steps": 4})
    return stats


class TestServerStatsIngestion:
    def test_counters_gauges_and_latency_mirror_the_stats(self):
        stats = build_server_stats()
        registry = MetricsRegistry()
        ingest_server_stats(registry, stats)

        requests = registry.get("repro_serve_requests_total")
        assert requests.value(endpoint="assess") == 2
        assert requests.value(endpoint="select") == 1
        assert registry.get("repro_serve_batches_total").value(endpoint="assess") == 1
        assert (
            registry.get("repro_serve_handler_seconds_total").value(endpoint="assess")
            == 0.5
        )
        assert registry.get("repro_serve_batch_occupancy").value(endpoint="assess") == 2.0
        assert registry.get("repro_serve_ticks").value() == 2

        # Each request in a flushed batch records the batch's duration.
        latency = registry.get("repro_serve_latency_seconds")
        assert latency.series(endpoint="assess").count == 2
        assert latency.series(endpoint="assess").sum == 1.0
        assert latency.series(endpoint="select").count == 1

        tenants = registry.get("repro_serve_tenant_requests_total")
        assert tenants.value(tenant="t0") == 2
        assert tenants.value(tenant="t1") == 1
        assert (
            registry.get("repro_serve_tenant_starved_flushes_total").value(tenant="t1")
            == 1
        )
        # The pushed learner telemetry rides along, labelled by learner.
        assert (
            registry.get("repro_learner_total_steps").value(learner="learner-0") == 40
        )

    def test_reingestion_is_idempotent_not_double_counting(self):
        stats = build_server_stats()
        registry = MetricsRegistry()
        ingest_server_stats(registry, stats)
        ingest_server_stats(registry, stats)
        assert registry.get("repro_serve_requests_total").value(endpoint="assess") == 2
        assert registry.get("repro_serve_latency_seconds").series(endpoint="assess").count == 2

    def test_metrics_method_returns_the_flat_sample_view(self):
        stats = build_server_stats()
        flat = stats.metrics()
        assert flat['repro_serve_requests_total{endpoint="assess"}'] == 2
        assert flat['repro_serve_batch_occupancy{endpoint="assess"}'] == 2.0
        assert flat["repro_serve_ticks"] == 2
        assert flat['repro_serve_tenant_served_total{tenant="t0"}'] == 2
        assert flat['repro_learner_total_steps{learner="learner-0"}'] == 40
        # The legacy alias keeps its shape.
        assert stats.as_dict()["endpoints"]["assess"]["requests"] == 2


class TestSolverStatsIngestion:
    def test_solver_counters_land_labelled_by_backend(self):
        solver_stats = SolverStats()
        solver_stats.solves = 7
        solver_stats.matrices = 3
        solver_stats.sweeps_run = 12
        registry = MetricsRegistry()
        ingest_solver_stats(registry, solver_stats, backend="numpy")
        assert registry.get("repro_als_solves_total").value(backend="numpy") == 7
        assert registry.get("repro_als_sweeps_run_total").value(backend="numpy") == 12

    def test_metrics_method_matches_the_adapter(self):
        solver_stats = SolverStats()
        solver_stats.solves = 7
        solver_stats.sweeps_run = 12
        flat = solver_stats.metrics(backend="numpy")
        assert flat['repro_als_solves_total{backend="numpy"}'] == 7
        assert flat['repro_als_sweeps_run_total{backend="numpy"}'] == 12
        # Unlabelled when no backend is named.
        assert solver_stats.metrics()["repro_als_solves_total"] == 7


FULL_TELEMETRY = {
    "total_steps": 100,
    "learn_steps": 10,
    "weights": {
        "version": 5,
        "publishes": 5,
        "pulls": 20,
        "stale_pulls": 3,
        "mean_versions_behind": 0.4,
        "max_versions_behind": 2,
    },
    "replay": {
        "capacity": 256,
        "size": 64,
        "batches": 16,
        "transitions": 64,
        "campaigns": {"camp-a": {"transitions": 40}, "camp-b": {"transitions": 24}},
    },
}


class TestLearnerIngestion:
    def test_full_telemetry_maps_to_gauges_and_occupancy(self):
        registry = MetricsRegistry()
        ingest_learner(registry, FULL_TELEMETRY, learner="L0")
        assert registry.get("repro_learner_weights_version").value(learner="L0") == 5
        assert (
            registry.get("repro_learner_weights_stale_pulls_total").value(learner="L0")
            == 3
        )
        assert registry.get("repro_learner_replay_size").value(learner="L0") == 64
        assert (
            registry.get("repro_learner_replay_occupancy").value(learner="L0") == 0.25
        )
        per_campaign = registry.get("repro_learner_replay_campaign_transitions")
        assert per_campaign.value(learner="L0", campaign="camp-a") == 40
        assert per_campaign.value(learner="L0", campaign="camp-b") == 24

    def test_partial_telemetry_is_accepted(self):
        registry = MetricsRegistry()
        ingest_learner(registry, {"total_steps": 10}, learner="L0")
        assert registry.get("repro_learner_total_steps").value(learner="L0") == 10
        assert "repro_learner_replay_occupancy" not in registry

    def test_flat_view_and_real_learner_metrics_method(self):
        flat = learner_metrics(FULL_TELEMETRY, learner="L0")
        assert flat['repro_learner_replay_occupancy{learner="L0"}'] == 0.25
        assert (
            flat['repro_learner_replay_campaign_transitions{campaign="camp-a",learner="L0"}']
            == 40
        )

        from repro.core.drcell import DRCellAgent, DRCellConfig
        from repro.learner import Learner, LearnerConfig
        from repro.rl.dqn import DQNConfig

        agent = DRCellAgent.build(
            4,
            DRCellConfig(
                window=2,
                seed=0,
                lstm_hidden=8,
                dense_hidden=(8,),
                dqn=DQNConfig(batch_size=8, min_replay_size=8, replay_capacity=64),
            ),
        )
        learner = Learner(agent, config=LearnerConfig(steps_per_publish=4))
        flat = learner.metrics(learner="L0")
        assert flat['repro_learner_total_steps{learner="L0"}'] == 0
        assert flat['repro_learner_weights_version{learner="L0"}'] == learner.telemetry()["weights"]["version"]


@dataclass
class FakeTrainingReport:
    """The duck-typed subset of TrainingReport the adapter reads."""

    episodes: int = 8
    total_steps: int = 400
    wall_clock_seconds: float = 2.0
    episode_rewards: Tuple[float, ...] = (1.0, 3.0)


class TestTrainingReportIngestion:
    def test_report_maps_to_totals_and_throughput(self):
        registry = MetricsRegistry()
        ingest_training_report(registry, FakeTrainingReport(), run="temperature")
        assert (
            registry.get("repro_train_episodes_total").value(run="temperature") == 8
        )
        assert registry.get("repro_train_steps_total").value(run="temperature") == 400
        assert (
            registry.get("repro_train_steps_per_second").value(run="temperature")
            == 200.0
        )
        assert (
            registry.get("repro_train_mean_episode_reward").value(run="temperature")
            == 2.0
        )

    def test_zero_wall_clock_skips_throughput(self):
        registry = MetricsRegistry()
        report = FakeTrainingReport(wall_clock_seconds=0.0)
        ingest_training_report(registry, report, run="r")
        assert "repro_train_steps_per_second" not in registry
        flat = training_report_metrics(report, run="r")
        assert 'repro_train_steps_per_second{run="r"}' not in flat
        assert flat['repro_train_episodes_total{run="r"}'] == 8
