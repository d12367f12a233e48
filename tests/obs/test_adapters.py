"""Adapters: subsystem telemetry mirrored into the ``repro_*`` namespace.

Also covers the ``metrics()`` methods on :class:`ServerStats` /
:class:`SolverStats` / :class:`Learner` / :class:`TrainingReport` — the
canonical flat-sample view of each subsystem's telemetry, which is exactly
what the exporter renders for the ingested registry (the legacy
``as_dict()`` / ``telemetry()`` shapes stay untouched as
backwards-compatible aliases).
"""

from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.core.trainer import TrainingReport
from repro.inference.als import SolverStats
from repro.obs.adapters import (
    ingest_learner,
    ingest_server_stats,
    ingest_solver_stats,
    ingest_training_report,
)
from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import ServeRequest
from repro.serve.server import FlushRecord
from repro.serve.stats import ServerStats


class FakeLearner:
    def telemetry(self):
        return {"total_steps": 40, "learn_steps": 4}


def build_server_stats() -> ServerStats:
    """Feed a ServerStats the server's events, with exact handler timings."""
    stats = ServerStats()
    requests = [
        ServeRequest("assess", None, tenant="t0"),
        ServeRequest("assess", None, tenant="t1"),
        ServeRequest("select", None, tenant="t0"),
    ]
    for request in requests:
        stats.request(request)
    flushes = [
        FlushRecord("assess", 1, "due", requests[:2], end=0.5),
        FlushRecord("select", 2, "due", requests[2:], starved=("t1",), start=0.5, end=0.75),
        FlushRecord("learn", 2, "forced", [], learners={"learner-0": FakeLearner()}),
    ]
    for record in flushes:
        stats.flush(record)
        stats.flushed(record)
    return stats


def exported_samples(ingest, source, **labels):
    """The exporter's samples for ``source`` ingested into a fresh registry."""
    registry = MetricsRegistry()
    ingest(registry, source, **labels)
    return {
        sample: value
        for family in parse_prometheus(render_prometheus(registry)).values()
        for sample, value in family["samples"].items()
    }


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
        assert flat['repro_serve_latency_seconds_count{endpoint="assess"}'] == 2
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
        flat = exported_samples(ingest_learner, FULL_TELEMETRY, learner="L0")
        assert flat['repro_learner_replay_occupancy{learner="L0"}'] == 0.25
        assert (
            flat['repro_learner_replay_campaign_transitions{campaign="camp-a",learner="L0"}']
            == 40
        )

        learner = build_learner()
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
        flat = exported_samples(ingest_training_report, report, run="r")
        assert 'repro_train_steps_per_second{run="r"}' not in flat
        assert flat['repro_train_episodes_total{run="r"}'] == 8


def build_learner():
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
    return Learner(agent, config=LearnerConfig(steps_per_publish=4))


class TestMetricsViewsAreTheExportersSamples:
    """Every ``metrics()`` flat view is the exporter's samples, labelled or not."""

    def test_server_stats(self):
        stats = build_server_stats()
        assert stats.metrics() == exported_samples(ingest_server_stats, stats)

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_solver_stats(self, backend):
        solver_stats = SolverStats()
        solver_stats.record(matrices=3, sweeps_run=12)
        expected = exported_samples(ingest_solver_stats, solver_stats, backend=backend)
        assert solver_stats.metrics(backend=backend) == expected
        assert ("repro_als_solves_total" in expected) == (backend is None)

    @pytest.mark.parametrize("label", [None, "L0"])
    def test_learner(self, label):
        learner = build_learner()
        expected = exported_samples(ingest_learner, learner.telemetry(), learner=label)
        assert learner.metrics(learner=label) == expected
        assert ("repro_learner_total_steps" in expected) == (label is None)

    @pytest.mark.parametrize("run", [None, "r"])
    def test_training_report(self, run):
        report = TrainingReport(
            episodes=8, total_steps=400, wall_clock_seconds=2.0, episode_rewards=[1.0, 3.0]
        )
        expected = exported_samples(ingest_training_report, report, run=run)
        assert report.metrics(run=run) == expected
        mean_reward = "repro_train_mean_episode_reward" + ("" if run is None else '{run="r"}')
        assert expected[mean_reward] == 2.0
