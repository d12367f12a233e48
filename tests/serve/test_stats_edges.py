"""Edge-case tests for server telemetry: empty, single-sample, and tied inputs."""

import json
import math

from repro.serve.batcher import ServeRequest
from repro.serve.server import FlushRecord
from repro.serve.stats import EndpointStats, ServerStats, TenantStats


class FakeLearner:
    def telemetry(self):
        return {"published_version": 3}


class TestLatencyPercentileEdges:
    def test_zero_samples_every_percentile_is_nan(self):
        stats = EndpointStats()
        for q in (0, 50, 99, 100):
            assert math.isnan(stats.latency_percentile(q))
        assert math.isnan(stats.mean_latency_seconds)
        assert math.isnan(stats.mean_batch_occupancy)

    def test_single_sample_every_percentile_is_that_sample(self):
        stats = EndpointStats(
            requests=1, batches=1, batched_requests=1, seconds=0.25, latencies=[0.25]
        )
        for q in (0, 50, 99, 100):
            assert stats.latency_percentile(q) == 0.25
        assert stats.mean_latency_seconds == 0.25

    def test_all_equal_samples_tie_to_the_shared_value(self):
        # The common case: every request in a batch records the batch's
        # handler duration, so the sample set is all-ties.
        stats = EndpointStats(
            requests=5,
            batches=1,
            batched_requests=5,
            seconds=0.5,
            latencies=[0.1] * 5,
        )
        assert stats.latency_percentile(50) == stats.latency_percentile(99) == 0.1


class TestAsDictStability:
    def test_zero_samples_as_dict_has_no_nans(self):
        snapshot = EndpointStats().as_dict()
        assert snapshot["mean_batch_occupancy"] is None
        assert snapshot["mean_latency_seconds"] is None
        assert snapshot["p50_latency_seconds"] is None
        assert snapshot["p99_latency_seconds"] is None
        json.dumps(snapshot)  # strictly JSON-able (no NaN floats)

    def test_requests_without_flush_still_reports_none(self):
        stats = EndpointStats(requests=3)
        snapshot = stats.as_dict()
        assert snapshot["requests"] == 3
        assert snapshot["p50_latency_seconds"] is None
        assert stats.deterministic_dict()["mean_batch_occupancy"] is None

    def test_single_sample_as_dict_round_numbers(self):
        stats = EndpointStats(
            requests=1, batches=1, batched_requests=1, seconds=0.125, latencies=[0.125]
        )
        snapshot = stats.as_dict()
        assert snapshot["mean_batch_occupancy"] == 1.0
        assert snapshot["p50_latency_seconds"] == snapshot["p99_latency_seconds"] == 0.125

    def test_server_stats_as_dict_stable_with_no_traffic(self):
        stats = ServerStats()
        snapshot = stats.as_dict()
        assert snapshot["cache_hit_rate"] is None  # no cache traffic, not NaN
        assert snapshot["endpoints"] == {}
        assert snapshot["tenants"] == {}
        json.dumps(snapshot)
        json.dumps(stats.deterministic_dict())

    def test_deterministic_dict_never_carries_wall_clock_fields(self):
        stats = ServerStats()
        record = FlushRecord("select", 0, "forced", [ServeRequest("select", None)] * 4)
        stats.flush(record)
        stats.flushed(record)
        deterministic = stats.deterministic_dict()["endpoints"]["select"]
        assert "seconds" not in deterministic
        assert "p50_latency_seconds" not in deterministic
        assert deterministic["batched_requests"] == 4


class TestStateRoundTripsUnderEdgeInputs:
    def test_empty_endpoint_round_trips(self):
        stats = EndpointStats()
        clone = EndpointStats()
        clone.load_state_dict(stats.state_dict())
        assert clone.state_dict() == stats.state_dict()

    def test_tenant_stats_round_trips(self):
        tenant = TenantStats(requests=7, served=5, starved_flushes=2)
        clone = TenantStats()
        clone.load_state_dict(json.loads(json.dumps(tenant.state_dict())))
        assert clone.as_dict() == tenant.as_dict()

    def test_server_stats_round_trips_through_json(self):
        stats = ServerStats()
        requests = [ServeRequest("select", None, tenant=tenant) for tenant in "ab"]
        for request in requests:
            stats.request(request)
        record = FlushRecord(
            "select",
            11,
            "full",
            requests[:1],
            starved=("b",),
            learners={"learner-0": FakeLearner()},
        )
        stats.flush(record)
        stats.flushed(record)
        clone = ServerStats()
        clone.load_state_dict(json.loads(json.dumps(stats.state_dict())))
        assert clone.deterministic_dict() == stats.deterministic_dict()
        assert clone.tenants["b"].starved_flushes == 1
