"""ServerStats latency telemetry, asserted exactly.

ServerStats times a batch by the handler's :func:`repro.utils.timing.monotonic`
readings on the flush record the server's event stream hands it, so the
recorded seconds are exact: these tests feed records with chosen readings,
and drive a real server under :func:`~repro.utils.timing.fake_clock`.
"""

from __future__ import annotations

import math

import pytest

from repro.serve.batcher import ServeRequest
from repro.serve.server import DecisionServer, FlushRecord
from repro.serve.stats import EndpointStats, ServerStats
from repro.utils.timing import fake_clock


def record_batch(stats, kind, size, seconds=0.0, learners=None):
    """Feed ``stats`` one flush/flushed pair for a ``size``-request batch."""
    record = FlushRecord(
        kind,
        0,
        "forced",
        [ServeRequest(kind, None) for _ in range(size)],
        learners=learners or {},
        end=seconds,
    )
    stats.flush(record)
    stats.flushed(record)


def record_request(stats, kind):
    stats.request(ServeRequest(kind, None))


class FakeLearner:
    def __init__(self, telemetry):
        self.snapshot = telemetry

    def telemetry(self):
        return self.snapshot


class StubSelector:
    """Passes the select endpoint's submission checks; the test patches the handler."""

    state_shape = (2,)
    n_actions = 2

    def acting(self):
        raise AssertionError("a patched select handler never asks the selector")


class TestRecordBatchLatency:
    def test_batch_seconds_are_exact_under_fake_clock(self):
        stats = ServerStats()
        record_batch(stats, "select_cell", 4, seconds=1.5)
        endpoint = stats.endpoint("select_cell")
        assert endpoint.seconds == 1.5
        assert endpoint.batches == 1
        assert endpoint.batched_requests == 4
        assert endpoint.mean_latency_seconds == 1.5 / 4

    def test_latency_accumulates_across_batches(self):
        stats = ServerStats()
        for seconds, size in ((0.25, 2), (0.75, 6)):
            record_batch(stats, "assess_quality", size, seconds=seconds)
        endpoint = stats.endpoint("assess_quality")
        assert endpoint.seconds == 1.0
        assert endpoint.batches == 2
        assert endpoint.mean_batch_occupancy == 4.0
        assert endpoint.mean_latency_seconds == 1.0 / 8

    def test_batch_timed_even_when_handler_raises(self):
        with fake_clock() as clock:
            server = DecisionServer()

            def slow_unreadable_answers(requests):
                clock.advance(2.0)
                raise ValueError("not-an-action")

            server._handle_select = slow_unreadable_answers
            future = server.select_cell(StubSelector(), [0.0, 0.0], [True, True])
            with pytest.raises(ValueError, match="not-an-action"):
                server.flush()
        endpoint = server.stats.endpoint("select")
        assert endpoint.seconds == 2.0
        assert endpoint.batches == 1
        with pytest.raises(ValueError, match="not-an-action"):
            future.result()

    def test_as_dict_reports_exact_latency(self):
        stats = ServerStats()
        record_batch(stats, "select_cell", 2, seconds=0.5)
        snapshot = stats.as_dict()["endpoints"]["select_cell"]
        assert snapshot["seconds"] == 0.5
        assert snapshot["mean_latency_seconds"] == 0.25


class TestLatencyPercentiles:
    def test_percentiles_are_exact_over_recorded_batches(self):
        # Each request's latency is its batch's handler duration, so three
        # flushes give a known sample multiset to take percentiles over.
        stats = ServerStats()
        for seconds, size in ((0.1, 2), (0.2, 1), (0.4, 1)):
            record_batch(stats, "select", size, seconds=seconds)
        endpoint = stats.endpoint("select")
        # Samples: [0.1, 0.1, 0.2, 0.4] — exact, not reservoir-approximated.
        assert endpoint.latency_percentile(50) == pytest.approx(0.15)
        assert endpoint.latency_percentile(100) == pytest.approx(0.4)
        assert endpoint.latency_percentile(0) == pytest.approx(0.1)

    def test_every_request_in_a_batch_records_the_batch_latency(self):
        stats = ServerStats()
        record_batch(stats, "assess", 5, seconds=2.0)
        assert stats.endpoint("assess").latencies == [2.0] * 5

    def test_as_dict_reports_p50_and_p99(self):
        stats = ServerStats()
        for seconds in (0.1, 0.3):
            record_batch(stats, "select", 1, seconds=seconds)
        snapshot = stats.as_dict()["endpoints"]["select"]
        assert snapshot["p50_latency_seconds"] == 0.2
        assert snapshot["p99_latency_seconds"] == pytest.approx(0.298, abs=1e-9)

    def test_percentiles_are_none_before_any_flush(self):
        stats = ServerStats()
        record_request(stats, "select")
        snapshot = stats.as_dict()["endpoints"]["select"]
        assert snapshot["p50_latency_seconds"] is None
        assert snapshot["p99_latency_seconds"] is None
        assert math.isnan(stats.endpoint("select").latency_percentile(50))


class TestLearnerTelemetry:
    def test_record_learner_snapshots_are_stored_per_label(self):
        stats = ServerStats()
        learner = FakeLearner({"mode": "fused", "total_steps": 10})
        record_batch(stats, "learn", 1, learners={"learner-0": learner})
        learner.snapshot = {"mode": "fused", "total_steps": 20}
        record_batch(stats, "learn", 1, learners={"learner-0": learner})
        other = FakeLearner({"mode": "synchronous", "total_steps": 3})
        record_batch(stats, "learn", 1, learners={"learner-1": other})
        snapshot = stats.as_dict()["learners"]
        assert snapshot["learner-0"]["total_steps"] == 20
        assert snapshot["learner-1"]["mode"] == "synchronous"

    def test_record_learner_copies_the_payload(self):
        stats = ServerStats()
        payload = {"total_steps": 1}
        record_batch(stats, "learn", 1, learners={"learner-0": FakeLearner(payload)})
        payload["total_steps"] = 99
        assert stats.as_dict()["learners"]["learner-0"]["total_steps"] == 1

    def test_learners_key_is_always_present(self):
        assert ServerStats().as_dict()["learners"] == {}


class TestEndpointStatsEdges:
    def test_no_flushes_means_nan_not_division_error(self):
        endpoint = EndpointStats()
        assert math.isnan(endpoint.mean_batch_occupancy)
        assert math.isnan(endpoint.mean_latency_seconds)

    def test_record_request_counts_independently_of_batches(self):
        stats = ServerStats()
        record_request(stats, "select_cell")
        record_request(stats, "select_cell")
        assert stats.endpoint("select_cell").requests == 2
        assert stats.endpoint("select_cell").batches == 0
