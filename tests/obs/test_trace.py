"""Tracer and profiler: exact span timings under a fake clock, Chrome export."""

import json
from dataclasses import dataclass

import pytest

from repro.obs.profile import Profiler, phase
from repro.obs.trace import TRACE_PID, Tracer, validate_chrome_trace
from repro.utils.timing import fake_clock


@dataclass
class FakeRequest:
    """The duck-typed subset of ServeRequest the tracer reads."""

    kind: str
    tenant: str
    sequence: int
    enqueued_at: int


@dataclass
class FakeFlush:
    """The duck-typed subset of the server's FlushRecord the tracer reads."""

    kind: str
    tick: int
    trigger: str
    requests: list
    start: float = 0.0
    end: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


def serve_batch(tracer, record, start, end):
    """The server's flush/flushed pair around a handler timed start..end."""
    tracer.flush(record)
    record.start, record.end = start, end
    tracer.flushed(record)


class TestRequestAndBatchSpans:
    def test_batch_span_parents_its_request_spans_with_exact_times(self):
        tracer = Tracer()
        with fake_clock() as clock:
            first = FakeRequest("assess", "t0", 0, 0)
            tracer.request(first)
            clock.advance(0.5)
            second = FakeRequest("assess", "t1", 1, 3)
            tracer.request(second)
        record = FakeFlush("assess", 5, "full", [first, second], cache_hits=1)
        serve_batch(tracer, record, 1.0, 1.25)

        assert len(tracer) == 3
        assert tracer.open_requests == 0
        assert tracer.open_batches == 0
        batch = next(s for s in tracer.spans if s.cat == "serve.batch")
        requests = [s for s in tracer.spans if s.cat == "serve.request"]
        assert batch.name == "assess batch"
        assert (batch.start, batch.end) == (1.0, 1.25)
        assert batch.args["tick"] == 5
        assert batch.args["trigger"] == "full"
        assert batch.args["size"] == 2
        assert batch.args["sequences"] == [0, 1]
        assert batch.args["cache_hits"] == 1

        # Request spans: open at submit, close with the batch, parented to it.
        by_seq = {span.args["sequence"]: span for span in requests}
        assert (by_seq[0].start, by_seq[0].end) == (0.0, 1.25)
        assert (by_seq[1].start, by_seq[1].end) == (0.5, 1.25)
        for span in requests:
            assert span.parent_id == batch.span_id
        assert by_seq[1].args["wait_ticks"] == 5 - 3
        assert by_seq[0].track == "tenant/t0"
        assert by_seq[1].track == "tenant/t1"

    def test_requests_submitted_before_attach_are_skipped_not_crashed(self):
        tracer = Tracer()
        unseen = FakeRequest("select", "t0", 7, 0)
        serve_batch(tracer, FakeFlush("select", 1, "forced", [unseen]), 0.0, 0.0)
        # Only the batch span exists; the never-minted request is no error.
        assert [span.cat for span in tracer.spans] == ["serve.batch"]

    def test_add_span_nests_under_the_open_batch(self):
        tracer = Tracer()
        request = FakeRequest("complete", "t0", 0, 0)
        tracer.request(request)
        record = FakeFlush("complete", 1, "full", [request])
        tracer.flush(record)
        tracer.add_span("als.solve", cat="profile", start=0.0, end=0.1)
        record.end = 0.1
        tracer.flushed(record)
        # Outside any batch: no parent.
        tracer.add_span("train.lockstep", cat="profile", start=0.2, end=0.3)

        solve = next(s for s in tracer.spans if s.name == "als.solve")
        orphan = next(s for s in tracer.spans if s.name == "train.lockstep")
        batch = next(s for s in tracer.spans if s.cat == "serve.batch")
        assert solve.parent_id == batch.span_id
        assert orphan.parent_id is None


class TestChromeExport:
    def build_trace(self):
        tracer = Tracer()
        with fake_clock():
            request = FakeRequest("assess", "t0", 0, 0)
            tracer.request(request)
        serve_batch(tracer, FakeFlush("assess", 1, "full", [request]), 0.001, 0.003)
        return tracer

    def test_chrome_object_has_metadata_and_microsecond_complete_events(self):
        trace = self.build_trace().to_chrome()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        # One thread_name row per distinct track, all under the single pid.
        assert {m["args"]["name"] for m in metadata} == {"batch/assess", "tenant/t0"}
        assert all(e["pid"] == TRACE_PID for e in events)
        batch = next(e for e in complete if e["cat"] == "serve.batch")
        request = next(e for e in complete if e["cat"] == "serve.request")
        assert batch["ts"] == pytest.approx(1000.0)  # 0.001 s in us
        assert batch["dur"] == pytest.approx(2000.0)
        assert request["ts"] == pytest.approx(0.0)
        assert request["dur"] == pytest.approx(3000.0)
        assert request["args"]["parent"] == batch["args"]["id"]

    def test_save_round_trips_through_json_and_validates(self, tmp_path):
        tracer = self.build_trace()
        path = tracer.save(tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        complete = validate_chrome_trace(loaded)
        assert len(complete) == 2

    def test_validator_rejects_malformed_traces(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="unknown trace event phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError, match="missing dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "x", "ts": 0, "pid": 1, "tid": 1}
                    ]
                }
            )
        with pytest.raises(ValueError, match="negative span duration"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "x", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
                    ]
                }
            )


class TestProfiler:
    def test_phase_is_a_shared_noop_when_no_profiler_is_active(self):
        # The inactive path allocates nothing: one shared null context.
        assert phase("als.solve") is phase("train.lockstep")
        with phase("als.solve"):
            pass  # must be harmless

    def test_active_profiler_records_exact_counts_and_seconds(self):
        profiler = Profiler()
        with fake_clock() as clock:
            with profiler.activate():
                with phase("als.solve"):
                    clock.advance(0.5)
                with phase("als.solve"):
                    clock.advance(0.25)
                with phase("loo.assess"):
                    clock.advance(1.0)
        assert profiler.count("als.solve") == 2
        assert profiler.seconds("als.solve") == 0.75
        assert profiler.as_dict() == {
            "als.solve": {"count": 2, "seconds": 0.75},
            "loo.assess": {"count": 1, "seconds": 1.0},
        }
        # Deactivated on exit: phases no longer record.
        with phase("als.solve"):
            pass
        assert profiler.count("als.solve") == 2

    def test_activation_is_not_reentrant(self):
        profiler = Profiler()
        with profiler.activate():
            with pytest.raises(RuntimeError, match="already active"):
                with Profiler().activate():
                    pass  # pragma: no cover

    def test_profiler_feeds_spans_into_its_tracer(self):
        tracer = Tracer()
        profiler = Profiler(tracer=tracer)
        with fake_clock() as clock:
            with profiler.activate():
                with phase("als.solve"):
                    clock.advance(0.125)
        (span,) = tracer.spans
        assert (span.name, span.cat) == ("als.solve", "profile")
        assert (span.start, span.end) == (0.0, 0.125)

    def test_ingest_mirrors_phase_totals_into_counters(self):
        from repro.obs.metrics import MetricsRegistry

        profiler = Profiler()
        with fake_clock() as clock:
            with profiler.activate():
                with phase("als.solve"):
                    clock.advance(0.5)
        registry = MetricsRegistry()
        profiler.ingest(registry)
        assert registry.get("repro_profile_phase_total").value(phase="als.solve") == 1
        assert (
            registry.get("repro_profile_phase_seconds_total").value(phase="als.solve")
            == 0.5
        )
