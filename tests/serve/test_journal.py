"""Tests for the request journal: recording, fingerprints, diffing, persistence."""

import json

import numpy as np
import pytest

from repro.inference.base import InferenceAlgorithm
from repro.serve.cache import matrix_fingerprint
from repro.serve.journal import (
    JOURNAL_VERSION,
    ReplayReport,
    RequestJournal,
    diff_journals,
    replay_journal,
    weights_fingerprint,
)
from repro.serve.batcher import ServeRequest
from repro.serve.server import DecisionServer, FlushRecord, ServeConfig


class MeanInference(InferenceAlgorithm):
    """Deterministic stand-in: fills NaNs with the observed mean."""

    name = "mean"

    def _complete(self, matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
        filled = matrix.copy()
        filled[~mask] = np.mean(matrix[mask]) if mask.any() else 0.0
        return filled


def make_matrix(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(4, 3))
    matrix[0, 0] = np.nan
    return matrix


class TestWeightsFingerprint:
    def test_identical_weights_share_a_fingerprint(self):
        weights = [{"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}]
        clone = [{"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}]
        assert weights_fingerprint(weights) == weights_fingerprint(clone)

    def test_any_bit_flip_changes_the_fingerprint(self):
        weights = [{"w": np.arange(6.0).reshape(2, 3)}]
        flipped = [{"w": np.arange(6.0).reshape(2, 3)}]
        flipped[0]["w"][1, 2] += 1e-12
        assert weights_fingerprint(weights) != weights_fingerprint(flipped)

    def test_layer_order_matters(self):
        a = {"w": np.ones(2)}
        b = {"w": np.zeros(2)}
        assert weights_fingerprint([a, b]) != weights_fingerprint([b, a])


class TestRecording:
    def test_header_must_come_first_and_only_once(self):
        journal = RequestJournal()
        journal.record_header(scenario={"name": "x"}, serve={"replicas": 1})
        with pytest.raises(RuntimeError, match="first event"):
            journal.record_header(scenario={"name": "x"}, serve={})

    def test_server_traffic_is_journalled_end_to_end(self):
        journal = RequestJournal()
        server = DecisionServer(ServeConfig(max_batch=4, max_wait_ticks=0))
        server.subscribe(journal)
        inference = MeanInference()
        futures = [
            server.complete_matrix(inference, make_matrix(seed), tenant=f"t{seed}")
            for seed in range(3)
        ]
        server.flush()
        for future in futures:
            assert future.done
        kinds = [event["type"] for event in journal.events]
        assert kinds == ["request"] * 3 + ["flush"] + ["response"] * 3
        flush = journal.events[3]
        assert flush["trigger"] == "forced"
        assert flush["seqs"] == [0, 1, 2]
        # Payload fingerprints carry content hashes, never the arrays.
        payload = journal.events[0]["payload"]
        assert payload["matrix"] == matrix_fingerprint(make_matrix(0))
        assert payload["inference"] == "inference-0"

    def test_entity_labels_are_stable_first_seen(self):
        journal = RequestJournal()
        server = DecisionServer(ServeConfig(max_batch=8, max_wait_ticks=0))
        server.subscribe(journal)
        first, second = MeanInference(), MeanInference()
        server.complete_matrix(first, make_matrix(0))
        server.complete_matrix(second, make_matrix(1))
        server.complete_matrix(first, make_matrix(2))
        server.flush()
        labels = [
            event["payload"]["inference"]
            for event in journal.events
            if event["type"] == "request"
        ]
        assert labels == ["inference-0", "inference-1", "inference-0"]

    def test_responses_record_errors_as_repr(self):
        journal = RequestJournal()

        class Boom(InferenceAlgorithm):
            name = "boom"

            def _complete(self, matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
                raise ValueError("kaput")

        server = DecisionServer(ServeConfig(max_batch=4, max_wait_ticks=0))
        server.subscribe(journal)
        future = server.complete_matrix(Boom(), make_matrix(0))
        server.flush()
        with pytest.raises(ValueError, match="kaput"):
            future.result()
        response = [e for e in journal.events if e["type"] == "response"][0]
        assert "result" not in response
        assert "kaput" in response["error"]

    def test_watch_store_records_publications(self):
        from repro.learner.weights import WeightStore
        from repro.serve.batcher import TickClock

        clock = TickClock()
        store = WeightStore(clock=clock)
        journal = RequestJournal()
        journal.watch_store("learner-0", store)
        journal.watch_store("learner-0", store)  # idempotent
        weights = [{"w": np.ones((2, 2))}]
        clock.advance(3)
        store.publish(weights, total_steps=10, learn_steps=4)
        publishes = [e for e in journal.events if e["type"] == "publish"]
        assert len(publishes) == 1
        event = publishes[0]
        assert event["store"] == "learner-0"
        assert event["version"] == store.latest.version
        assert event["tick"] == 3
        assert event["total_steps"] == 10 and event["learn_steps"] == 4
        assert event["weights"] == weights_fingerprint(weights)

    def test_canonical_handles_numpy_scalars_arrays_and_dataclasses(self):
        journal = RequestJournal()
        array = np.arange(4.0)
        canon = journal._canonical(
            {"x": np.float64(1.5), "arr": array, "seq": (1, 2)}
        )
        assert canon["x"] == 1.5
        assert canon["arr"]["array"] == matrix_fingerprint(array)
        assert canon["arr"]["shape"] == [4]
        assert canon["seq"] == [1, 2]
        # Canonical forms are JSON-able by construction.
        json.dumps(canon)


class TestPersistenceAndDiff:
    def test_save_load_round_trip(self, tmp_path):
        journal = RequestJournal()
        journal.record_header(scenario={"name": "rt"}, serve={"replicas": 2})
        requests = [ServeRequest("select", None, sequence=seq) for seq in (0, 1)]
        journal.flush(FlushRecord("select", 3, "due", requests))
        path = journal.save(tmp_path / "session.journal")
        assert RequestJournal.load(path) == journal.events

    def test_diff_clean(self):
        events = [{"type": "flush", "kind": "select", "seqs": [0]}]
        report = diff_journals(events, list(events))
        assert report.ok
        assert "bitwise-identical" in report.summary()

    def test_diff_reports_divergence_with_index(self):
        a = [{"type": "request", "seq": 0}, {"type": "request", "seq": 1}]
        b = [{"type": "request", "seq": 0}, {"type": "request", "seq": 2}]
        report = diff_journals(a, b)
        assert not report.ok
        assert any("event 1" in line for line in report.divergences)

    def test_diff_reports_length_mismatch(self):
        a = [{"type": "request", "seq": 0}]
        report = diff_journals(a, a + [{"type": "stats"}])
        assert not report.ok
        assert any("length" in line for line in report.divergences)

    def test_diff_caps_reported_divergences(self):
        a = [{"seq": i} for i in range(ReplayReport.MAX_DIVERGENCES + 5)]
        b = [{"seq": -i - 1} for i in range(len(a))]
        report = diff_journals(a, b)
        assert report.divergences[-1].startswith("...")
        assert len(report.divergences) == ReplayReport.MAX_DIVERGENCES + 1

    def test_replay_rejects_headerless_and_wrong_version(self, tmp_path):
        with pytest.raises(ValueError, match="no header"):
            replay_journal([{"type": "request", "seq": 0}])
        bad = [{"type": "header", "version": JOURNAL_VERSION + 1, "scenario": {}, "serve": {}}]
        with pytest.raises(ValueError, match="version"):
            replay_journal(bad)
