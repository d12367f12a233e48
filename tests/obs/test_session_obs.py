"""Observability is non-perturbing: obs-on and obs-off sessions are bitwise equal.

The package's contract is that attaching an :class:`~repro.obs.Observability`
bundle — metrics, request tracing, profiling, periodic barrier snapshots —
changes *nothing* about what a session computes:

* the request journal of an observed mixed-traffic session diffs clean
  against an unobserved one (satellite of the replay gate);
* a mid-flight server checkpoint serializes to byte-identical JSON with and
  without obs attached (under a fake clock, so wall-clock latency samples
  cannot differ for unrelated reasons);
* the TINY seed-0 Figure-6 serve path — the repo's acceptance scenario —
  produces bitwise-identical rows, cycle records, and inferred matrices.

On top of the no-perturbation gate, the observed run must actually observe:
the Prometheus exposition covers the serve / ALS / learner / trainer /
profile families, and the Chrome trace parents every request span under the
batch span that answered it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.specs import ScenarioSpec
from repro.experiments.config import TINY_SCALE
from repro.experiments.figure6 import figure6_scenario
from repro.obs import Observability, parse_prometheus, registry_from_snapshot, render_prometheus, validate_chrome_trace
from repro.serve.journal import RequestJournal, diff_journals
from repro.utils.timing import fake_clock

SCENARIO = Path(__file__).parent.parent / "integration" / "data" / "journal_scenario.json"

SERVE_KNOBS = dict(replicas=1, max_batch=8, max_inflight=2)


def load_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(json.loads(SCENARIO.read_text()))


def full_obs() -> Observability:
    return Observability(trace=True, profile=True, snapshot_every=1)


@pytest.fixture(scope="module")
def direct():
    """The unobserved mixed-traffic session: the reference run."""
    journal = RequestJournal()
    session = Session(load_spec())
    session.train()
    report, stats, _ = session.serve(journal=journal, **SERVE_KNOBS)
    return {"journal": journal, "report": report, "stats": stats}


@pytest.fixture(scope="module")
def observed():
    """The same session with the full obs bundle attached everywhere."""
    journal = RequestJournal()
    obs = full_obs()
    session = Session(load_spec())
    session.train(obs=obs)
    report, stats, _ = session.serve(journal=journal, obs=obs, **SERVE_KNOBS)
    return {"journal": journal, "report": report, "stats": stats, "obs": obs}


class TestObsIsNonPerturbing:
    def test_journals_diff_clean(self, direct, observed):
        report = diff_journals(direct["journal"].events, observed["journal"].events)
        assert report.ok, report.summary()

    def test_deterministic_stats_are_identical(self, direct, observed):
        assert (
            observed["stats"].deterministic_dict()
            == direct["stats"].deterministic_dict()
        )

    def test_evaluation_reports_are_bitwise_identical(self, direct, observed):
        assert [row.as_dict() for row in observed["report"].rows] == [
            row.as_dict() for row in direct["report"].rows
        ]
        assert set(observed["report"].results) == set(direct["report"].results)
        for label, direct_result in direct["report"].results.items():
            observed_result = observed["report"].results[label]
            assert observed_result.records == direct_result.records
            np.testing.assert_array_equal(
                observed_result.inferred_matrix, direct_result.inferred_matrix
            )

    def test_checkpoint_bytes_are_identical(self):
        # Under a fake clock both runs record identical (zero) wall-clock
        # latencies, so the serialized checkpoints must match byte for byte
        # — any obs leakage into clock, batcher, cache, stats, or slot
        # state would show up here.
        def checkpoint_bytes(obs):
            with fake_clock():
                session = Session(load_spec())
                session.train(obs=obs)
                _, _, checkpoint = session.serve(
                    checkpoint_after=2, obs=obs, **SERVE_KNOBS
                )
            return json.dumps(checkpoint.payload, sort_keys=True)

        assert checkpoint_bytes(None) == checkpoint_bytes(full_obs())


class TestObservedSessionExports:
    def test_prometheus_covers_every_subsystem_family(self, observed):
        text = observed["obs"].prometheus()
        parsed = parse_prometheus(text)  # strict: raises on malformed output
        for name in (
            "repro_serve_requests_total",
            "repro_serve_latency_seconds",
            "repro_serve_tenant_requests_total",
            "repro_als_solves_total",
            "repro_learner_weights_version",
            "repro_learner_replay_occupancy",
            "repro_train_episodes_total",
            "repro_profile_phase_total",
        ):
            assert name in parsed, f"{name} missing from exposition"
        assert parsed["repro_serve_requests_total"]["type"] == "counter"
        # Every endpoint the mixed scenario exercises is labelled.
        samples = parsed["repro_serve_requests_total"]["samples"]
        for endpoint in ("select", "assess", "complete", "learn"):
            assert f'repro_serve_requests_total{{endpoint="{endpoint}"}}' in samples

    def test_profiled_phases_cover_the_hot_paths(self, observed):
        phases = observed["obs"].profiler.as_dict()
        for name in ("train.episode", "loo.assess", "als.solve_stacked"):
            assert phases[name]["count"] > 0

    def test_snapshot_round_trips_to_the_same_exposition(self, observed):
        obs = observed["obs"]
        rebuilt = registry_from_snapshot(obs.snapshot())
        assert render_prometheus(rebuilt) == obs.prometheus()

    def test_trace_parents_every_request_span_under_its_batch(self, observed):
        trace = observed["obs"].tracer.to_chrome()
        complete = validate_chrome_trace(trace)
        batches = {
            event["args"]["id"]: event
            for event in complete
            if event["cat"] == "serve.batch"
        }
        requests = [event for event in complete if event["cat"] == "serve.request"]
        assert requests, "no request spans were traced"
        for event in requests:
            parent = batches[event["args"]["parent"]]
            # The request belongs to the batch that closed it: same endpoint
            # kind, and its sequence is among the batch's fused sequences.
            assert event["name"].split()[0] == parent["name"].split()[0]
            assert event["args"]["sequence"] in parent["args"]["sequences"]
        # Profile spans made it onto the same timeline.
        assert any(event["cat"] == "profile" for event in complete)

    def test_journal_tracer_and_stats_count_the_same_flushes(self, observed):
        # Three subscribers of one event stream: one flush, one of each view.
        journal_flushes = sum(
            event["type"] == "flush" for event in observed["journal"].events
        )
        traced_batches = sum(
            span.cat == "serve.batch" for span in observed["obs"].tracer.spans
        )
        endpoints = observed["stats"].deterministic_dict()["endpoints"]
        assert set(endpoints) == {"select", "assess", "complete", "learn"}
        assert journal_flushes == traced_batches == sum(
            endpoint["batches"] for endpoint in endpoints.values()
        )

    def test_trace_file_save_round_trip(self, observed, tmp_path):
        path = observed["obs"].save_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(loaded)


class TestFigure6TinyObsParity:
    """The acceptance bar: TINY seed-0 Figure-6 serve path, obs-on vs obs-off."""

    def serve_result(self, obs):
        spec = figure6_scenario(TINY_SCALE, "temperature", 0.9, seed=0)
        session = Session.from_spec(spec)
        session.train(obs=obs)
        report, stats, _ = session.serve(obs=obs)
        return report, stats

    def test_observed_serve_is_bitwise_identical(self):
        direct_report, direct_stats = self.serve_result(None)
        obs = full_obs()
        observed_report, observed_stats = self.serve_result(obs)

        assert [row.as_dict() for row in observed_report.rows] == [
            row.as_dict() for row in direct_report.rows
        ]
        for label, direct_result in direct_report.results.items():
            observed_result = observed_report.results[label]
            for direct_record, observed_record in zip(
                direct_result.records, observed_result.records
            ):
                assert observed_record.selected_cells == direct_record.selected_cells
                assert observed_record.true_error == direct_record.true_error
            np.testing.assert_array_equal(
                observed_result.inferred_matrix, direct_result.inferred_matrix
            )
        assert (
            observed_stats.deterministic_dict() == direct_stats.deterministic_dict()
        )
        # And the observed run actually produced a full export surface.
        assert parse_prometheus(obs.prometheus())
        assert validate_chrome_trace(obs.tracer.to_chrome())
