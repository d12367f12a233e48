"""Differential replay and checkpoint/resume: the serving stack's bitwise gate.

One mixed 8-campaign session (4 slots × 2 replicas: a trained DR-Cell
agent, a served_online centrally-learned campaign, a random and a QBC
baseline — select/assess/complete/learn traffic on every endpoint) is
recorded once per test run and then attacked three ways:

* replay the live journal from scratch and require every event bitwise;
* checkpoint the session mid-flight, resume it from the serialized
  checkpoint in a fresh session, and require the tail — stats, evaluation
  rows, cycle records, inferred matrices, journal events — to match the
  uninterrupted run exactly;
* replay the committed golden journal, pinning today's behaviour to the
  recorded one (the CI ``replay-gate`` job runs the same check via the
  CLI).
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.specs import ScenarioSpec
from repro.serve.checkpoint import ServerCheckpoint
from repro.serve.journal import RequestJournal, diff_journals, replay_journal

DATA = Path(__file__).parent / "data"
SCENARIO = DATA / "journal_scenario.json"
GOLDEN = DATA / "golden.journal"

SERVE_KNOBS = dict(replicas=2, max_batch=8, max_inflight=2)


def load_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(json.loads(SCENARIO.read_text()))


@pytest.fixture(scope="module")
def recorded():
    """One uninterrupted recorded session shared by the tests below."""
    journal = RequestJournal()
    session = Session(load_spec())
    session.train()
    report, stats, _ = session.serve(journal=journal, **SERVE_KNOBS)
    return {"journal": journal, "report": report, "stats": stats}


class TestDifferentialReplay:
    def test_session_covers_every_endpoint_for_eight_campaigns(self, recorded):
        stats = recorded["stats"].deterministic_dict()
        assert len(stats["tenants"]) == 8
        assert set(stats["endpoints"]) == {"select", "assess", "complete", "learn"}
        kinds = {event["type"] for event in recorded["journal"].events}
        assert kinds == {"header", "request", "flush", "response", "publish", "stats"}

    def test_recorded_session_replays_bitwise(self, recorded):
        report = replay_journal(recorded["journal"].events)
        assert report.ok, report.summary()

    def test_replay_from_disk_round_trip(self, recorded, tmp_path):
        path = recorded["journal"].save(tmp_path / "session.journal")
        report = replay_journal(path)
        assert report.ok, report.summary()

    def test_replay_detects_a_tampered_event(self, recorded):
        events = copy.deepcopy(recorded["journal"].events)
        flushes = [e for e in events if e["type"] == "flush"]
        flushes[-1]["seqs"] = list(reversed(flushes[-1]["seqs"])) or [999]
        report = replay_journal(events)
        assert not report.ok
        assert any("flush" in line for line in report.divergences)


class TestCheckpointResume:
    def test_resumed_session_is_bitwise_identical_to_uninterrupted(
        self, recorded, tmp_path
    ):
        # Record the same session again, stopping at the cycle-2 boundary.
        part_journal = RequestJournal()
        session = Session(load_spec())
        session.train()
        part_report, part_stats, checkpoint = session.serve(
            journal=part_journal, checkpoint_after=2, **SERVE_KNOBS
        )
        path = checkpoint.save(tmp_path / "session.ckpt")

        # Resume from disk in a fresh process-equivalent: new session, new
        # server, everything rebuilt from the serialized payload.
        tail_journal = RequestJournal()
        resumed_report, resumed_stats, _ = Session.resume_serve(
            ServerCheckpoint.load(path), journal=tail_journal
        )

        # Final telemetry matches the uninterrupted run exactly.
        assert (
            resumed_stats.deterministic_dict()
            == recorded["stats"].deterministic_dict()
        )

        # Evaluation rows, per-cycle records, and inferred matrices match.
        full_report = recorded["report"]
        assert [row.as_dict() for row in resumed_report.rows] == [
            row.as_dict() for row in full_report.rows
        ]
        assert set(resumed_report.results) == set(full_report.results)
        for label, full_result in full_report.results.items():
            resumed_result = resumed_report.results[label]
            assert resumed_result.records == full_result.records
            np.testing.assert_array_equal(
                resumed_result.inferred_matrix, full_result.inferred_matrix
            )

        # The journals line up: the partial recording is a prefix of the
        # uninterrupted one, and the resumed tail reproduces the rest
        # event-for-event (the stats snapshots are final-state summaries,
        # compared above).
        part = [e for e in part_journal.events if e["type"] != "stats"]
        full = [e for e in recorded["journal"].events if e["type"] != "stats"]
        tail = [e for e in tail_journal.events if e["type"] != "stats"]
        assert diff_journals(full[: len(part)], part).ok
        assert diff_journals(full[len(part):], tail).ok

    def test_partial_stats_are_a_strict_prefix_of_the_full_run(self, recorded):
        part_journal = RequestJournal()
        session = Session(load_spec())
        session.train()
        _, part_stats, _ = session.serve(
            journal=part_journal, checkpoint_after=2, **SERVE_KNOBS
        )
        full_stats = recorded["stats"].deterministic_dict()
        partial = part_stats.deterministic_dict()
        assert partial["ticks"] < full_stats["ticks"]
        for kind, endpoint in partial["endpoints"].items():
            assert endpoint["requests"] <= full_stats["endpoints"][kind]["requests"]


class TestGoldenJournal:
    def test_golden_journal_replays_bitwise(self):
        report = replay_journal(GOLDEN)
        assert report.ok, report.summary()

    def test_golden_journal_matches_a_fresh_recording(self, recorded):
        golden = RequestJournal.load(GOLDEN)
        report = diff_journals(golden, recorded["journal"].events)
        assert report.ok, report.summary()
