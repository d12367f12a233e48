"""The request journal: record a serving session, replay it differentially.

:class:`RequestJournal` is the serving layer's flight recorder.  Subscribed
to a :class:`~repro.serve.server.DecisionServer`'s event stream (via
:meth:`~repro.serve.server.DecisionServer.subscribe`), it records every
event that determines — or evidences — the session's behaviour, as plain
JSON-able dicts:

``header``
    The scenario spec, and the resolved serving knobs (batch size, wait
    ticks, cache capacity, per-campaign inflight cap, replicas, cycle
    budget).  Everything needed to rebuild the session from scratch.
``request``
    One submitted request: endpoint kind, tenant (campaign id), enqueue
    tick, global sequence number, and a *fingerprint* of the payload
    (stable entity labels plus content hashes of the arrays — never the
    arrays themselves, so journals stay small).
``flush``
    One assembled batch: the flush trigger (``full`` / ``due`` /
    ``forced``), the tick it fired at, and the sequence numbers it served,
    in batch order.  This pins the micro-batcher's entire scheduling
    behaviour.
``response``
    One resolved request: the canonicalized result (arrays become content
    fingerprints) or the ``repr`` of the raised error.
``publish``
    One learner weight publication, recorded through
    :meth:`~repro.learner.weights.WeightStore.subscribe`: version, tick,
    step counters, and a fingerprint of the published weights.
``stats``
    The final :meth:`~repro.serve.stats.ServerStats.deterministic_dict`
    snapshot, written by :meth:`RequestJournal.finalize`.

Because every component in the library is deterministically seeded and the
server's scheduling is driven by a logical clock, the journal is a pure
function of the scenario spec and the serving knobs.  :func:`replay_journal`
exploits that: it rebuilds the session from the header, re-trains, re-serves
with a fresh journal attached, and diffs the two event streams element-wise
(:func:`diff_journals`) — any divergence in request schedule, batch
composition, results, published weights, or final telemetry is reported
with its event index.  A clean :class:`ReplayReport` is a *bitwise*
end-to-end reproducibility certificate for the whole serving stack.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.cache import matrix_fingerprint
from repro.serve.server import (
    AssessQuery,
    CompleteQuery,
    LearnQuery,
    SelectQuery,
)

#: Journal format version; bumped on breaking event-schema changes.
JOURNAL_VERSION = 1


def weights_fingerprint(weights: Sequence[Dict[str, np.ndarray]]) -> str:
    """A content hash of layer-ordered network weights.

    ``weights`` is the library's standard exchange format (see
    :meth:`~repro.nn.network.Network.get_weights`): a list of per-layer
    ``name -> array`` dicts.  The digest covers layer order, parameter
    names, and exact array bytes (via :func:`~repro.serve.cache.
    matrix_fingerprint`), so two fingerprints match iff the weights are
    bitwise identical.
    """
    digest = hashlib.blake2b(digest_size=16)
    for index, layer in enumerate(weights):
        digest.update(str(index).encode())
        for name in sorted(layer):
            digest.update(name.encode())
            digest.update(matrix_fingerprint(np.asarray(layer[name])).encode())
    return digest.hexdigest()


class RequestJournal:
    """Record a serving session's events for differential replay.

    Use a *fresh* journal per recorded session, subscribe it before the
    first request, and call :meth:`finalize` after the drive completes::

        journal = RequestJournal()
        report, stats, _ = session.serve(journal=journal)   # subscribes + finalizes
        journal.save("session.journal")

    Entity references (agents, assessors, inference instances, learners)
    are recorded as stable first-seen labels (``agent-0``, ``assessor-1``,
    …), not memory addresses, so a replayed run — with entirely different
    objects — produces the same labels as long as traffic arrives in the
    same order.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        # category -> id(obj) -> label; the object itself is pinned alongside
        # so CPython cannot recycle its id() for a different entity mid-run.
        self._entities: Dict[str, Dict[int, Tuple[str, Any]]] = {}
        self._watched_stores: Dict[int, Any] = {}

    # -- recording: Session + the server's event stream (DecisionServer.subscribe)

    def record_header(self, *, scenario: Dict[str, Any], serve: Dict[str, Any]) -> None:
        """Record the session identity: scenario spec + resolved serve knobs."""
        if self.events:
            raise RuntimeError(
                "record_header must be the journal's first event; use a fresh "
                "RequestJournal per recorded session"
            )
        self.events.append(
            {
                "type": "header",
                "version": JOURNAL_VERSION,
                "scenario": scenario,
                "serve": dict(serve),
            }
        )

    def request(self, request: Any) -> None:
        """Record one submitted :class:`~repro.serve.batcher.ServeRequest`."""
        self.events.append(
            {
                "type": "request",
                "seq": request.sequence,
                "kind": request.kind,
                "tenant": request.tenant,
                "tick": request.enqueued_at,
                "payload": self._payload_fingerprint(request.payload),
            }
        )

    def flush(self, record: Any) -> None:
        """Record one assembled batch: what fired it, and who got its slots.

        Also watches the weight store of every learner the batch feeds, so
        the publications its ingest triggers land in the journal under the
        learner's stable telemetry label.
        """
        self.events.append(
            {
                "type": "flush",
                "kind": record.kind,
                "tick": int(record.tick),
                "trigger": record.trigger,
                "seqs": [int(request.sequence) for request in record.requests],
            }
        )
        for label, learner in record.learners.items():
            if hasattr(learner, "store"):
                self.watch_store(label, learner.store)

    def flushed(self, record: Any) -> None:
        """Record each resolved request's canonical result (or its error)."""
        for request in record.requests:
            event: Dict[str, Any] = {"type": "response", "seq": request.sequence}
            try:
                event["result"] = self._canonical(request.future.result())
            except BaseException as error:  # journalled, then re-raised client-side
                event["error"] = repr(error)
            self.events.append(event)

    def watch_store(self, label: str, store: Any) -> None:
        """Record every future weight publication of ``store`` under ``label``.

        Idempotent per store instance; :meth:`flush` calls this for every
        learner a ``learn`` batch feeds, so the journal captures every
        publication that batched ingestion triggers.
        """
        if id(store) in self._watched_stores:
            return
        self._watched_stores[id(store)] = store

        def on_publish(snapshot: Any) -> None:
            self.events.append(
                {
                    "type": "publish",
                    "store": label,
                    "version": int(snapshot.version),
                    "tick": int(snapshot.published_tick),
                    "total_steps": int(snapshot.total_steps),
                    "learn_steps": int(snapshot.learn_steps),
                    "weights": weights_fingerprint(snapshot.weights),
                }
            )

        store.subscribe(on_publish)

    def finalize(self, stats: Any) -> None:
        """Append the final deterministic telemetry snapshot."""
        self.events.append(
            {"type": "stats", "stats": stats.deterministic_dict()}
        )

    # -- persistence -------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the journal as JSON lines (one event per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Read :meth:`save` output back as a list of event dicts."""
        path = Path(path)
        events: List[Dict[str, Any]] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return events

    # -- fingerprinting ----------------------------------------------------------

    def _label(self, category: str, obj: Any) -> str:
        """Stable first-seen label for an entity within this journal."""
        registry = self._entities.setdefault(category, {})
        entry = registry.get(id(obj))
        if entry is None or entry[1] is not obj:
            entry = (f"{category}-{len(registry)}", obj)
            registry[id(obj)] = entry
        return entry[0]

    def _payload_fingerprint(self, payload: Any) -> Dict[str, Any]:
        if isinstance(payload, SelectQuery):
            return {
                "agent": self._label("agent", payload.agent),
                "state": matrix_fingerprint(np.asarray(payload.state)),
                "mask": matrix_fingerprint(np.asarray(payload.mask)),
                "greedy": bool(payload.greedy),
            }
        if isinstance(payload, AssessQuery):
            return {
                "assessor": self._label("assessor", payload.assessor),
                "inference": self._label("inference", payload.inference),
                "observed": matrix_fingerprint(np.asarray(payload.observed)),
                "cycle": int(payload.cycle),
                "requirement": self._describe(payload.requirement),
            }
        if isinstance(payload, CompleteQuery):
            return {
                "inference": self._label("inference", payload.inference),
                "matrix": matrix_fingerprint(np.asarray(payload.matrix)),
            }
        if isinstance(payload, LearnQuery):
            batch = payload.batch
            return {
                "learner": self._label("learner", payload.learner),
                "campaign": str(batch.campaign),
                "transitions": len(batch),
                "states": matrix_fingerprint(np.asarray(batch.states)),
                "actions": matrix_fingerprint(np.asarray(batch.actions)),
                "rewards": matrix_fingerprint(np.asarray(batch.rewards)),
                "next_states": matrix_fingerprint(np.asarray(batch.next_states)),
                "dones": matrix_fingerprint(np.asarray(batch.dones)),
            }
        return {"repr": repr(payload)}

    @staticmethod
    def _describe(requirement: Any) -> str:
        describe = getattr(requirement, "describe", None)
        return describe() if callable(describe) else repr(requirement)

    def _canonical(self, value: Any) -> Any:
        """JSON-able canonical form: arrays become content fingerprints."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return {
                "array": matrix_fingerprint(value),
                "shape": [int(dim) for dim in value.shape],
                "dtype": str(value.dtype),
            }
        if isinstance(value, dict):
            return {str(key): self._canonical(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [self._canonical(item) for item in value]
        if hasattr(value, "__dataclass_fields__"):
            return {
                "type": type(value).__name__,
                "fields": {
                    name: self._canonical(getattr(value, name))
                    for name in value.__dataclass_fields__
                },
            }
        return repr(value)


# -- differential replay ----------------------------------------------------------


@dataclass
class ReplayReport:
    """Outcome of diffing a recorded journal against a replayed one."""

    recorded_events: int
    replayed_events: int
    divergences: List[str] = field(default_factory=list)

    #: Cap on reported divergence lines; the count still reflects the total
    #: compared length mismatch via ``recorded_events`` / ``replayed_events``.
    MAX_DIVERGENCES = 20

    @property
    def ok(self) -> bool:
        """True iff the replay reproduced the recording bitwise."""
        return not self.divergences and self.recorded_events == self.replayed_events

    def summary(self) -> str:
        if self.ok:
            return (
                f"replay ok: {self.replayed_events} events bitwise-identical"
            )
        lines = [
            f"replay DIVERGED: {self.recorded_events} recorded vs "
            f"{self.replayed_events} replayed events"
        ]
        lines.extend(self.divergences)
        return "\n".join(lines)


def _normalize(event: Dict[str, Any]) -> Dict[str, Any]:
    """Push an event through JSON so live and loaded events compare equal."""
    return json.loads(json.dumps(event, sort_keys=True))


def diff_journals(
    recorded: Sequence[Dict[str, Any]], replayed: Sequence[Dict[str, Any]]
) -> ReplayReport:
    """Element-wise diff of two journal event streams."""
    report = ReplayReport(
        recorded_events=len(recorded), replayed_events=len(replayed)
    )
    for index, (expected, actual) in enumerate(zip(recorded, replayed)):
        expected = _normalize(expected)
        actual = _normalize(actual)
        if expected != actual:
            if len(report.divergences) >= ReplayReport.MAX_DIVERGENCES:
                report.divergences.append("... further divergences suppressed")
                break
            report.divergences.append(
                f"event {index}: recorded {json.dumps(expected, sort_keys=True)[:200]}"
                f" != replayed {json.dumps(actual, sort_keys=True)[:200]}"
            )
    if len(recorded) != len(replayed) and not report.divergences:
        report.divergences.append(
            f"event streams differ in length: {len(recorded)} recorded vs "
            f"{len(replayed)} replayed"
        )
    return report


def replay_journal(
    source: Union[str, Path, Sequence[Dict[str, Any]]],
    *,
    journal: Optional[RequestJournal] = None,
) -> ReplayReport:
    """Re-execute a recorded serving session and diff it against the record.

    ``source`` is a journal file path (or an already-loaded event list).
    The header's scenario spec is rebuilt, the session re-trained (training
    is a pure function of the spec's seeds), and re-served with the
    recorded knobs and a fresh journal attached; the two event streams are
    then diffed element-wise.  Pass ``journal`` to keep the live journal
    for inspection.
    """
    if isinstance(source, (str, Path)):
        events = RequestJournal.load(source)
    else:
        events = list(source)
    if not events or events[0].get("type") != "header":
        raise ValueError("journal has no header event; cannot replay")
    header = events[0]
    if int(header.get("version", 0)) != JOURNAL_VERSION:
        raise ValueError(
            f"journal version {header.get('version')!r} is not supported "
            f"(expected {JOURNAL_VERSION})"
        )

    # Local imports: repro.api sits above the serving layer in the package
    # graph, so the replay driver pulls it in lazily.
    from repro.api.session import Session
    from repro.api.specs import ScenarioSpec

    spec = ScenarioSpec.from_dict(header["scenario"])
    session = Session(spec)
    session.train()
    live = journal if journal is not None else RequestJournal()
    serve = dict(header["serve"])
    session.serve(
        n_cycles=serve.get("n_cycles"),
        replicas=int(serve.get("replicas", 1)),
        max_batch=serve.get("max_batch"),
        max_wait_ticks=serve.get("max_wait_ticks"),
        cache_capacity=serve.get("cache_capacity"),
        max_inflight=serve.get("max_inflight_per_campaign"),
        journal=live,
    )
    return diff_journals(events, live.events)
