"""Request tracing: span contexts from submission to response, Chrome-exportable.

A :class:`Tracer` subscribed to a :class:`~repro.serve.server.DecisionServer`
(via ``subscribe``) follows every request through the serving pipeline:

* a **request span** is minted by the server's ``request`` event, the
  moment the batcher accepts the request — it opens on the tenant's
  timeline at that instant and closes when the batch that answered it
  finishes, so its duration is queue wait plus fused service time;
* a **batch span** opens at the ``flush`` event and closes at ``flushed``,
  spanning the batch handler's own timing — endpoint fusion,
  :class:`~repro.serve.cache.CompletionCache` lookups, and the backend
  solve all happen inside it.  It carries the flush trigger, the logical
  tick, and the cache hit/miss delta the handler produced;
* every request span records its batch span as ``args.parent`` — batch
  spans *parent* request spans, which is the end-to-end link nothing in the
  stack had before;
* **profile spans** (see :mod:`repro.obs.profile`) — ALS sweeps, LOO
  passes, trainer phases — nest under whichever batch span is open when
  they run, completing the flush → fusion → cache → solve chain.

All timestamps come from :func:`repro.utils.timing.monotonic` (exported as
microseconds), so traces taken under :func:`repro.utils.timing.fake_clock`
are exact.  Tracing is strictly observational: it stores no payloads, draws
no RNGs, and never feeds back into scheduling — the journal, checkpoints,
and fingerprints of a traced run are bitwise identical to an untraced one.

:meth:`Tracer.to_chrome` renders the standard Chrome trace-event JSON
object (``{"traceEvents": [...]}``, ``ph: "X"`` complete events plus
thread-name metadata), loadable in ``chrome://tracing`` and Perfetto;
:meth:`Tracer.save` writes it to a file (the CLI's ``--trace out.json``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.utils.timing import monotonic

__all__ = ["Tracer", "SpanRecord", "validate_chrome_trace"]

#: The single pid every event carries (the stack is single-process).
TRACE_PID = 1


class SpanRecord:
    """One completed span: a ``ph: "X"`` Chrome trace event in the making."""

    __slots__ = ("name", "cat", "start", "end", "track", "span_id", "parent_id", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        track: str,
        span_id: int,
        parent_id: Optional[int],
        args: Dict[str, Any],
    ) -> None:
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.track = track
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args


class Tracer:
    """Collects request/batch/profile spans; exports Chrome trace-event JSON.

    Duck-typed against the serve layer: it subscribes to a
    :class:`~repro.serve.server.DecisionServer`'s ``request`` / ``flush`` /
    ``flushed`` events, and :class:`~repro.obs.profile.Profiler` feeds
    :meth:`add_span` — this module imports nothing from ``repro.serve``.
    """

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        # sequence -> (span id, submission instant) of a request awaiting its batch.
        self._open_requests: Dict[int, Tuple[int, float]] = {}
        self._open_batches: List[int] = []  # span ids, innermost last
        self._next_span_id = 1

    # -- span accounting ---------------------------------------------------------

    def _mint(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def request(self, request: Any) -> None:
        """Mint a request span for an accepted request.

        ``request`` is duck-typed: anything with ``kind`` / ``tenant`` /
        ``sequence`` / ``enqueued_at`` attributes.  Only its sequence number
        is kept — payloads are never referenced, so tracing cannot pin
        request data in memory.
        """
        self._open_requests[int(request.sequence)] = (self._mint(), monotonic())

    def flush(self, record: Any) -> None:
        """Open the batch span of one flush (profile spans nest under it)."""
        self._open_batches.append(self._mint())

    def flushed(self, record: Any) -> None:
        """Close the batch span; close its request spans and parent them to it.

        ``record`` is duck-typed: a flush record's ``kind`` / ``tick`` /
        ``trigger`` / ``requests``, the handler's ``start`` / ``end``
        readings and its ``cache_hits`` / ``cache_misses`` delta.
        """
        span_id = self._open_batches.pop()
        sequences = [int(request.sequence) for request in record.requests]
        self.spans.append(
            SpanRecord(
                name=f"{record.kind} batch",
                cat="serve.batch",
                start=record.start,
                end=record.end,
                track=f"batch/{record.kind}",
                span_id=span_id,
                parent_id=None,
                args={
                    "tick": int(record.tick),
                    "trigger": str(record.trigger),
                    "size": len(sequences),
                    "sequences": sequences,
                    "cache_hits": record.cache_hits,
                    "cache_misses": record.cache_misses,
                },
            )
        )
        for request in record.requests:
            opened = self._open_requests.pop(int(request.sequence), None)
            if opened is None:
                continue  # submitted before the tracer subscribed
            enqueued_tick = int(request.enqueued_at)
            self.spans.append(
                SpanRecord(
                    name=f"{request.kind} request",
                    cat="serve.request",
                    start=opened[1],
                    end=record.end,
                    track=f"tenant/{request.tenant}",
                    span_id=opened[0],
                    parent_id=span_id,
                    args={
                        "sequence": int(request.sequence),
                        "tenant": str(request.tenant),
                        "enqueued_tick": enqueued_tick,
                        "flushed_tick": int(record.tick),
                        "wait_ticks": int(record.tick) - enqueued_tick,
                    },
                )
            )

    def add_span(
        self, name: str, *, cat: str, start: float, end: float, **args: Any
    ) -> None:
        """Record an externally timed span (profile phases use this).

        The span nests under the innermost open batch span, if any — that
        is how an ALS solve executed by a ``complete`` handler shows up as
        a child of that batch.
        """
        parent = self._open_batches[-1] if self._open_batches else None
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                start=start,
                end=end,
                track=f"{cat}",
                span_id=self._mint(),
                parent_id=parent,
                args=dict(args),
            )
        )

    # -- export ------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (``chrome://tracing`` / Perfetto).

        Spans become ``ph: "X"`` complete events with microsecond ``ts`` /
        ``dur``; each distinct track gets an integer ``tid`` (first-use
        order) plus a ``thread_name`` metadata event, so tenants, endpoint
        batch lanes, and profile phases render as separate named rows.
        Parenting is explicit in ``args.id`` / ``args.parent``.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span in self.spans:
            tid = tids.setdefault(span.track, len(tids) + 1)
            args = {"id": span.span_id, **span.args}
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(max(0.0, span.end - span.start) * 1e6, 3),
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": args,
                }
            )
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
            for track, tid in tids.items()
        ]
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def save(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_chrome` output as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()), encoding="utf-8")
        return path

    # -- introspection -----------------------------------------------------------

    @property
    def open_requests(self) -> int:
        """Request spans minted but not yet closed by a batch."""
        return len(self._open_requests)

    @property
    def open_batches(self) -> int:
        """Batch spans opened by a flush and not yet closed."""
        return len(self._open_batches)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(spans={len(self.spans)}, open={len(self._open_requests)})"


def validate_chrome_trace(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Check ``trace`` is a structurally valid Chrome trace-event object.

    Returns the ``ph: "X"`` events; raises ``ValueError`` on the first
    structural problem (missing keys, wrong types, negative durations).
    Used by the obs tests and the CI smoke step — "the trace file loads"
    means it passes this, not just ``json.loads``.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("a Chrome trace is an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    complete: List[Dict[str, Any]] = []
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"trace event is not an object: {event!r}")
        phase = event.get("ph")
        if phase not in ("X", "M", "B", "E", "i", "b", "e", "s", "f", "t"):
            raise ValueError(f"unknown trace event phase: {phase!r}")
        if phase == "M":
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"trace event missing {key!r}: {event!r}")
        if phase == "X":
            if "dur" not in event:
                raise ValueError(f"complete event missing dur: {event!r}")
            if float(event["dur"]) < 0:
                raise ValueError(f"negative span duration: {event!r}")
            complete.append(event)
    return complete
