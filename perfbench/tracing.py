"""Spans around the public entry points of the ``repro`` layers, kept in memory.

A traced benchmark run patches the methods :func:`layer_entry_points` lists
with wrappers that record one span per call: name, start, end, parent span
and an optional work count (matrices, rows, transitions ...).  The program is
unchanged; the wrappers live here.  Spans stay in memory and are written out
when the run ends, as Chrome trace-event JSON in the shape ``repro.obs``
exports (complete ``"X"`` events, parenting in ``args.id`` / ``args.parent``).

A span's self time is its duration minus the time its direct children cover;
a layer's busy time is the summed duration of its outermost spans.  Time the
round spends outside every layer span is reported as unattributed.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, COUNT = range(5)

#: Spans the benchmark itself opens; they bound the timed region, not a layer.
ROUND = "bench.round"
SETUP = "bench.setup"


class SpanRecorder:
    """In-memory span log with a parent stack (the benchmark is single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[type, str, object]] = []
        #: When each future resolved, by ``id`` (see :meth:`watch_resolutions`).
        self.resolved_at: Dict[int, float] = {}

    def open(self, name: str, count: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, count])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[None]:
        index = self.open(name, count)
        try:
            yield
        finally:
            self.close(index)

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        original = self._original(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = recorder.open(name, count(args, kwargs) if count else 0)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        self._replace(owner, attr, traced)

    def watch_resolutions(self, future: type) -> None:
        """Record when each future resolves, in ``resolved_at`` by the future's id."""
        recorder = self
        for attr in ("set_result", "set_exception"):
            original = self._original(future, attr)

            @functools.wraps(original)
            def resolve(pending, value, __original=original):
                __original(pending, value)
                recorder.resolved_at[id(pending)] = perf_counter()

            self._replace(future, attr, resolve)

    @staticmethod
    def _original(owner: type, attr: str):
        original = owner.__dict__.get(attr)
        if original is None:
            raise AttributeError(f"{owner.__qualname__} does not define {attr}")
        return original

    def _replace(self, owner: type, attr: str, function) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, function)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _length(position: int) -> Callable[[tuple, dict], int]:
    return lambda args, kwargs: len(args[position])


def _transitions(args: tuple, kwargs: dict) -> int:
    return sum(len(batch) for batch in args[1])


def _rows(args: tuple, kwargs: dict) -> int:
    return int(args[1].shape[0])


def layer_entry_points() -> List[Tuple[type, str, str, Optional[Callable]]]:
    """``(class, method, span name, count)`` for every wrapped public entry point."""
    from repro.inference.base import InferenceAlgorithm
    from repro.inference.compressive import CompressiveSensingInference
    from repro.learner.actor import ServingActor
    from repro.learner.core import Learner
    from repro.mcs.vector import BatchedSparseMCSVectorEnv
    from repro.nn.network import QNetworkBase
    from repro.quality.epsilon_p import QualityRequirement
    from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, OracleAssessor
    from repro.rl.dqn import DQNAgent
    from repro.rl.replay import ArrayReplayBuffer
    from repro.serve.cache import CachingInference
    from repro.serve.server import DecisionServer

    points = [
        (CompressiveSensingInference, "complete_batch", "inference.complete_batch", _length(1)),
        (InferenceAlgorithm, "complete", "inference.complete", None),
        (LeaveOneOutBayesianAssessor, "assess_many", "quality.assess_many", _length(1)),
        (OracleAssessor, "assess_many", "quality.oracle", _length(1)),
        (OracleAssessor, "assess", "quality.oracle", None),
        # The ground-truth check: the training environment's reward and every
        # campaign's per-cycle record call it.
        (QualityRequirement, "column_error", "quality.oracle", None),
        (DecisionServer, "run_pending", "serve.run_pending", None),
        (CachingInference, "complete_batch", "serve.cache", _length(1)),
        (DQNAgent, "select_actions", "rl.select_actions", _length(1)),
        (ServingActor, "select_actions", "rl.select_actions", _length(1)),
        (DQNAgent, "train_episodes_vectorized", "rl.train_loop", None),
        (QNetworkBase, "predict", "nn.predict", _rows),
        (QNetworkBase, "train_on_batch", "nn.train_on_batch", None),
        (BatchedSparseMCSVectorEnv, "step_many", "mcs.env_step", _length(1)),
        (Learner, "ingest", "learner.ingest", _transitions),
    ]
    for method in ("add_batch", "add_step", "sample_indices", "recent_indices", "gather"):
        points.append((ArrayReplayBuffer, method, "rl.replay", None))
    return points


def install(recorder: SpanRecorder) -> None:
    from repro.serve.batcher import PendingResult

    for owner, attr, name, count in layer_entry_points():
        recorder.wrap(owner, attr, name, count)
    recorder.watch_resolutions(PendingResult)


def span_totals(spans: Sequence[list], root: int) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed count, busy and self time under span ``root``.

    Only descendants of ``root`` (one timed round) are counted.  Busy time
    sums the spans with no ancestor of the same name, so a layer that calls
    itself is not counted twice.
    """
    # Single-threaded: every span opened while ``root`` is open descends from it.
    stop = spans[root][END]
    inside = [root]
    for index in range(root + 1, len(spans)):
        if spans[index][START] >= stop:
            break
        inside.append(index)
    child_time: Dict[int, float] = {}
    for index in inside[1:]:
        span = spans[index]
        child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
    totals: Dict[str, Dict[str, float]] = {}
    for index in inside:
        span = spans[index]
        duration = span[END] - span[START]
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["count"] += span[COUNT]
        entry["self_s"] += duration - child_time.get(index, 0.0)
        ancestor = span[PARENT]
        while ancestor != -1 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor == -1:
            entry["busy_s"] += duration
    return totals


def layer_table(
    rounds: Sequence[Dict[str, Dict[str, float]]], passes: int
) -> List[Dict[str, object]]:
    """Per span name: calls, count, busy and self time per pass, and share of round time.

    The ``bench.round`` row is the unattributed remainder: round time no
    layer span covers.
    """
    names = sorted({name for totals in rounds for name in totals})
    wall = sum(totals[ROUND]["busy_s"] for totals in rounds)
    rows = []
    for name in names:
        summed = {
            field: sum(totals.get(name, {}).get(field, 0) for totals in rounds)
            for field in ("calls", "count", "busy_s", "self_s")
        }
        unattributed = name == ROUND
        rows.append(
            {
                "span": "(unattributed)" if unattributed else name,
                "layer": "-" if unattributed else name.split(".")[0],
                "calls": summed["calls"] / passes,
                "count": summed["count"] / passes,
                "busy_s": (summed["self_s"] if unattributed else summed["busy_s"]) / passes,
                "self_s": summed["self_s"] / passes,
                "share": summed["self_s"] / wall if wall > 0 else 0.0,
            }
        )
    return rows


def chrome_trace(spans: Sequence[list], origin: float) -> Dict[str, object]:
    """Spans as a Chrome trace-event object (timestamps in µs from ``origin``)."""
    events: List[Dict[str, object]] = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "benchmark"}}
    ]
    for index, span in enumerate(spans):
        args: Dict[str, object] = {"id": index, "count": span[COUNT]}
        if span[PARENT] != -1:
            args["parent"] = span[PARENT]
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].split(".")[0],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round(max(0.0, span[END] - span[START]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
