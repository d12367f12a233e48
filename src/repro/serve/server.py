"""The decision server: shared online endpoints for concurrent campaigns.

:class:`DecisionServer` is the serving-layer counterpart of the lockstep
runners: where :class:`~repro.mcs.campaign.BatchedCampaignRunner` fuses work
*inside* one pre-declared fleet, the server fuses work across any number of
independently running campaigns that happen to have requests in flight at
the same time.  Four endpoints cover the hot paths of a Sparse MCS
campaign:

``select_cell``
    A policy query against a (shared) DR-Cell agent or a serving actor.
    A flush runs **one Q-network forward per weight set**
    (:func:`~repro.rl.dqn.select_groups`): each agent's queries form a
    group, and the actors holding one weight snapshot share a forward on a
    leading group axis.  Every agent's exploration RNG is drawn in the
    order of sequential calls.
``assess_quality``
    A quality-assessment request.  Pending requests are grouped by
    (assessor, inference) *equivalence* and each group is answered with one
    :meth:`~repro.quality.loo_bayesian.QualityAssessor.assess_many` call,
    which solves every slot's LOO completions in one batched ALS — through
    :func:`repro.mcs.campaign._assess_pooled`, the very helper
    :class:`~repro.mcs.campaign.BatchedCampaignRunner` pools with.
``complete_matrix``
    A raw matrix completion.  Pending requests are grouped by inference
    equivalence and solved with one
    :meth:`~repro.inference.base.InferenceAlgorithm.complete_batch` call
    (:func:`repro.mcs.campaign._complete_pooled`).
``learn_batch``
    A tagged batch of campaign transitions for a central
    :class:`~repro.learner.core.Learner`.  Pending batches for the same
    learner are ingested in submission order with one ``ingest`` call, and
    the learner's staleness/replay telemetry is surfaced through
    :attr:`ServerStats.learners`.

Both completion-backed endpoints route their inference through a shared
:class:`~repro.serve.cache.CompletionCache`, so a partial matrix the server
has completed before — the common case for replicated campaigns and repeated
LOO loops — skips ALS entirely.

Batching is *dynamic*: requests queue in a :class:`~repro.serve.batcher.
MicroBatcher` and flush when a queue reaches ``max_batch`` or its oldest
request has waited ``max_wait_ticks`` logical clock ticks.  The clock is a
deterministic :class:`~repro.serve.batcher.TickClock`, so a fixed request
schedule always produces the same batches — and therefore bitwise-identical
results (the batched solvers are byte-independent of their batch within one
width, and within 2e-12 relative of it across width-padded stacks).

Clients that drive whole campaigns cooperatively (see
:class:`~repro.mcs.served.ServedCampaignRunner`) are generators; the
module-level :func:`drive` scheduler advances every client until it blocks
on pending futures, then pumps the server until everything pending is
resolved, and repeats.  Requests submitted by different clients in the same
scheduling round land in the same batches — that is the cross-campaign
fusion this package exists for.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.inference.base import InferenceAlgorithm
from repro.rl.dqn import select_groups
from repro.serve.batcher import (
    DEFAULT_TENANT,
    MicroBatcher,
    PendingResult,
    ServeRequest,
    TickClock,
)
from repro.serve.cache import CachingInference, CompletionCache, pool_key
from repro.serve.stats import ServerStats
from repro.utils.timing import monotonic
from repro.utils.validation import check_matrix, check_positive_int

_payload = attrgetter("payload")

#: Endpoint kinds in flush-priority order: policy queries unblock clients that
#: still have to reveal data this round, assessments decide whether a round
#: continues, completions only close out cycles, and learn batches update the
#: central learner after the cycle's data is in.
KINDS = ("select", "assess", "complete", "learn")


@dataclass(frozen=True)
class ServeConfig:
    """Decision-server knobs.

    Attributes
    ----------
    max_batch:
        Flush an endpoint queue as soon as it holds this many requests.
    max_wait_ticks:
        Flush a queue once its oldest request has waited this many logical
        clock ticks.
    cache_capacity:
        LRU capacity of the shared completion cache.
    max_inflight_per_campaign:
        Cap on the requests one campaign (tenant) may occupy in a single
        assembled batch; ``None`` leaves campaigns uncapped.  Round-robin
        fairness across campaigns applies either way — see
        :class:`~repro.serve.batcher.MicroBatcher`.
    """

    max_batch: int = 32
    max_wait_ticks: int = 2
    cache_capacity: int = 512
    max_inflight_per_campaign: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch, "max_batch")
        check_positive_int(self.cache_capacity, "cache_capacity")
        if int(self.max_wait_ticks) < 0:
            raise ValueError(f"max_wait_ticks must be >= 0, got {self.max_wait_ticks}")
        if self.max_inflight_per_campaign is not None:
            check_positive_int(
                self.max_inflight_per_campaign, "max_inflight_per_campaign"
            )


@dataclass
class SelectQuery:
    """Payload of a ``select_cell`` request."""

    agent: Any  # DQNAgent (DRCellAgent is unwrapped at submission)
    state: np.ndarray
    mask: np.ndarray
    greedy: bool


@dataclass
class AssessQuery:
    """Payload of an ``assess_quality`` request."""

    assessor: Any
    inference: InferenceAlgorithm
    observed: np.ndarray
    cycle: int
    requirement: Any


@dataclass
class CompleteQuery:
    """Payload of a ``complete_matrix`` request."""

    inference: InferenceAlgorithm
    matrix: np.ndarray


@dataclass
class LearnQuery:
    """Payload of a ``learn_batch`` request."""

    learner: Any  # repro.learner.core.Learner (anything with ingest/check_batch/telemetry)
    batch: Any  # repro.learner.replay.TransitionBatch


@dataclass
class FlushRecord:
    """One flushed batch, as the server's event stream reports it.

    Subscribers get the same record twice: in ``flush``, before the batch's
    handler runs, and in ``flushed``, after it, with ``start`` / ``end``
    (the handler's :func:`~repro.utils.timing.monotonic` readings) and the
    completion cache's hit/miss delta filled in.
    """

    kind: str
    tick: int
    trigger: str  # "full", "due" or "forced"
    requests: List[ServeRequest]
    #: Tenants that had requests of this kind pending but got no slot.
    starved: Tuple[str, ...] = ()
    #: Telemetry label -> learner fed by this batch (``learn`` flushes only).
    learners: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


class DecisionServer:
    """A shared decision server for concurrently running MCS campaigns.

    Parameters
    ----------
    config:
        Batching and caching knobs (:class:`ServeConfig`).
    clock:
        Logical clock used for wait-based flushing; injectable for tests.
    cache:
        Completion cache; a fresh LRU cache of ``config.cache_capacity``
        entries by default.  Pass a shared cache to let several servers
        (or a server and offline code) share completions.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        clock: Optional[TickClock] = None,
        cache: Optional[CompletionCache] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.clock = clock or TickClock()
        self.cache = cache or CompletionCache(self.config.cache_capacity)
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_ticks=self.config.max_wait_ticks,
            clock=self.clock,
            max_inflight_per_tenant=self.config.max_inflight_per_campaign,
        )
        self.stats = ServerStats(cache=self.cache)
        # Receivers of the event stream, in emission order (see subscribe).
        self._subscribers: List[Any] = [self.stats]
        # Bounded LRU of caching wrappers, keyed by inference instance id; a
        # long-lived server serving many short-lived campaigns must not pin
        # every inference instance it ever saw (completed work lives on in
        # self.cache regardless — wrappers are cheap to rebuild).
        self._cached_wrappers: "OrderedDict[int, CachingInference]" = OrderedDict()
        self._max_wrappers = 512
        # Stable display labels for learners seen on the learn endpoint, in
        # first-appearance order (telemetry keys in ServerStats.learners).
        self._learner_labels: Dict[int, str] = {}

    # -- event stream ------------------------------------------------------------

    def subscribe(self, subscriber: Any) -> None:
        """Send every later server event to ``subscriber``.

        The stream has three events, each delivered to the subscribers in
        subscription order, :attr:`stats` always first:

        ``request(request)``
            A :class:`~repro.serve.batcher.ServeRequest` the batcher
            accepted; a refused request emits nothing.
        ``flush(record)``
            A :class:`FlushRecord`, before the batch's handler runs.
        ``flushed(record)``
            The same record after the handler returned or raised; every
            request of the batch is resolved by then.

        :class:`~repro.serve.journal.RequestJournal` and
        :class:`~repro.obs.trace.Tracer` are the library's subscribers.
        Subscribe before the first request: a journal that missed traffic
        cannot replay it, and a tracer opens no span for it.  Subscribers
        only observe — traced or journalled runs are bitwise identical to
        bare ones.
        """
        self._subscribers.append(subscriber)

    # -- endpoints ---------------------------------------------------------------

    def select_cell(
        self,
        agent: Any,
        state: np.ndarray,
        mask: np.ndarray,
        *,
        greedy: bool = True,
        tenant: str = DEFAULT_TENANT,
    ) -> PendingResult:
        """Queue a policy query; resolves to the selected cell index.

        ``agent`` may be a :class:`~repro.core.drcell.DRCellAgent`, the
        underlying :class:`~repro.rl.dqn.DQNAgent` or a
        :class:`~repro.learner.actor.ServingActor` (any selector with an
        ``acting()`` method); wrappers are unwrapped so queries against the
        same shared agent always batch together.

        Raises ``ValueError`` here, before queueing, when ``state`` is not a
        finite array of the agent's state shape, or ``mask`` is not a
        boolean vector over its actions with at least one allowed: a
        flush's queries share forwards and one batched draw, so a query
        that cannot be answered must not fail the queries pooled with it.
        """
        if not hasattr(agent, "acting") and hasattr(agent, "agent"):
            agent = agent.agent  # DRCellAgent -> DQNAgent
        if not hasattr(agent, "acting"):
            raise TypeError(
                f"{type(agent).__name__} cannot serve policy queries; expected a "
                "DQNAgent, a ServingActor or another selector with acting()"
            )
        checked = np.asarray(state, dtype=float)
        if checked.shape != agent.state_shape:
            raise ValueError(
                f"state shape {checked.shape} does not match the agent's {agent.state_shape}"
            )
        if not np.isfinite(checked).all():
            raise ValueError("state must be finite")
        allowed = np.asarray(mask, dtype=bool)
        if allowed.shape != (agent.n_actions,):
            raise ValueError(
                f"mask shape {allowed.shape} does not match n_actions {agent.n_actions}"
            )
        if not allowed.any():
            raise ValueError("mask allows no action")
        payload = SelectQuery(agent=agent, state=state, mask=mask, greedy=bool(greedy))
        return self._submit("select", payload, tenant=tenant)

    def assess_quality(
        self,
        assessor: Any,
        inference: InferenceAlgorithm,
        observed: np.ndarray,
        cycle: int,
        requirement: Any,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> PendingResult:
        """Queue a quality assessment; resolves to a bool verdict.

        Raises ``ValueError`` here, before queueing, when ``observed`` is not
        a 2-D matrix, contains ±inf or ``cycle`` is not one of its columns,
        and ``TypeError`` when the assessor or the inference cannot be keyed
        for pooling (see :func:`~repro.serve.cache.pool_key`): a request
        that cannot be answered must not fail the requests pooled with it.
        """
        shape = check_matrix(observed, "observed").shape
        if not 0 <= cycle < shape[1]:
            raise ValueError(f"cycle {cycle} out of range for {shape[1]} cycles")
        pool_key(assessor)
        pool_key(inference)
        payload = AssessQuery(
            assessor=assessor,
            inference=inference,
            observed=observed,
            cycle=int(cycle),
            requirement=requirement,
        )
        return self._submit("assess", payload, tenant=tenant)

    def complete_matrix(
        self,
        inference: InferenceAlgorithm,
        matrix: np.ndarray,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> PendingResult:
        """Queue a matrix completion; resolves to the completed matrix.

        Raises ``ValueError`` here, before queueing, when ``matrix`` is not
        2-D, contains ±inf or has no observed (non-NaN) entry, and
        ``TypeError`` when the inference cannot be keyed for pooling: a
        request that cannot be answered must not fail the requests pooled
        with it.
        """
        if np.isnan(check_matrix(matrix, "matrix")).all():
            raise ValueError("cannot infer from a matrix with no observed entries")
        pool_key(inference)
        return self._submit(
            "complete", CompleteQuery(inference=inference, matrix=matrix), tenant=tenant
        )

    def learn_batch(
        self, learner: Any, batch: Any, *, tenant: str = DEFAULT_TENANT
    ) -> PendingResult:
        """Queue a transition batch for the central learner; resolves to a receipt.

        ``learner`` is a :class:`~repro.learner.core.Learner` (anything with
        ``ingest(batches) -> receipts`` and ``check_batch(batch)``
        methods); ``batch`` a :class:`~repro.learner.replay.TransitionBatch`.
        Batches for the same learner that land in one flush are ingested in
        submission order with a single ``ingest`` call, and the learner's combined
        staleness/ingestion telemetry is snapshotted into
        :attr:`ServerStats.learners` after every flush.

        Raises ``ValueError`` here, before queueing, when the learner's
        ``check_batch`` refuses ``batch``: the learner ingests a flush's
        batches in one call, so a batch it cannot take must not fail, or
        half-apply, the batches pooled with it.
        """
        if not hasattr(learner, "ingest"):
            raise TypeError(
                f"{type(learner).__name__} cannot ingest transition batches; "
                "expected a learner with an ingest method"
            )
        learner.check_batch(batch)
        return self._submit("learn", LearnQuery(learner=learner, batch=batch), tenant=tenant)

    def _submit(self, kind: str, payload: Any, *, tenant: str = DEFAULT_TENANT) -> PendingResult:
        request = self.batcher.submit(kind, payload, tenant=tenant)
        for subscriber in self._subscribers:
            subscriber.request(request)
        if self.batcher.is_full(kind):
            self._flush_one_batch(kind, trigger="full")
        return request.future

    # -- pumping -----------------------------------------------------------------

    def tick(self, ticks: int = 1) -> int:
        """Advance the logical clock and flush every endpoint that became due.

        Returns the number of requests resolved.
        """
        self.clock.advance(ticks)
        resolved = 0
        for kind in KINDS:
            while self.batcher.is_due(kind):
                resolved += self._flush_one_batch(kind, trigger="due")
        return resolved

    def flush(self, kind: Optional[str] = None) -> int:
        """Flush every pending request (of one kind, or all kinds), ignoring timers."""
        kinds = (kind,) if kind is not None else KINDS
        resolved = 0
        for current in kinds:
            while self.batcher.pending(current):
                resolved += self._flush_one_batch(current, trigger="forced")
        return resolved

    def run_pending(self) -> int:
        """Resolve everything currently queued, advancing the clock once.

        This is the scheduler's pump: one logical tick (so wait-based
        telemetry stays meaningful), then a full priority-ordered flush.
        """
        if not self.batcher.pending():
            return 0
        resolved = self.tick()
        resolved += self.flush()
        return resolved

    @property
    def pending(self) -> int:
        """Requests currently queued across all endpoints."""
        return self.batcher.pending()

    # -- batch handlers ----------------------------------------------------------

    def _flush_one_batch(self, kind: str, *, trigger: str = "forced") -> int:
        waiting = self.batcher.pending_tenants(kind)
        requests = self.batcher.drain(kind)
        if not requests:
            return 0
        served = {request.tenant for request in requests}
        record = FlushRecord(
            kind,
            self.clock.now(),
            trigger,
            requests,
            starved=tuple(tenant for tenant in waiting if tenant not in served),
        )
        if kind == "learn":
            for request in requests:
                learner = request.payload.learner
                record.learners.setdefault(self._learner_label(learner), learner)
        for subscriber in self._subscribers:
            subscriber.flush(record)
        handler = {
            "select": self._handle_select,
            "assess": self._handle_assess,
            "complete": self._handle_complete,
            "learn": self._handle_learn,
        }[kind]
        hits, misses = self.cache.hits, self.cache.misses
        record.start = monotonic()
        try:
            handler(requests)
        except BaseException as error:  # no request of the batch stays unresolved
            self._fail_group(requests, error)
            raise
        finally:
            record.end = monotonic()
            record.cache_hits = self.cache.hits - hits
            record.cache_misses = self.cache.misses - misses
            for subscriber in self._subscribers:
                subscriber.flushed(record)
        return len(requests)

    def _handle_select(self, requests: List[ServeRequest]) -> None:
        """Answer policy queries: one group per agent, one forward per weight set.

        :func:`~repro.rl.dqn.select_groups` pulls every serving actor,
        forwards the groups that share a weight set and a size on one
        leading group axis, and draws group by group in first-request order,
        each on its agent's own generator.  A group whose pull, forward or
        draws raise fails alone.
        """
        groups: Dict[int, List[ServeRequest]] = {}
        for request in requests:
            groups.setdefault(id(request.payload.agent), []).append(request)
        outcomes = select_groups(
            [
                (
                    group[0].payload.agent,
                    [request.payload.state for request in group],
                    [request.payload.mask for request in group],
                    [request.payload.greedy for request in group],
                )
                for group in groups.values()
            ]
        )
        for group, outcome in zip(groups.values(), outcomes):
            if isinstance(outcome, Exception):
                self._fail_group(group, outcome)
                continue
            for request, action in zip(group, outcome):
                request.future.set_result(action)

    def _handle_assess(self, requests: List[ServeRequest]) -> None:
        """Answer assessments, one ``assess_many`` per (assessor, inference) class."""
        from repro.mcs.campaign import _assess_pooled  # local import: avoids a package cycle

        verdicts = _assess_pooled(
            requests, _payload, cached=self._cached, fail=self._fail_group
        )
        for request, verdict in zip(requests, verdicts):
            if not request.future.done:  # failed groups are already resolved
                request.future.set_result(bool(verdict))

    def _handle_complete(self, requests: List[ServeRequest]) -> None:
        """Answer completions, one ``complete_batch`` per inference class."""
        from repro.mcs.campaign import _complete_pooled  # local import: avoids a package cycle

        completed = _complete_pooled(
            requests, _payload, cached=self._cached, fail=self._fail_group
        )
        for request, matrix in zip(requests, completed):
            if not request.future.done:  # failed groups are already resolved
                request.future.set_result(matrix)

    def _handle_learn(self, requests: List[ServeRequest]) -> None:
        """Feed the central learner(s), one ``ingest`` call per learner.

        Batches for the same learner are ingested in submission order —
        exactly the order sequential direct execution would have observed
        the cycles in — and every request resolves to its per-batch receipt.
        The flush record names the learners, so :attr:`ServerStats.learners`
        snapshots their telemetry (weight staleness, per-campaign replay
        accounting, learn progress) after the batch.
        """
        groups: Dict[int, List[ServeRequest]] = {}
        for request in requests:
            groups.setdefault(id(request.payload.learner), []).append(request)
        for group in groups.values():
            try:
                receipts = group[0].payload.learner.ingest(
                    [request.payload.batch for request in group]
                )
            except Exception as error:
                self._fail_group(group, error)
                continue
            for request, receipt in zip(group, receipts):
                request.future.set_result(receipt)

    def _learner_label(self, learner: Any) -> str:
        """Stable telemetry key for a learner instance (first-seen order)."""
        label = self._learner_labels.get(id(learner))
        if label is None:
            label = f"learner-{len(self._learner_labels)}"
            self._learner_labels[id(learner)] = label
        return label

    @staticmethod
    def _fail_group(group: Sequence[ServeRequest], error: BaseException) -> None:
        for request in group:
            if not request.future.done:
                request.future.set_exception(error)

    def _cached(self, inference: InferenceAlgorithm) -> InferenceAlgorithm:
        """The caching wrapper for ``inference`` (one per live instance, shared cache)."""
        if isinstance(inference, CachingInference):
            return inference
        wrapper = self._cached_wrappers.get(id(inference))
        # The identity check guards against id() reuse after the original
        # instance was garbage-collected.
        if wrapper is None or wrapper.inner is not inference:
            wrapper = CachingInference(inference, self.cache)
            self._cached_wrappers[id(inference)] = wrapper
        self._cached_wrappers.move_to_end(id(inference))
        while len(self._cached_wrappers) > self._max_wrappers:
            self._cached_wrappers.popitem(last=False)
        return wrapper

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionServer(pending={self.pending}, "
            f"tick={self.clock.now()}, cache={self.cache!r})"
        )


#: Yield this from a driven client to park at a cycle boundary until every
#: other client reaches one (or finishes).  Campaign runners emit it after
#: each completed cycle, which keeps co-scheduled fleets cycle-aligned: no
#: batch ever mixes requests from different campaign cycles, and the global
#: boundary after cycle ``c`` is a well-defined quiescent point — the state
#: a :class:`~repro.serve.checkpoint.ServerCheckpoint` captures and a
#: resumed drive reproduces exactly.
CYCLE_BARRIER = "cycle-barrier"


def drive(
    server: DecisionServer,
    clients: Iterable[Iterator],
    *,
    on_barrier: Optional[Callable[[], None]] = None,
) -> None:
    """Cooperatively drive generator clients against one server to completion.

    Exhausts :func:`drive_rounds`; see it for the schedule.
    """
    for _ in drive_rounds(server, clients, on_barrier=on_barrier):
        pass


def drive_rounds(
    server: DecisionServer,
    clients: Iterable[Iterator],
    *,
    on_barrier: Optional[Callable[[], None]] = None,
) -> Iterator[None]:
    """:func:`drive`, one scheduling round per ``next()``.

    Yields after each round's ``server.run_pending()``, so a caller can
    interleave several drives round by round — e.g. to time a bare and an
    observed fleet under the same machine load — or stop between rounds.
    Nothing runs until the first ``next()``.

    Each client is a generator that submits requests to ``server`` and
    ``yield``\\ s whenever it needs pending futures resolved before it can
    continue (see :class:`~repro.mcs.served.ServedCampaignRunner.launch`).
    The scheduler round-robins: every live client is advanced once (letting
    it submit its next phase of requests), then the server resolves
    everything pending, then the cycle repeats.  Requests submitted by
    different clients in the same round therefore share batches — campaigns
    never wait on wall-clock time, and the schedule (hence every batched
    result) is deterministic.

    A client that yields :data:`CYCLE_BARRIER` is parked until every other
    live client has also parked (or finished); then all parked clients are
    released into the same scheduling round.  Campaigns of different
    cadence therefore advance cycle-aligned — the alignment that makes
    mid-flight checkpoints resumable bitwise.

    ``on_barrier`` (optional) is called, with no arguments, at every barrier
    release — the drive's quiescent points, where nothing is in flight.
    Observability snapshots hook in here; the callback must not submit
    requests or otherwise perturb the schedule.
    """
    roster: List[Iterator] = list(clients)
    # Launch order, not parking order, defines the round-robin order after a
    # barrier release — a drive resumed from a checkpoint rebuilds its
    # clients in launch order, so the uninterrupted schedule must use it too.
    rank = {id(client): index for index, client in enumerate(roster)}
    runnable: List[Iterator] = roster
    parked: List[Iterator] = []
    while runnable or parked:
        survivors: List[Iterator] = []
        for client in runnable:
            try:
                signal = next(client)
            except StopIteration:
                continue
            if signal == CYCLE_BARRIER:
                parked.append(client)
            else:
                survivors.append(client)
        runnable = survivors
        if not runnable and parked:
            parked.sort(key=lambda client: rank[id(client)])
            runnable, parked = parked, []
            if on_barrier is not None:
                on_barrier()
        server.run_pending()
        yield
