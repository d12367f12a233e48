"""The Sparse MCS campaign: the cycle loop of Figure 2, written once.

For every sensing cycle the loop asks the selection policy for cells one
by one, reveals their ground-truth values ("a participant submits data"),
and after each submission asks the quality assessor whether the cycle now
satisfies the (ε, p)-quality requirement.  When it does (or when every cell
has been sensed) the remaining cells are inferred and the campaign moves to
the next cycle.  The true per-cycle inference error is recorded against the
ground truth so the evaluation can verify the quality guarantee was really
met.

:func:`_cycle_loop` is that loop, as a generator over any number of
lockstep slots.  It delegates four phases — select, assess the due slots,
complete the end-of-cycle windows, and the end-of-cycle hand-off — to an
*executor*; the runners differ only in the executor they supply:

* :class:`CampaignRunner` — exact-sequential: one ``assess`` and one
  ``complete`` call per slot, the paper's Gauss–Seidel ALS;
* :class:`BatchedCampaignRunner` — pooled: one ``assess_many`` and one
  ``complete_batch`` call per pool key (:func:`_assess_pooled`,
  :func:`_complete_pooled`);
* :class:`~repro.mcs.served.ServedCampaignRunner` — served: each phase
  becomes server requests, and the loop yields until they resolve.  The
  server answers them with the same pooled helpers, which is why served
  results equal pooled results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult, CycleRecord
from repro.mcs.task import SensingTask
from repro.serve.cache import pool_key
from repro.serve.server import AssessQuery, CompleteQuery
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

logger = get_logger(__name__)


def _warn_on_window_mismatch(task: SensingTask, config: "CampaignConfig") -> None:
    """Warn when the campaign and the assessor window history differently.

    The campaign hands the assessor the full ``observed[:, :cycle+1]`` matrix
    and each side then windows it independently: the assessor with its own
    ``history_window``, the campaign's final-error computation with
    ``config.history_window``.  When the two disagree, the assessed error and
    the recorded true error are computed over different histories, which can
    silently bias the (ε, p) evaluation — surface it loudly.
    """
    assessor_window = getattr(task.assessor, "history_window", None)
    if assessor_window is not None and int(assessor_window) != config.history_window:
        logger.warning(
            "campaign history_window (%d) differs from the assessor's history_window "
            "(%d); the assessed error and the recorded true error will be computed "
            "over different histories",
            config.history_window,
            int(assessor_window),
        )


@dataclass
class CampaignConfig:
    """Knobs of the campaign loop.

    Attributes
    ----------
    min_cells_per_cycle:
        Number of cells always sensed before the assessor is first consulted
        (the assessor needs a few observations to say anything meaningful).
    max_cells_per_cycle:
        Optional hard cap on submissions per cycle; ``None`` means the cap is
        the number of cells.
    assess_every:
        Consult the assessor after every ``assess_every``-th submission
        (1 = after each submission, as in the paper; larger values trade a
        slightly higher selection count for fewer assessments).
    history_window:
        Number of past cycles kept in the observation matrix handed to the
        inference algorithm when computing the final per-cycle error.
    """

    min_cells_per_cycle: int = 3
    max_cells_per_cycle: Optional[int] = None
    assess_every: int = 1
    history_window: int = 24

    def __post_init__(self) -> None:
        check_positive_int(self.min_cells_per_cycle, "min_cells_per_cycle")
        check_positive_int(self.assess_every, "assess_every")
        check_positive_int(self.history_window, "history_window")
        if self.max_cells_per_cycle is not None:
            check_positive_int(self.max_cells_per_cycle, "max_cells_per_cycle")
            if self.max_cells_per_cycle < self.min_cells_per_cycle:
                raise ValueError(
                    "max_cells_per_cycle must be >= min_cells_per_cycle "
                    f"({self.max_cells_per_cycle} < {self.min_cells_per_cycle})"
                )


def _itself(value):
    return value


def _group_by(queries, key) -> List[List[int]]:
    """Indices of ``queries`` grouped by ``key(query)``, in first-seen order.

    First-seen order makes the pooled calls consume shared random streams
    in a deterministic order.
    """
    groups: Dict[Hashable, List[int]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(key(query), []).append(index)
    return list(groups.values())


def _assess_pooled(items, query=_itself, *, cached=_itself, fail=None) -> List:
    """Verdicts for ``items``, one ``assess_many`` call per pooling class.

    ``query(item)`` exposes the :class:`~repro.serve.server.AssessQuery`
    fields.  Items pool by the (assessor, inference)
    :func:`~repro.serve.cache.pool_key` pair, not identity, in first-seen
    order, so distinct but equivalently configured per-slot instances share
    one batched solve.  The representative runs
    the pass through ``cached(inference)``, but each item draws from its
    *own* assessor's RNG stream, so its randomness does not depend on who
    shares its batch.
    A group whose call raises goes to ``fail(group_items, error)`` and its
    verdicts stay ``None``; without ``fail`` the error propagates.
    """
    queries = [query(item) for item in items]
    verdicts: List = [None] * len(queries)
    groups = _group_by(
        queries, lambda query: (pool_key(query.assessor), pool_key(query.inference))
    )
    for group in groups:
        members = [queries[index] for index in group]
        lead = members[0]
        try:
            answers = lead.assessor.assess_many(
                [member.observed for member in members],
                [member.cycle for member in members],
                [member.requirement for member in members],
                cached(lead.inference),
                rngs=[getattr(member.assessor, "rng", None) for member in members],
            )
        except Exception as error:
            if fail is None:
                raise
            fail([items[index] for index in group], error)
            continue
        for index, answer in zip(group, answers):
            verdicts[index] = answer
    return verdicts


def _complete_pooled(items, query=_itself, *, cached=_itself, fail=None) -> List:
    """Completed matrices for ``items``, one ``complete_batch`` per inference class.

    The counterpart of :func:`_assess_pooled` for
    :class:`~repro.serve.server.CompleteQuery` fields, under the same
    ``cached`` / ``fail`` contract.
    """
    queries = [query(item) for item in items]
    completed: List = [None] * len(queries)
    groups = _group_by(queries, lambda query: pool_key(query.inference))
    for group in groups:
        inference = cached(queries[group[0]].inference)
        try:
            matrices = inference.complete_batch([queries[index].matrix for index in group])
        except Exception as error:
            if fail is None:
                raise
            fail([items[index] for index in group], error)
            continue
        for index, matrix in zip(group, matrices):
            completed[index] = matrix
    return completed


@dataclass
class _CampaignSlot:
    """Mutable per-(task, policy) state of one lockstep campaign slot."""

    task: SensingTask
    policy: CellSelectionPolicy
    observed: np.ndarray
    inferred: np.ndarray
    result: CampaignResult
    sensed_mask: np.ndarray
    selected_order: List[int] = field(default_factory=list)
    assessed_satisfied: bool = False
    #: Tenant (campaign) id the serving layer tags this slot's requests with;
    #: the direct runners never read it.
    tenant: str = "default"

    @property
    def n_selected(self) -> int:
        return len(self.selected_order)


def _open_slots(
    tasks: Sequence[SensingTask],
    policies: Sequence[CellSelectionPolicy],
    n_cycles: Optional[int],
    **metadata: Any,
) -> Tuple[List[_CampaignSlot], int]:
    """Fresh slots pairing tasks with policies, and the clamped cycle budget.

    One task is shared by every policy; otherwise ``policies[i]`` runs
    against ``tasks[i]``.  ``metadata`` extends every result's metadata.
    """
    if not policies:
        raise ValueError("at least one policy is required")
    tasks = list(tasks)
    if len(tasks) == 1 and len(policies) > 1:
        tasks = tasks * len(policies)
    if len(tasks) != len(policies):
        raise ValueError(
            f"{len(policies)} policies for {len(tasks)} tasks; provide one task "
            "(shared) or exactly one task per policy"
        )
    dataset = tasks[0].dataset
    total_cycles = dataset.n_cycles if n_cycles is None else min(
        check_positive_int(n_cycles, "n_cycles"), dataset.n_cycles
    )
    n_cells = dataset.n_cells
    slots = [
        _CampaignSlot(
            task=task,
            policy=policy,
            observed=np.full((n_cells, total_cycles), np.nan),
            inferred=np.full((n_cells, total_cycles), np.nan),
            result=CampaignResult(
                policy_name=policy.name,
                requirement=task.requirement,
                n_cells=n_cells,
                metadata={"dataset": dataset.name, "n_cycles": total_cycles, **metadata},
            ),
            sensed_mask=np.zeros(n_cells, dtype=bool),
        )
        for task, policy in zip(tasks, policies)
    ]
    return slots, total_cycles


def _settle(answers: List) -> Iterator[None]:
    """Yield once if any answer is deferred, then return them all resolved.

    An executor answers each slot with a value or with a zero-argument
    callable that returns it once the server has run (a pending future's
    ``result``).  Direct executors never defer, so their loop never yields.
    """
    if any(callable(answer) for answer in answers):
        yield
        answers = [answer() if callable(answer) else answer for answer in answers]
    return answers


def _cycle_loop(
    slots: List[_CampaignSlot], config: CampaignConfig, cycles: range, executor
) -> Iterator:
    """The campaign cycle loop of Figure 2, for any number of lockstep slots.

    Every cycle each active slot selects a cell (``executor.select``), the
    loop reveals it, and every slot due under the ``assess_every`` cadence is
    assessed (``executor.assess``); a slot stops once its assessor is
    satisfied or it hits the cell cap.  The not-fully-sensed slots' windows
    are then completed (``executor.complete``), each slot's true error is
    recorded, and ``executor.hand_off`` closes the cycle.  The executor
    decides *how* each phase computes; the loop is a generator so the served
    executor can yield to its server between phases.
    """
    dataset = slots[0].task.dataset
    ground_truth = dataset.data
    n_cells = dataset.n_cells
    max_cells = min(config.max_cells_per_cycle or n_cells, n_cells)
    min_cells = min(config.min_cells_per_cycle, max_cells)

    for cycle in cycles:
        for slot in slots:
            slot.policy.begin_cycle(cycle, slot.observed)
            slot.sensed_mask = np.zeros(n_cells, dtype=bool)
            slot.selected_order = []
            slot.assessed_satisfied = False

        # Submission rounds.  Slots are independent, so a slot's selection
        # never depends on another slot's reveal within the round.
        active = list(slots)
        while active:
            cells = yield from _settle(executor.select(active, cycle))
            for slot, cell in zip(active, cells):
                cell = CellSelectionPolicy._validate_selection(cell, slot.sensed_mask)
                slot.sensed_mask[cell] = True
                slot.selected_order.append(cell)
                slot.observed[cell, cycle] = ground_truth[cell, cycle]
            due = [
                slot
                for slot in active
                if slot.n_selected >= min_cells
                and (slot.n_selected - min_cells) % config.assess_every == 0
            ]
            if due:
                verdicts = yield from _settle(executor.assess(due, cycle))
                for slot, verdict in zip(due, verdicts):
                    if verdict:
                        slot.assessed_satisfied = True
            active = [
                slot
                for slot in active
                if not slot.assessed_satisfied and slot.n_selected < max_cells
            ]

        # End-of-cycle inference; a fully sensed cycle needs none.
        start = max(0, cycle + 1 - config.history_window)
        pending = []
        for slot in slots:
            if slot.sensed_mask.all():
                slot.inferred[:, cycle] = ground_truth[:, cycle]
            else:
                pending.append(slot)
        if pending:
            windows = [slot.observed[:, start : cycle + 1] for slot in pending]
            completed = yield from _settle(executor.complete(pending, windows))
            for slot, matrix in zip(pending, completed):
                slot.inferred[:, cycle] = matrix[:, matrix.shape[1] - 1]

        for slot in slots:
            slot.policy.end_cycle(cycle, slot.observed)
            slot.result.add_record(
                CycleRecord(
                    cycle=cycle,
                    selected_cells=tuple(slot.selected_order),
                    true_error=float(
                        slot.task.requirement.column_error(
                            ground_truth[:, cycle],
                            slot.inferred[:, cycle],
                            exclude=slot.sensed_mask,
                        )
                    ),
                    assessed_satisfied=slot.assessed_satisfied,
                )
            )
        yield from executor.hand_off(slots, cycle)

    for slot in slots:
        slot.result.inferred_matrix = slot.inferred


def _run_direct(slots, config, cycles, executor) -> List[CampaignResult]:
    """Drive the cycle loop to exhaustion (direct executors never yield)."""
    for _ in _cycle_loop(slots, config, cycles, executor):
        pass
    return [slot.result for slot in slots]


class _SequentialExecutor:
    """Exact-sequential phases: one ``assess`` and one ``complete`` call per slot.

    The paper's protocol verbatim: each completion runs the algorithm's own
    (Gauss–Seidel, for ALS) solver, so a slot's results never depend on
    which other slots share its cycle.
    """

    def select(self, active, cycle):
        return [
            slot.policy.select_cell(slot.observed, cycle, slot.sensed_mask)
            for slot in active
        ]

    def assess(self, due, cycle):
        return [
            slot.task.assessor.assess(
                slot.observed[:, : cycle + 1],
                cycle,
                slot.task.requirement,
                slot.task.inference,
            )
            for slot in due
        ]

    def complete(self, pending, windows):
        return [
            slot.task.inference.complete(window)
            for slot, window in zip(pending, windows)
        ]

    def hand_off(self, slots, cycle):
        return ()


class _PooledExecutor(_SequentialExecutor):
    """Pooled phases: one ``assess_many`` / ``complete_batch`` per pool key."""

    def assess(self, due, cycle):
        return _assess_pooled(
            [
                AssessQuery(
                    slot.task.assessor,
                    slot.task.inference,
                    slot.observed[:, : cycle + 1],
                    cycle,
                    slot.task.requirement,
                )
                for slot in due
            ]
        )

    def complete(self, pending, windows):
        return _complete_pooled(
            [
                CompleteQuery(slot.task.inference, window)
                for slot, window in zip(pending, windows)
            ]
        )


class CampaignRunner:
    """Runs a full Sparse MCS campaign for one task and one selection policy.

    The exact-sequential executor of the cycle loop: every assessment and
    completion is one direct call on the task's components.
    """

    def __init__(self, task: SensingTask, config: Optional[CampaignConfig] = None) -> None:
        self.task = task
        self.config = config or CampaignConfig()
        _warn_on_window_mismatch(task, self.config)

    def run(self, policy: CellSelectionPolicy, *, n_cycles: Optional[int] = None) -> CampaignResult:
        """Execute the campaign and return its :class:`CampaignResult`.

        Parameters
        ----------
        policy:
            The cell-selection policy under evaluation.
        n_cycles:
            Optionally restrict the campaign to the first ``n_cycles`` cycles
            of the task's dataset (used by tests and quick examples).
        """
        slots, total_cycles = _open_slots([self.task], [policy], n_cycles)
        (result,) = _run_direct(
            slots, self.config, range(total_cycles), _SequentialExecutor()
        )
        return result


class BatchedCampaignRunner:
    """Runs P campaigns over one shared dataset in lockstep, batching inference.

    The testing-stage evaluation (Figure 6 / Figure 7) compares several
    policies — and often several requirement settings — over the *same*
    dataset.  Running them one :class:`CampaignRunner` at a time repeats the
    dominant cost, the per-submission quality assessment, P times over.  This
    runner instead steps every campaign slot through the cycle loop together
    with the pooled executor:

    * after each lockstep submission round, all due slots are assessed with
      one :meth:`~repro.quality.loo_bayesian.QualityAssessor.assess_many`
      call per (assessor, inference) pool key, which pools every
      slot's LOO completions into a single ``complete_batch`` solve;
    * at the end of each cycle, the not-fully-sensed slots' final inference
      windows are completed with one batched call per inference class.

    Each slot's campaign semantics are unchanged — a slot stops sensing as
    soon as *its* assessor is satisfied, and records the same per-cycle
    statistics as :class:`CampaignRunner`.  With an inference algorithm that
    has no vectorized solver the batched calls degrade to the sequential
    loop, making the results bit-exact with P separate runners; with a
    vectorized solver (batched ALS) they agree within the solver's
    documented tolerance.

    Parameters
    ----------
    tasks:
        One :class:`SensingTask` (shared by every policy) or one task per
        policy.  All tasks must be bound to the same dataset object —
        lockstep over different ground truths is a logic error.
    config:
        Shared campaign configuration.
    """

    def __init__(
        self,
        tasks: Union[SensingTask, Sequence[SensingTask]],
        config: Optional[CampaignConfig] = None,
    ) -> None:
        if isinstance(tasks, SensingTask):
            tasks = [tasks]
        if not tasks:
            raise ValueError("at least one task is required")
        self.tasks = list(tasks)
        self.config = config or CampaignConfig()
        dataset = self.tasks[0].dataset
        for index, task in enumerate(self.tasks):
            if task.dataset is not dataset:
                raise ValueError(
                    f"task {index} is bound to a different dataset; lockstep slots "
                    "must share one dataset"
                )
        for task in {id(task): task for task in self.tasks}.values():
            _warn_on_window_mismatch(task, self.config)

    def run(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
    ) -> List[CampaignResult]:
        """Run every (task, policy) slot to completion; results are policy-aligned.

        With one task and P policies, every policy runs against that task;
        otherwise ``policies[i]`` runs against ``tasks[i]``.
        """
        slots, total_cycles = _open_slots(self.tasks, policies, n_cycles)
        return _run_direct(slots, self.config, range(total_cycles), _PooledExecutor())
