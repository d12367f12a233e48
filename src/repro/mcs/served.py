"""Server-backed campaigns: the campaign cycle loop against a :class:`DecisionServer`.

:class:`ServedCampaignRunner` drives the one campaign cycle loop of
:mod:`repro.mcs.campaign` — the same submission rounds, the same assessment
cadence, the same per-cycle records as
:class:`~repro.mcs.campaign.BatchedCampaignRunner` — with the *served*
executor, which routes every phase through a shared
:class:`~repro.serve.server.DecisionServer` instead of calling the
components directly:

* DR-Cell policy queries become ``select_cell`` requests (one stacked
  Q-network forward for every pending query against a shared agent; other
  policies keep selecting locally, they are cheap);
* due-slot quality assessments become ``assess_quality`` requests;
* end-of-cycle completions become ``complete_matrix`` requests;
* for served online policies (:class:`~repro.learner.actor.ActorPolicy`),
  the end-of-cycle hand-off ships each finished cycle's transitions to the
  central learner as a ``learn_batch`` request, resolved before the next
  cycle's selections are submitted.

Requests are submitted in slot order, the server processes each batch FIFO,
and it answers assessments and completions with the pooled executor's own
helpers (:func:`~repro.mcs.campaign._assess_pooled`,
:func:`~repro.mcs.campaign._complete_pooled`).  A single runner driven alone
against a server therefore reproduces the direct ``BatchedCampaignRunner``
results bitwise, including every assessor's RNG stream (the server forms the
same pooled batches, so the completion cache returns the bytes a direct
recomputation produces).

The new capability is *concurrency*: :meth:`launch` returns a generator, and
any number of runners — over different datasets, requirements, scenarios —
can be driven cooperatively against one server with
:func:`repro.serve.server.drive`.  Requests from different runners land in
the same server batches, so independent campaigns share Q-network forwards,
ALS solves and cached completions that the per-fleet runners cannot fuse.
Note that cross-runner pooling feeds *equivalent* (but distinct) assessor
instances through one representative, so a runner sharing a server with
equivalent neighbours sees the same decisions only in distribution, not
bitwise — run a runner alone (or with non-equivalent neighbours) when exact
reproduction matters.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.mcs.campaign import (
    BatchedCampaignRunner,
    CampaignConfig,
    _CampaignSlot,
    _cycle_loop,
    _open_slots,
    _settle,
)
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult, CycleRecord
from repro.serve.batcher import PendingResult
from repro.serve.server import CYCLE_BARRIER, DecisionServer, drive
from repro.utils.validation import check_positive_int


class ServedCampaignRunner(BatchedCampaignRunner):
    """A lockstep campaign fleet whose batched decisions come from a server.

    Parameters
    ----------
    tasks:
        As for :class:`~repro.mcs.campaign.BatchedCampaignRunner`: one task
        (shared by every policy) or one per policy, all bound to the same
        dataset object.
    config:
        Shared campaign configuration.
    server:
        The :class:`~repro.serve.server.DecisionServer` to submit decision
        requests to.  Several runners may share one server; drive them
        together with :func:`repro.serve.server.drive`.
    """

    def __init__(
        self,
        tasks,
        config: Optional[CampaignConfig] = None,
        *,
        server: DecisionServer,
    ) -> None:
        super().__init__(tasks, config)
        if not isinstance(server, DecisionServer):
            raise TypeError(f"expected a DecisionServer, got {type(server).__name__}")
        self.server = server
        self._results: Optional[List[CampaignResult]] = None
        self._slots: Optional[List[_CampaignSlot]] = None

    # -- running -----------------------------------------------------------------

    def run(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
    ) -> List[CampaignResult]:
        """Drive this runner alone against its server, to completion.

        Single-runner results are bitwise identical to
        :meth:`BatchedCampaignRunner.run` with the same tasks and policies
        (see the module docstring for why).
        """
        drive(self.server, [self.launch(policies, n_cycles=n_cycles)])
        return self.results

    @property
    def results(self) -> List[CampaignResult]:
        """The policy-aligned results of the last completed :meth:`launch` drive."""
        if self._results is None:
            raise RuntimeError(
                "no completed run; drive launch() to completion first"
            )
        return self._results

    def launch(
        self,
        policies: Sequence[CellSelectionPolicy],
        *,
        n_cycles: Optional[int] = None,
        tenants: Optional[Sequence[str]] = None,
        start_cycle: int = 0,
        stop_cycle: Optional[int] = None,
        slot_states: Optional[Sequence[Optional[dict]]] = None,
    ) -> Iterator[None]:
        """A cooperative driver for this fleet's campaigns.

        The returned generator submits one *phase* of server requests at a
        time (a submission round's policy queries, then its due
        assessments, then — per cycle — the final completions and learn
        batches) and yields whenever submitted futures must resolve before
        it can continue.  Advance it with :func:`repro.serve.server.drive`,
        interleaved with any other runners sharing the server.  Arguments
        are validated here, before the generator is returned, so a bad
        launch fails before any co-driven runner submits a request.

        Parameters
        ----------
        tenants:
            Per-slot campaign ids the server tags requests with (fairness
            accounting and journal attribution); defaults to
            ``campaign-{i}`` in slot order.
        start_cycle, stop_cycle, slot_states:
            Checkpoint/resume support.  ``stop_cycle`` ends the run early
            (exclusive bound) while the slots' matrices stay sized for the
            full ``n_cycles`` budget, so :meth:`slot_states` captured at the
            stop restores cleanly.  To resume, pass ``start_cycle`` and the
            captured ``slot_states``: cycles before ``start_cycle`` are
            skipped and each slot is restored (observed/inferred matrices,
            cycle records, policy and assessor state) before the first
            resumed cycle runs.
        """
        slots, total_cycles = _open_slots(self.tasks, policies, n_cycles, served=True)
        if tenants is None:
            tenants = [f"campaign-{index}" for index in range(len(slots))]
        if len(tenants) != len(slots):
            raise ValueError(f"{len(slots)} slots but {len(tenants)} tenants")
        for slot, tenant in zip(slots, tenants):
            slot.tenant = str(tenant)
        start_cycle = int(start_cycle)
        if not 0 <= start_cycle <= total_cycles:
            raise ValueError(
                f"start_cycle {start_cycle} out of range [0, {total_cycles}]"
            )
        end_cycle = total_cycles
        if stop_cycle is not None:
            end_cycle = check_positive_int(stop_cycle, "stop_cycle")
            if not start_cycle <= end_cycle <= total_cycles:
                raise ValueError(
                    f"stop_cycle {end_cycle} out of range "
                    f"[{start_cycle}, {total_cycles}]"
                )
        if slot_states is not None and len(slot_states) != len(slots):
            raise ValueError(f"{len(slots)} slots but {len(slot_states)} slot states")
        self._results = None
        self._slots = slots
        return self._drive(slots, range(start_cycle, end_cycle), slot_states)

    # -- internals ---------------------------------------------------------------

    def _drive(
        self,
        slots: List[_CampaignSlot],
        cycles: range,
        slot_states: Optional[Sequence[Optional[dict]]],
    ) -> Iterator[None]:
        if slot_states is not None:
            for slot, state in zip(slots, slot_states):
                if state is not None:
                    self._restore_slot(slot, state)
        # Actor policies defer their end-of-cycle learning to the server's
        # learn_batch endpoint (and adopt its clock for publication stamps).
        for slot in slots:
            bind = getattr(slot.policy, "bind_server", None)
            if bind is not None:
                bind(self.server)
        yield from _cycle_loop(slots, self.config, cycles, _ServedExecutor(self.server))
        self._results = [slot.result for slot in slots]

    # -- checkpointing -----------------------------------------------------------

    def slot_states(self) -> List[dict]:
        """Per-slot checkpoint payloads (capture at a cycle boundary only).

        Each entry carries the slot's observed/inferred matrices, its cycle
        records so far, and the policy's and assessor's round-trippable
        state (``None`` for stateless components).  Feed the list back to
        :meth:`launch` via ``slot_states`` together with ``start_cycle`` to
        resume bitwise.  Shared components (one agent or assessor across
        slots) are captured once per slot with identical content, so the
        idempotent per-slot restore converges to the same shared state.
        """
        from repro.utils.statedict import encode_array

        if self._slots is None:
            raise RuntimeError("no launched fleet; call launch() and drive it first")
        states: List[dict] = []
        for slot in self._slots:
            policy_state = None
            if hasattr(slot.policy, "state_dict"):
                policy_state = slot.policy.state_dict()
            assessor_state = None
            if hasattr(slot.task.assessor, "state_dict"):
                assessor_state = slot.task.assessor.state_dict()
            states.append(
                {
                    "tenant": slot.tenant,
                    "observed": encode_array(slot.observed),
                    "inferred": encode_array(slot.inferred),
                    "records": [
                        {
                            "cycle": record.cycle,
                            "selected_cells": list(record.selected_cells),
                            "true_error": record.true_error,
                            "assessed_satisfied": record.assessed_satisfied,
                        }
                        for record in slot.result.records
                    ],
                    "policy": policy_state,
                    "assessor": assessor_state,
                }
            )
        return states

    @staticmethod
    def _restore_slot(slot: _CampaignSlot, state: dict) -> None:
        """Apply one :meth:`slot_states` entry onto a freshly built slot."""
        from repro.utils.statedict import decode_array

        observed = decode_array(state["observed"])
        inferred = decode_array(state["inferred"])
        if observed.shape != slot.observed.shape:
            raise ValueError(
                f"checkpointed observed matrix shape {observed.shape} does not "
                f"match the fleet's {slot.observed.shape} — resume with the "
                "same scenario and cycle budget it was recorded under"
            )
        slot.observed[:, :] = observed
        slot.inferred[:, :] = inferred
        slot.result.records = []
        for record in state["records"]:
            slot.result.add_record(
                CycleRecord(
                    cycle=int(record["cycle"]),
                    selected_cells=tuple(int(c) for c in record["selected_cells"]),
                    true_error=float(record["true_error"]),
                    assessed_satisfied=bool(record["assessed_satisfied"]),
                )
            )
        if state.get("policy") is not None:
            slot.policy.load_state_dict(state["policy"])
        if state.get("assessor") is not None:
            slot.task.assessor.load_state_dict(state["assessor"])


class _ServedExecutor:
    """Served phases: every decision is a server request; answers are futures.

    Requests are submitted in slot order, each phase's answers are the
    pending futures' ``result`` callables, and the cycle loop yields until
    the server resolves them.  The request order per cycle is: selection
    rounds (each followed by its due assessments), completions, learn
    batches, then :data:`~repro.serve.server.CYCLE_BARRIER`.
    """

    def __init__(self, server: DecisionServer) -> None:
        self.server = server

    def select(self, active: List[_CampaignSlot], cycle: int) -> list:
        # Agent-backed policies go through the server (their queries stack
        # with every other pending query against the same agent); other
        # policies select locally.
        return [self._select(slot, cycle) for slot in active]

    def _select(self, slot: _CampaignSlot, cycle: int):
        future = self._select_query(slot, cycle)
        if future is None:
            return slot.policy.select_cell(slot.observed, cycle, slot.sensed_mask)
        notify = getattr(slot.policy, "observe_selection", None)
        if notify is None:
            return future.result

        def resolve() -> int:
            # Actor policies record the trajectory policy-side: report the
            # server-resolved action back so states and actions stay
            # aligned in submission order.
            cell = future.result()
            notify(cell)
            return cell

        return resolve

    def _select_query(
        self, slot: _CampaignSlot, cycle: int
    ) -> Optional[PendingResult]:
        """Submit a server-side policy query for the slot, if its policy supports it.

        Plain :class:`~repro.core.drcell.DRCellPolicy` queries are servable,
        and so are :class:`~repro.learner.actor.ActorPolicy` queries — the
        actor's selection is side-effect free (its learning streams through
        ``learn_batch`` at cycle boundaries instead).  Other policies with
        selection-time side effects (e.g. the direct online learner) keep
        their own ``select_cell`` protocol and run locally.
        """
        # Local imports: repro.core.drcell and repro.learner.actor reach back
        # into repro.mcs for the policy interface, so importing them at
        # module scope would cycle.
        from repro.core.drcell import DRCellPolicy
        from repro.learner.actor import ActorPolicy

        policy = slot.policy
        if isinstance(policy, ActorPolicy):
            state, mask = policy.prepare_query(slot.observed, cycle, slot.sensed_mask)
            return self.server.select_cell(
                policy.actor, state, mask, greedy=False, tenant=slot.tenant
            )
        if type(policy) is not DRCellPolicy:
            return None
        agent = policy.agent
        state = agent.state_model.from_observations(
            slot.observed, cycle, slot.sensed_mask
        )
        mask = agent.action_space.mask_from_sensed(slot.sensed_mask)
        return self.server.select_cell(
            agent, state, mask, greedy=policy.greedy, tenant=slot.tenant
        )

    def assess(self, due: List[_CampaignSlot], cycle: int) -> list:
        return [
            self.server.assess_quality(
                slot.task.assessor,
                slot.task.inference,
                slot.observed[:, : cycle + 1],
                cycle,
                slot.task.requirement,
                tenant=slot.tenant,
            ).result
            for slot in due
        ]

    def complete(self, pending: List[_CampaignSlot], windows: list) -> list:
        return [
            self.server.complete_matrix(
                slot.task.inference, window, tenant=slot.tenant
            ).result
            for slot, window in zip(pending, windows)
        ]

    def hand_off(self, slots: List[_CampaignSlot], cycle: int) -> Iterator:
        # Stream the cycle's transitions to the central learner.  The
        # batches resolve (and, under synchronous publication, the updated
        # weights are published) before any next-cycle selection is
        # submitted — matching direct execution's learn-then-select order.
        receipts = []
        for slot in slots:
            take = getattr(slot.policy, "take_transition_batch", None)
            batch = take() if take is not None else None
            if batch is not None:
                receipts.append(
                    self.server.learn_batch(
                        slot.policy.learner, batch, tenant=slot.tenant
                    ).result
                )
        yield from _settle(receipts)
        # Cycle barrier — park until every co-driven runner finishes this
        # cycle.  Fleets of different cadence therefore enter each cycle in
        # the same scheduling round, so no server batch mixes requests from
        # different campaign cycles and the boundary is a global quiescent
        # point a checkpoint can capture and a resumed drive reproduces
        # bitwise.  ``run_pending`` does not tick when nothing is pending,
        # so an already-aligned (or solo) fleet is unaffected.
        yield CYCLE_BARRIER
