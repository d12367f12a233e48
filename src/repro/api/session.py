"""The :class:`Session` facade: specs in, structured reports out.

A session resolves a :class:`~repro.api.specs.ScenarioSpec` into concrete
components (via the :mod:`repro.api.registry` registries), trains whatever
policies need training, and evaluates every slot's testing-stage campaign —
all through the library's vectorized engines:

* training runs through :class:`~repro.core.trainer.DRCellTrainer`, in
  ``shared`` mode as one heterogeneous mixed-dataset / mixed-requirement
  lockstep fleet (:meth:`~repro.core.trainer.DRCellTrainer.train_lockstep`
  over :class:`~repro.mcs.vector.BatchedSparseMCSVectorEnv`);
* evaluation runs through :class:`~repro.mcs.campaign.BatchedCampaignRunner`,
  one lockstep group per distinct dataset, so slots sharing a dataset pool
  their per-submission quality assessments into shared batched solves.

Seed handling follows the library's established stream conventions: unless a
component spec pins its own ``seed``, the session derives one from the
scenario seed with :func:`~repro.utils.seeding.derive_rng` using the stream
declared in the component's registry metadata (``seed_stream``) — the same
streams :mod:`repro.experiments` has always used — so a scenario that
mirrors an experiment's hand-wired construction reproduces it exactly.

Example
-------
>>> from repro.api import ScenarioSpec, Session
>>> spec = ScenarioSpec.from_json(open("examples/scenarios/tiny.json").read())
>>> session = Session.from_spec(spec)
>>> training = session.train()
>>> evaluation = session.evaluate()
>>> [row.as_dict() for row in evaluation.rows]  # doctest: +SKIP
"""

from __future__ import annotations

import copy
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.api.registry import ASSESSORS, DATASETS, INFERENCE, POLICIES, Registry
from repro.api.specs import ScenarioSpec, SlotSpec
from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.core.trainer import DRCellTrainer, TrainingReport
from repro.datasets.base import SensingDataset
from repro.inference.als import SolverStats
from repro.inference.base import InferenceAlgorithm
from repro.mcs.campaign import BatchedCampaignRunner, CampaignConfig
from repro.mcs.policies import CellSelectionPolicy
from repro.mcs.results import CampaignResult
from repro.mcs.task import SensingTask
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import QualityAssessor
from repro.rl.dqn import DQNConfig
from repro.utils.logging import get_logger
from repro.utils.seeding import derive_rng
from repro.utils.validation import check_positive_int

logger = get_logger(__name__)

#: Default `derive_rng` stream for components whose registration declares no
#: ``seed_stream``.  The built-ins declare the streams the experiment harness
#: has always used (inference 5, random policy 21, QBC 22).
DEFAULT_SEED_STREAM = 19


# -- structured reports ---------------------------------------------------------


@dataclass(frozen=True)
class TrainingRow:
    """One training run: the slots it covered and its headline statistics."""

    slots: Tuple[str, ...]
    episodes: int
    total_steps: int
    wall_clock_seconds: float
    mean_episode_reward: float
    final_episode_reward: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "slots": list(self.slots),
            "episodes": self.episodes,
            "total_steps": self.total_steps,
            "wall_clock_seconds": round(self.wall_clock_seconds, 3),
            "mean_episode_reward": round(self.mean_episode_reward, 3),
            "final_episode_reward": round(self.final_episode_reward, 3),
        }


@dataclass
class SessionTrainingReport:
    """Structured result of :meth:`Session.train`."""

    mode: str
    rows: List[TrainingRow] = field(default_factory=list)
    #: Full per-run :class:`~repro.core.trainer.TrainingReport` objects,
    #: keyed by the comma-joined slot names of the run.
    reports: Dict[str, TrainingReport] = field(default_factory=dict)

    def as_dicts(self) -> List[Dict[str, object]]:
        return [row.as_dict() for row in self.rows]


@dataclass(frozen=True)
class EvaluationRow:
    """One slot's testing-stage campaign outcome."""

    slot: str
    policy: str
    dataset: str
    requirement: str
    mean_selected_per_cycle: float
    quality_satisfied_fraction: float
    total_selected: int
    n_cycles: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "slot": self.slot,
            "policy": self.policy,
            "dataset": self.dataset,
            "requirement": self.requirement,
            "mean_selected_per_cycle": round(self.mean_selected_per_cycle, 2),
            "quality_satisfied_fraction": round(self.quality_satisfied_fraction, 3),
            "total_selected": self.total_selected,
            "n_cycles": self.n_cycles,
        }


@dataclass
class SessionEvaluationReport:
    """Structured result of :meth:`Session.evaluate`."""

    rows: List[EvaluationRow] = field(default_factory=list)
    #: Full per-slot campaign results, keyed by slot name.
    results: Dict[str, CampaignResult] = field(default_factory=dict)

    def row(self, slot: str) -> EvaluationRow:
        """Look up one slot's row; raises ``KeyError`` when absent."""
        for candidate in self.rows:
            if candidate.slot == slot:
                return candidate
        raise KeyError(f"no evaluation row for slot {slot!r}")

    def as_dicts(self) -> List[Dict[str, object]]:
        return [row.as_dict() for row in self.rows]


class ServeResult(NamedTuple):
    """Structured result of :meth:`Session.serve` and :meth:`Session.resume_serve`."""

    report: SessionEvaluationReport
    #: The decision server's :class:`~repro.serve.stats.ServerStats` telemetry.
    stats: "ServerStats"
    #: The :class:`~repro.serve.checkpoint.ServerCheckpoint` captured when
    #: ``serve(checkpoint_after=...)`` stopped early; ``None`` otherwise.
    checkpoint: Optional["ServerCheckpoint"] = None


# -- internal slot state --------------------------------------------------------


@dataclass
class _Slot:
    """Resolved runtime state of one :class:`~repro.api.specs.SlotSpec`."""

    spec: SlotSpec
    dataset_key: str
    dataset: SensingDataset
    train_set: SensingDataset
    test_set: SensingDataset
    requirement: QualityRequirement
    inference: InferenceAlgorithm
    assessor: QualityAssessor
    trains_agent: bool
    wants_training: bool
    agent: Optional[DRCellAgent] = None
    policy_override: Optional[CellSelectionPolicy] = None

    @property
    def name(self) -> str:
        return self.spec.name


def _accepted_parameters(factory: Callable[..., Any]) -> set:
    """Keyword-addressable parameter names of ``factory`` (class or function)."""
    signature = inspect.signature(factory)
    return {
        parameter.name
        for parameter in signature.parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }


#: Policy params the session consumes itself instead of passing to the factory.
_SESSION_POLICY_PARAMS = frozenset({"train"})


def unaccepted_parameters(registry: Registry, name: str, params: Mapping[str, Any]) -> List[str]:
    """The keys of ``params`` that :meth:`Session._build` would fail on.

    Checked against the factory's signature, as ``_build`` passes spec
    params through as keyword arguments; a factory that takes ``**kwargs``
    accepts every key.  Raises ``UnknownComponentError`` for an unknown
    ``name``.
    """
    factory = registry.get(name)
    parameters = inspect.signature(factory).parameters.values()
    if any(parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters):
        return []
    own = _SESSION_POLICY_PARAMS if registry is POLICIES else frozenset()
    return sorted(set(params) - _accepted_parameters(factory) - own)


class Session:
    """Assemble, train, evaluate and persist everything one scenario describes.

    Parameters
    ----------
    spec:
        The declarative scenario.  Components are instantiated eagerly so
        configuration errors (unknown registry keys, bad factory parameters)
        surface at construction, not mid-run.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._datasets: Dict[str, SensingDataset] = {}
        self._splits: Dict[str, Tuple[SensingDataset, SensingDataset]] = {}
        self._shared: Dict[Tuple[str, str], Any] = {}
        self.slots: List[_Slot] = [self._resolve_slot(slot) for slot in spec.slots]

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Session":
        """The canonical constructor: a session for ``spec``."""
        return cls(spec)

    # -- public API -------------------------------------------------------------

    def train(
        self, *, episodes: Optional[int] = None, obs: Optional["Observability"] = None
    ) -> SessionTrainingReport:
        """Train every slot whose policy wants training; returns a structured report.

        ``per_slot`` mode trains one agent per trainable slot on that slot's
        preliminary-study split; ``shared`` mode trains a single agent across
        every trainable slot's (dataset, requirement) pair in heterogeneous
        lockstep through the vectorized engine, then binds it to all of them.

        ``obs`` (optional, a :class:`repro.obs.Observability`) activates its
        profiler for the duration of training and mirrors every run's
        :class:`~repro.core.trainer.TrainingReport` into its metrics registry
        as ``repro_train_*`` (labelled by the run's slot names).  Purely
        observational — trained weights are bitwise identical with or
        without it.
        """
        if obs is not None:
            with obs.profiling():
                report = self._train(episodes=episodes)
            for run, training in report.reports.items():
                obs.observe_training(training, run=run)
            obs.finalize()
            return report
        return self._train(episodes=episodes)

    def _train(self, *, episodes: Optional[int] = None) -> SessionTrainingReport:
        trainable = [slot for slot in self.slots if slot.wants_training]
        report = SessionTrainingReport(mode=self.spec.training.mode)
        if episodes is None:
            episodes = self.spec.training.episodes
        if not trainable:
            return report

        if self.spec.training.mode == "shared":
            # One trainer (hence one inference) drives the whole fleet; slots
            # pinning different inference specs would silently train against
            # the wrong quality checks, so reject heterogeneous pins.
            effective = [
                slot.spec.inference if slot.spec.inference is not None else self.spec.inference
                for slot in trainable
            ]
            if any(component != effective[0] for component in effective[1:]):
                raise ValueError(
                    "shared training mode needs one inference spec across the "
                    "trainable slots; got "
                    + ", ".join(sorted({component.name for component in effective}))
                    + " — pin it at the scenario level or use per_slot mode"
                )
            trainer = self._trainer(trainable[0])
            agent, training = trainer.train_lockstep(
                [slot.train_set for slot in trainable],
                [slot.requirement for slot in trainable],
                episodes=episodes,
            )
            for slot in trainable:
                slot.agent = agent
            self._record_training(report, tuple(slot.name for slot in trainable), training)
        else:
            for slot in trainable:
                trainer = self._trainer(slot)
                agent, training = trainer.train(
                    slot.train_set, slot.requirement, episodes=episodes
                )
                slot.agent = agent
                self._record_training(report, (slot.name,), training)
        return report

    def evaluate(self, *, n_cycles: Optional[int] = None) -> SessionEvaluationReport:
        """Run every slot's testing-stage campaign; returns a structured report.

        Slots are grouped by dataset and each group runs as one lockstep
        :class:`~repro.mcs.campaign.BatchedCampaignRunner`, so their
        per-submission assessments pool into shared batched completions.
        """
        if n_cycles is None:
            n_cycles = self.spec.max_test_cycles
        config = self.campaign_config()
        report = SessionEvaluationReport()

        for members in self._dataset_groups():
            policies = [self._build_policy(slot) for slot in members]
            runner = BatchedCampaignRunner(
                [self._sensing_task(slot) for slot in members], config
            )
            outcomes = runner.run(policies, n_cycles=n_cycles)
            for slot, policy, outcome in zip(members, policies, outcomes):
                self._record_evaluation(report, slot.name, slot, outcome)
                logger.info(
                    "scenario %s slot %s (%s): %.2f cells/cycle",
                    self.spec.name,
                    slot.name,
                    policy.name,
                    outcome.mean_selected_per_cycle,
                )
        return report

    def run(
        self, *, episodes: Optional[int] = None, n_cycles: Optional[int] = None
    ) -> Tuple[SessionTrainingReport, SessionEvaluationReport]:
        """Convenience: :meth:`train` then :meth:`evaluate`."""
        training = self.train(episodes=episodes)
        evaluation = self.evaluate(n_cycles=n_cycles)
        return training, evaluation

    def serve(
        self,
        *,
        n_cycles: Optional[int] = None,
        replicas: int = 1,
        server: Optional["DecisionServer"] = None,
        max_batch: Optional[int] = None,
        max_wait_ticks: Optional[int] = None,
        cache_capacity: Optional[int] = None,
        max_inflight: Optional[int] = None,
        journal: Optional["RequestJournal"] = None,
        checkpoint_after: Optional[int] = None,
        obs: Optional["Observability"] = None,
    ) -> ServeResult:
        """Run every slot's campaign server-backed, through one decision server.

        Where :meth:`evaluate` runs one lockstep
        :class:`~repro.mcs.campaign.BatchedCampaignRunner` per dataset group,
        this drives one :class:`~repro.mcs.served.ServedCampaignRunner` per
        group — **concurrently, against a single shared**
        :class:`~repro.serve.server.DecisionServer` — so slots of different
        datasets fuse their Q-network forwards and (width-bucketed) ALS
        completions, and repeated assessments hit the completion cache.

        Parameters
        ----------
        n_cycles:
            Cap on evaluated cycles (defaults to the spec's
            ``max_test_cycles``).
        replicas:
            Drive each slot's campaign this many times; replicas beyond the
            first report as ``"<slot>@<k>"``.  Every replica gets fresh,
            identically seeded policies **and its own deep copy of the
            slot's agent (or policy override)**, so replicas never share
            exploration RNG streams or mutate each other's state.  Replica
            decisions start identical and stay so except where the pooled
            assessor's shared LOO-subsampling RNG draws differently per
            request — near-identical campaigns whose repeated windows are
            the completion cache's best case (the point of A/B fan-out).
        server:
            An existing server to share; a fresh one is built otherwise,
            with ``max_batch`` / ``max_wait_ticks`` / ``cache_capacity`` /
            ``max_inflight`` overriding the
            :class:`~repro.serve.server.ServeConfig` defaults
            (``max_inflight`` maps to ``max_inflight_per_campaign``).
        journal:
            A fresh :class:`~repro.serve.journal.RequestJournal` to record
            the session into: the scenario and resolved knobs go into the
            header, the server journals every request/flush/response/
            publish, and the final deterministic stats snapshot is appended
            — everything :func:`~repro.serve.journal.replay_journal` needs.
        checkpoint_after:
            Stop after this many cycles and capture a
            :class:`~repro.serve.checkpoint.ServerCheckpoint` instead of
            finishing; the campaigns' matrices stay sized for the full
            ``n_cycles`` budget.  Hand the checkpoint to
            :meth:`resume_serve` to finish the run bitwise-identically to
            an uninterrupted one.
        obs:
            A :class:`repro.obs.Observability` bundle.  Its tracer (if
            enabled) is subscribed to the server before any request is
            submitted, its profiler is active while the drive runs, its
            registry is refreshed from live server stats every
            ``obs.snapshot_every`` cycle barriers (the drive's quiescent
            points), and after the drive it ingests the final server stats
            plus every slot's ALS solver counters.  Purely observational:
            journals, checkpoints, and campaign results are bitwise
            identical with or without it.

        Returns
        -------
        ServeResult:
            ``(report, stats, checkpoint)``: the per-campaign
            :class:`SessionEvaluationReport`, the server's
            :class:`~repro.serve.stats.ServerStats` telemetry, and — only
            with ``checkpoint_after`` set, ``None`` otherwise — the captured
            :class:`~repro.serve.checkpoint.ServerCheckpoint`, in which case
            the report only covers the completed cycles.

        Notes
        -----
        A scenario whose slots all share one dataset (hence one runner)
        reproduces :meth:`evaluate` bitwise at ``replicas=1``.  With several
        dataset groups (or replicas), equivalent assessors pool *across*
        runners, which consumes the shared assessment RNG in a different
        order than sequential group-by-group evaluation — results are then
        statistically equivalent rather than bitwise identical.
        """
        from repro.serve import DecisionServer, ServeConfig

        check_positive_int(replicas, "replicas")
        if server is not None and any(
            knob is not None
            for knob in (max_batch, max_wait_ticks, cache_capacity, max_inflight)
        ):
            raise ValueError(
                "max_batch/max_wait_ticks/cache_capacity/max_inflight configure a "
                "newly built server and cannot rewire an explicitly passed one; "
                "configure the server's ServeConfig instead"
            )
        if server is None:
            defaults = ServeConfig()
            server = DecisionServer(
                ServeConfig(
                    max_batch=max_batch if max_batch is not None else defaults.max_batch,
                    max_wait_ticks=max_wait_ticks
                    if max_wait_ticks is not None
                    else defaults.max_wait_ticks,
                    cache_capacity=cache_capacity
                    if cache_capacity is not None
                    else defaults.cache_capacity,
                    max_inflight_per_campaign=max_inflight,
                )
            )
        if n_cycles is None:
            n_cycles = self.spec.max_test_cycles
        if checkpoint_after is not None:
            check_positive_int(checkpoint_after, "checkpoint_after")
        serve_knobs = self._serve_knobs(server, n_cycles=n_cycles, replicas=replicas)
        if journal is not None:
            server.subscribe(journal)
            journal.record_header(scenario=self.spec.to_dict(), serve=serve_knobs)
        if obs is not None and obs.tracer is not None:
            server.subscribe(obs.tracer)
        launches = self._serve_launches(
            server,
            self.campaign_config(),
            n_cycles=n_cycles,
            replicas=replicas,
            stop_cycle=checkpoint_after,
        )
        checkpoint_extra = None
        if checkpoint_after is not None:
            checkpoint_extra = {
                "scenario": self.spec.to_dict(),
                "serve": serve_knobs,
                "cycle": checkpoint_after,
            }
        return self._drive_served(
            server, launches, journal=journal, obs=obs, checkpoint=checkpoint_extra
        )

    @classmethod
    def resume_serve(
        cls,
        checkpoint: "ServerCheckpoint",
        *,
        journal: Optional["RequestJournal"] = None,
    ) -> ServeResult:
        """Finish a serving session from a :meth:`serve` ``checkpoint_after`` capture.

        The session is rebuilt from the checkpoint's scenario spec and
        re-trained (training is a pure function of the spec's seeds, so the
        rebuilt agents are bitwise identical to the recorded run's), a fresh
        server is restored from the checkpointed clock/batcher/cache/stats,
        every campaign is rebuilt and restored mid-flight from its slot
        state, and the remaining cycles are driven.  The final report and
        telemetry are bitwise identical to an uninterrupted run's; the
        result's ``checkpoint`` is ``None``.

        ``journal`` (optional) records the resumed tail — no header event,
        since the events continue a recorded session rather than start one.
        """
        payload = checkpoint.payload
        spec = ScenarioSpec.from_dict(payload["scenario"])
        session = cls(spec)
        session.train()
        return session._resume_serve(checkpoint, journal=journal)

    def _resume_serve(
        self,
        checkpoint: "ServerCheckpoint",
        *,
        journal: Optional["RequestJournal"] = None,
    ) -> ServeResult:
        from repro.serve import DecisionServer, ServeConfig

        payload = checkpoint.payload
        knobs = payload["serve"]
        server = DecisionServer(
            ServeConfig(
                max_batch=int(knobs["max_batch"]),
                max_wait_ticks=int(knobs["max_wait_ticks"]),
                cache_capacity=int(knobs["cache_capacity"]),
                max_inflight_per_campaign=knobs["max_inflight_per_campaign"],
            )
        )
        if journal is not None:
            server.subscribe(journal)
        launches = self._serve_launches(
            server,
            self.campaign_config(),
            n_cycles=int(knobs["n_cycles"]),
            replicas=int(knobs["replicas"]),
            start_cycle=int(payload["cycle"]),
            launch_states=payload["launches"],
        )
        # Restore the server after the policies are built (fresh learners
        # publish an initial version into their stores at construction; the
        # slot-state restore at each launch's first step overwrites that)
        # but before the drive consumes the clock.
        checkpoint.restore(server)
        return self._drive_served(server, launches, journal=journal)

    def _drive_served(
        self,
        server: "DecisionServer",
        launches: List[Tuple[List[Tuple[str, "_Slot"]], Any, Any]],
        *,
        journal: Optional["RequestJournal"] = None,
        obs: Optional["Observability"] = None,
        checkpoint: Optional[Dict[str, Any]] = None,
    ) -> ServeResult:
        """Drive the launches, then collect, record and finalize the session.

        ``checkpoint`` (the session-level checkpoint entries) requests a
        :class:`~repro.serve.checkpoint.ServerCheckpoint` capture at the
        drive's end, with every launch's slot states.
        """
        from repro.serve import drive

        drivers = [driver for _, _, driver in launches]
        if obs is not None:
            with obs.profiling():
                drive(
                    server,
                    drivers,
                    on_barrier=lambda: obs.on_cycle_barrier(server),
                )
        else:
            drive(server, drivers)

        captured = None
        if checkpoint is not None:
            from repro.serve.checkpoint import ServerCheckpoint

            captured = ServerCheckpoint.capture(
                server,
                **checkpoint,
                launches=[
                    {
                        "labels": [label for label, _ in labelled],
                        "slot_states": runner.slot_states(),
                    }
                    for labelled, runner, _ in launches
                ],
            )

        report = SessionEvaluationReport()
        for labelled, runner, _ in launches:
            for (label, slot), outcome in zip(labelled, runner.results):
                self._record_evaluation(report, label, slot, outcome)
        if journal is not None:
            journal.finalize(server.stats)
        if obs is not None:
            obs.observe_server(server.stats)
            self._observe_solvers(obs)
            obs.finalize()
        logger.info(
            "scenario %s served %d campaign(s): %s",
            self.spec.name,
            len(report.rows),
            server.stats.as_dict(),
        )
        return ServeResult(report, server.stats, captured)

    def _observe_solvers(self, obs: "Observability") -> None:
        """Mirror the slots' summed ALS solver counters into ``obs``.

        Slots may share inference instances (scenario-level components) or
        pin their own; each distinct instance's counters are added once, so
        the mirrored ``repro_als_*`` totals count its work exactly once.
        """
        totals: Dict[str, int] = {}
        seen: set = set()
        for slot in self.slots:
            inference = slot.inference
            stats = getattr(inference, "solver_stats", None)
            if stats is None or id(inference) in seen:
                continue
            seen.add(id(inference))
            for attr, value in stats.as_dict().items():
                totals[attr] = totals.get(attr, 0) + int(value)
        if totals:
            obs.observe_solver(SolverStats(**totals))

    def _serve_knobs(
        self, server: "DecisionServer", *, n_cycles: Optional[int], replicas: int
    ) -> Dict[str, Any]:
        """The resolved serving knobs, as recorded in journals and checkpoints."""
        return {
            "n_cycles": n_cycles,
            "replicas": int(replicas),
            "max_batch": server.config.max_batch,
            "max_wait_ticks": server.config.max_wait_ticks,
            "cache_capacity": server.config.cache_capacity,
            "max_inflight_per_campaign": server.config.max_inflight_per_campaign,
        }

    def _serve_launches(
        self,
        server: "DecisionServer",
        config: CampaignConfig,
        *,
        n_cycles: Optional[int],
        replicas: int,
        start_cycle: int = 0,
        stop_cycle: Optional[int] = None,
        launch_states: Optional[List[Dict[str, Any]]] = None,
    ) -> List[Tuple[List[Tuple[str, "_Slot"]], Any, Any]]:
        """Build the per-(replica, dataset-group) served launches.

        One :class:`~repro.mcs.served.ServedCampaignRunner` per replica per
        dataset group, every campaign tagged with its report label as the
        server-side tenant id.  ``launch_states`` (from a checkpoint's
        ``launches`` payload, in the same deterministic order) restores each
        fleet mid-flight.
        """
        from repro.mcs.served import ServedCampaignRunner

        launches: List[Tuple[List[Tuple[str, _Slot]], ServedCampaignRunner, Any]] = []
        index = 0
        for replica in range(replicas):
            for members in self._dataset_groups():
                labelled = [
                    (slot.name if replica == 0 else f"{slot.name}@{replica}", slot)
                    for slot in members
                ]
                runner = ServedCampaignRunner(
                    [self._sensing_task(slot) for slot in members], config, server=server
                )
                policies = [
                    self._build_policy(slot)
                    if replica == 0
                    else self._replica_policy(slot)
                    for slot in members
                ]
                slot_states = None
                if launch_states is not None:
                    slot_states = launch_states[index]["slot_states"]
                launches.append(
                    (
                        labelled,
                        runner,
                        runner.launch(
                            policies,
                            n_cycles=n_cycles,
                            tenants=[label for label, _ in labelled],
                            start_cycle=start_cycle,
                            stop_cycle=stop_cycle,
                            slot_states=slot_states,
                        ),
                    )
                )
                index += 1
        return launches

    def set_agent(self, slot_name: str, agent: DRCellAgent) -> None:
        """Bind an externally trained agent to a slot (the transfer-learning route).

        Slots whose policy spec sets ``"train": False`` are skipped by
        :meth:`train` and expect their agent from here.
        """
        slot = self._slot(slot_name)
        if not slot.trains_agent:
            raise ValueError(
                f"slot {slot_name!r} uses policy {slot.spec.policy.name!r}, "
                "which does not take a trained agent"
            )
        if agent.n_cells != slot.test_set.n_cells:
            raise ValueError(
                f"agent was built for {agent.n_cells} cells but slot {slot_name!r} "
                f"has {slot.test_set.n_cells}"
            )
        slot.agent = agent

    def set_policy(self, slot_name: str, policy: CellSelectionPolicy) -> None:
        """Bind a pre-built policy object to a slot, bypassing the registry.

        The escape hatch for policies the registry cannot express — e.g.
        custom experiment policies, or baselines that must consume a specific
        legacy random stream for seed-compatibility.  The slot's declarative
        policy spec is ignored at evaluation time.
        """
        slot = self._slot(slot_name)
        if not isinstance(policy, CellSelectionPolicy):
            raise TypeError(
                f"expected a CellSelectionPolicy, got {type(policy).__name__}"
            )
        slot.policy_override = policy

    def agent(self, slot_name: str) -> DRCellAgent:
        """The trained agent bound to ``slot_name`` (raises if not trained yet)."""
        slot = self._slot(slot_name)
        if slot.agent is None:
            raise ValueError(
                f"slot {slot_name!r} has no trained agent; call train() or set_agent() first"
            )
        return slot.agent

    # -- persistence ------------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> Path:
        """Persist the scenario spec and every trained agent's weights.

        Layout: ``<directory>/scenario.json`` plus one
        ``<directory>/agents/<slot>.npz`` per slot with a bound agent (in
        ``shared`` training mode the files hold identical weights), plus
        ``<directory>/agents/manifest.json`` recording which slots were bound
        to the *same* agent object, so :meth:`load` can restore the
        shared-training identity instead of splitting it into per-slot
        copies.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "scenario.json").write_text(self.spec.to_json(), encoding="utf-8")
        groups: Dict[int, List[str]] = {}
        for slot in self.slots:
            if slot.agent is not None:
                slot.agent.save(directory / "agents" / f"{slot.name}.npz")
                groups.setdefault(id(slot.agent), []).append(slot.name)
        manifest_path = directory / "agents" / "manifest.json"
        # Saving over an earlier save must not leave its manifest behind:
        # a stale manifest would bind this scenario's slots to the previous
        # scenario's agent grouping on load.
        manifest_path.unlink(missing_ok=True)
        if groups:
            manifest = {"agent_groups": list(groups.values())}
            manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return directory

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Session":
        """Rebuild a session from :meth:`save` output, restoring agent weights.

        ``agents/manifest.json`` (written by :meth:`save`) records which
        slots shared one agent object; each group gets exactly one rebuilt
        agent bound to all of its slots, so a ``mode="shared"`` scenario
        round-trips to a genuinely shared agent (continuing training updates
        every slot, as before the save).  Saves that predate the manifest
        fall back to one agent per slot with identical weights.
        """
        directory = Path(directory)
        spec_path = directory / "scenario.json"
        if not spec_path.exists():
            raise FileNotFoundError(f"no scenario.json under {directory}")
        session = cls(ScenarioSpec.from_json(spec_path.read_text(encoding="utf-8")))

        manifest_path = directory / "agents" / "manifest.json"
        shared_with: Dict[str, str] = {}
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            for group in manifest.get("agent_groups", []):
                for name in group:
                    shared_with[name] = group[0]

        restored: Dict[str, DRCellAgent] = {}
        for slot in session.slots:
            if not slot.trains_agent:
                continue
            leader = shared_with.get(slot.name, slot.name)
            weights = directory / "agents" / f"{leader}.npz"
            if not weights.exists():
                continue
            if leader not in restored:
                agent = DRCellAgent.build(slot.test_set.n_cells, session.drcell_config())
                agent.load(weights)
                restored[leader] = agent
            slot.agent = restored[leader]
        return session

    # -- spec-derived configuration --------------------------------------------

    def campaign_config(self) -> CampaignConfig:
        """The campaign loop configuration, resolved solely from the spec."""
        return CampaignConfig(
            min_cells_per_cycle=self.spec.min_cells_per_cycle,
            max_cells_per_cycle=self.spec.max_cells_per_cycle,
            assess_every=self.spec.assess_every,
            history_window=self.spec.history_window,
        )

    def drcell_config(self) -> DRCellConfig:
        """The DR-Cell training configuration, resolved solely from the spec."""
        params: Dict[str, Any] = dict(self.spec.training.drcell)
        dqn_params = dict(params.pop("dqn", {}) or {})
        params.setdefault("seed", self.spec.seed)
        params.setdefault("history_window", self.spec.history_window)
        return DRCellConfig(dqn=DQNConfig(**dqn_params), **params)

    # -- internals --------------------------------------------------------------

    def _slot(self, name: str) -> _Slot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(f"no slot named {name!r}; have {[s.name for s in self.slots]}")

    def _dataset_groups(self) -> List[List[_Slot]]:
        """Slots grouped by shared test dataset, preserving declaration order.

        Each group runs as one lockstep campaign fleet (batched or served),
        which is what lets same-dataset slots pool their assessments.
        """
        groups: Dict[int, List[_Slot]] = {}
        order: List[int] = []
        for slot in self.slots:
            key = id(slot.test_set)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(slot)
        return [groups[key] for key in order]

    @staticmethod
    def _sensing_task(slot: _Slot) -> SensingTask:
        return SensingTask(
            dataset=slot.test_set,
            requirement=slot.requirement,
            inference=slot.inference,
            assessor=slot.assessor,
        )

    @staticmethod
    def _record_evaluation(
        report: SessionEvaluationReport, label: str, slot: _Slot, outcome: CampaignResult
    ) -> None:
        report.results[label] = outcome
        report.rows.append(
            EvaluationRow(
                slot=label,
                policy=outcome.policy_name,
                dataset=slot.test_set.name,
                requirement=slot.requirement.describe(),
                mean_selected_per_cycle=outcome.mean_selected_per_cycle,
                quality_satisfied_fraction=outcome.quality_satisfied_fraction,
                total_selected=outcome.total_selected,
                n_cycles=outcome.n_cycles,
            )
        )

    def _resolve_slot(self, spec: SlotSpec) -> _Slot:
        dataset_key, dataset = self._dataset(spec)
        train_set, test_set = self._splits[dataset_key]
        policy_meta = POLICIES.metadata(spec.policy.name)
        trains_agent = bool(policy_meta.get("trains_agent", False))
        wants_training = trains_agent and bool(spec.policy.params.get("train", True))
        return _Slot(
            spec=spec,
            dataset_key=dataset_key,
            dataset=dataset,
            train_set=train_set,
            test_set=test_set,
            requirement=spec.requirement.build(),
            inference=self._inference(spec, dataset_key, test_set),
            assessor=self._assessor(spec, dataset_key, test_set),
            trains_agent=trains_agent,
            wants_training=wants_training,
        )

    def _dataset(self, spec: SlotSpec) -> Tuple[str, SensingDataset]:
        """Build (or reuse) the slot's dataset and its train/test split.

        Slots with an *equal* :class:`~repro.api.specs.DatasetSpec` share one
        dataset object, which is what lets their evaluation campaigns run in
        one lockstep group.
        """
        key = json.dumps(spec.dataset.to_dict(), sort_keys=True)
        if key not in self._datasets:
            dataset = self._build(
                DATASETS, spec.dataset.name, spec.dataset.params, {"seed": self.spec.seed}
            )
            if not isinstance(dataset, SensingDataset):
                raise TypeError(
                    f"dataset factory {spec.dataset.name!r} returned "
                    f"{type(dataset).__name__}, expected SensingDataset"
                )
            self._datasets[key] = dataset
            self._splits[key] = dataset.train_test_split(self.spec.training_days)
        return key, self._datasets[key]

    def _inference(
        self, spec: SlotSpec, dataset_key: str, test_set: SensingDataset
    ) -> InferenceAlgorithm:
        component = spec.inference if spec.inference is not None else self.spec.inference
        context = {
            "seed": self._derived_seed(INFERENCE, component.name),
            "coordinates": test_set.coordinates,
        }
        if spec.inference is not None:
            return self._build(INFERENCE, component.name, component.params, context)
        return self._shared_instance(
            INFERENCE, component.name, component.params, context, dataset_key
        )

    def _assessor(
        self, spec: SlotSpec, dataset_key: str, test_set: SensingDataset
    ) -> QualityAssessor:
        component = spec.assessor if spec.assessor is not None else self.spec.assessor
        context = {
            "history_window": self.spec.history_window,
            "ground_truth": test_set.data,
        }
        if spec.assessor is not None:
            return self._build(ASSESSORS, component.name, component.params, context)
        return self._shared_instance(
            ASSESSORS, component.name, component.params, context, dataset_key
        )

    def _shared_instance(
        self,
        registry: Registry,
        name: str,
        params: Mapping[str, Any],
        context: Mapping[str, Any],
        dataset_key: str,
    ) -> Any:
        """One scenario-level instance, shared across the slots that default to it.

        Factories that consume dataset context (``coordinates`` /
        ``ground_truth``) get one instance per distinct dataset; the rest get
        a single scenario-wide instance, so identity-level pooling in the
        lockstep runners behaves exactly like the hand-wired shared-task
        construction.
        """
        accepted = _accepted_parameters(registry.get(name))
        dataset_bound = bool(accepted & {"coordinates", "ground_truth"})
        key = (registry.kind, dataset_key if dataset_bound else "*")
        if key not in self._shared:
            self._shared[key] = self._build(registry, name, params, context)
        return self._shared[key]

    def _replica_policy(self, slot: _Slot) -> CellSelectionPolicy:
        """A policy for one serving replica of ``slot``, isolated from the original.

        Replicas run concurrently, so they must not share mutable state with
        the primary campaign: a bound agent (whose exploration RNG and — for
        online policies — network would otherwise be contended) and any
        ``set_policy`` override are deep-copied, snapshotting their current
        state so every replica starts identical.  The deep copy includes the
        agent's replay buffer — wasted for greedy evaluation but required
        for online learners, and replica counts are scale-clamped small.
        """
        if slot.policy_override is not None:
            return copy.deepcopy(slot.policy_override)
        agent = copy.deepcopy(slot.agent) if slot.agent is not None else None
        return self._build_policy(slot, agent=agent)

    def _build_policy(
        self, slot: _Slot, *, agent: Optional[DRCellAgent] = None
    ) -> CellSelectionPolicy:
        if slot.policy_override is not None:
            return slot.policy_override
        params = dict(slot.spec.policy.params)
        for key in _SESSION_POLICY_PARAMS:  # session-level switches
            params.pop(key, None)
        name = slot.spec.policy.name
        context: Dict[str, Any] = {
            "seed": self._derived_seed(POLICIES, name),
            "coordinates": slot.test_set.coordinates,
            "history_window": self.spec.history_window,
        }
        if slot.trains_agent:
            if agent is None:
                agent = slot.agent
            if agent is None:
                raise ValueError(
                    f"slot {slot.name!r} needs a trained agent before evaluation; "
                    "call train() or set_agent() first"
                )
            context["agent"] = agent
        policy = self._build(POLICIES, name, params, context)
        if not isinstance(policy, CellSelectionPolicy):
            raise TypeError(
                f"policy factory {name!r} returned {type(policy).__name__}, "
                "expected CellSelectionPolicy"
            )
        return policy

    def _trainer(self, slot: _Slot) -> DRCellTrainer:
        """A trainer with a *fresh* inference instance (training must not share
        the evaluation inference's random stream)."""
        component = (
            slot.spec.inference if slot.spec.inference is not None else self.spec.inference
        )
        inference = self._build(
            INFERENCE,
            component.name,
            component.params,
            {
                "seed": self._derived_seed(INFERENCE, component.name),
                "coordinates": slot.train_set.coordinates,
            },
        )
        return DRCellTrainer(self.drcell_config(), inference=inference)

    def _derived_seed(self, registry: Registry, name: str):
        stream = int(registry.metadata(name).get("seed_stream", DEFAULT_SEED_STREAM))
        return derive_rng(self.spec.seed, stream)

    def _build(
        self,
        registry: Registry,
        name: str,
        params: Mapping[str, Any],
        context: Mapping[str, Any],
    ) -> Any:
        """Instantiate a registered factory with spec params + accepted context.

        Context values are only handed to parameters the factory actually
        declares, and never override a parameter the spec pins explicitly.
        """
        factory = registry.get(name)
        kwargs = dict(params)
        accepted = _accepted_parameters(factory)
        for key, value in context.items():
            if key in accepted and key not in kwargs:
                kwargs[key] = value
        try:
            return factory(**kwargs)
        except TypeError as error:
            raise TypeError(
                f"building {registry.kind} {name!r} with params "
                f"{sorted(kwargs)} failed: {error}"
            ) from error

    def _record_training(
        self,
        report: SessionTrainingReport,
        slot_names: Tuple[str, ...],
        training: TrainingReport,
    ) -> None:
        report.reports[", ".join(slot_names)] = training
        report.rows.append(
            TrainingRow(
                slots=slot_names,
                episodes=training.episodes,
                total_steps=training.total_steps,
                wall_clock_seconds=training.wall_clock_seconds,
                mean_episode_reward=training.mean_episode_reward,
                final_episode_reward=training.final_episode_reward,
            )
        )


def run_scenario(
    spec: ScenarioSpec,
    *,
    episodes: Optional[int] = None,
    n_cycles: Optional[int] = None,
) -> Tuple[SessionTrainingReport, SessionEvaluationReport]:
    """One-call convenience: build a session, train, evaluate."""
    if episodes is not None:
        check_positive_int(episodes, "episodes")
    return Session.from_spec(spec).run(episodes=episodes, n_cycles=n_cycles)
