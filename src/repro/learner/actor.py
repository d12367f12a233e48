"""Serving actors: stateless selection against published weight snapshots.

The actor side of the split.  A :class:`ServingActor` owns a *private* copy
of the Q-network and an exploration stream, pulls the latest
:class:`~repro.learner.weights.WeightSnapshot` from the shared store before
answering queries, and selects δ-greedily with **zero learning side
effects** — which is exactly what makes an online policy servable:
:class:`~repro.serve.server.DecisionServer` can batch actor queries like any
other ``select_cell`` request because answering them mutates nothing shared.

:class:`ActorPolicy` adapts an actor + learner pair to the
:class:`~repro.mcs.policies.CellSelectionPolicy` interface: selections route
through the actor (or, under a :class:`~repro.mcs.served.
ServedCampaignRunner`, through the server), the cycle trajectory is recorded
locally, and at ``end_cycle`` the finished cycle becomes one
:class:`~repro.learner.replay.TransitionBatch` for the learner — submitted
to the server's ``learn_batch`` endpoint when served, ingested directly
otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.registry import POLICIES
from repro.core.drcell import DRCellAgent
from repro.core.online import build_cycle_transitions
from repro.learner.core import Learner, LearnerConfig
from repro.learner.replay import TransitionBatch
from repro.learner.weights import WeightSnapshot, WeightStore
from repro.mcs.environment import RewardModel
from repro.mcs.policies import CellSelectionPolicy
from repro.rl.dqn import Acting, select_group
from repro.rl.schedules import Schedule
from repro.utils.seeding import RngLike, as_rng


class ServingActor:
    """A stateless-serving view of the learner's policy.

    Parameters
    ----------
    store:
        The :class:`~repro.learner.weights.WeightStore` to pull snapshots
        from; must hold at least one published snapshot (the learner
        publishes its starting weights at construction).
    network:
        A private Q-network the snapshots are loaded into — typically
        ``learner.agent.agent.online.clone(with_optimizer=False)``; the
        actor never trains it, so optimizer state is dead weight.
    exploration:
        The δ schedule, evaluated at the *snapshot's* ``total_steps`` — the
        learner's transition clock at publication, which under synchronous
        publication equals the direct agent's clock at selection time.
    rng:
        The actor's exploration stream.  Pass a per-campaign child generator
        for RNG partitioning; pass the learner agent's own generator object
        for bitwise parity with direct execution (single actor only).
    """

    def __init__(
        self,
        store: WeightStore,
        network,
        exploration: Schedule,
        *,
        rng: RngLike = None,
    ) -> None:
        self.store = store
        self.network = network
        self.exploration = exploration
        self._rng = as_rng(0 if rng is None else rng)
        self._version = 0
        self._snapshot: Optional[WeightSnapshot] = None
        self.pull()

    @property
    def n_actions(self) -> int:
        return self.network.n_actions

    @property
    def state_shape(self) -> tuple:
        return self.network.state_shape

    @property
    def version(self) -> int:
        """The snapshot version the actor currently serves from."""
        return self._version

    @property
    def snapshot(self) -> WeightSnapshot:
        """The snapshot the actor currently serves from."""
        assert self._snapshot is not None  # pull() ran in __init__
        return self._snapshot

    # -- weight refresh ----------------------------------------------------------

    def pull(self) -> WeightSnapshot:
        """Refresh to the latest published snapshot (no-op when current).

        Every pull is recorded in the store's staleness telemetry; weights
        are only copied into the network when the version actually moved.
        """
        snapshot = self.store.record_pull(self._version)
        if snapshot.version != self._version:
            self.network.set_weights(snapshot.weights)
            self._version = snapshot.version
        self._snapshot = snapshot
        return snapshot

    # -- selection ---------------------------------------------------------------

    def select_actions(
        self,
        states: Sequence[np.ndarray],
        *,
        masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        greedy: Union[bool, Sequence[bool]] = False,
    ) -> List[int]:
        """δ-greedy selection over the latest snapshot; one stacked forward.

        One group of :func:`~repro.rl.dqn.select_groups`, the helper behind
        :meth:`~repro.rl.dqn.DQNAgent.select_actions` too: pulls (see
        :meth:`acting`), then one ``predict`` over the stacked states and
        δ-greedy draws on the actor's own RNG stream.  A decision server
        answers every actor holding one snapshot with one forward on a
        leading group axis, whose per-actor Q-values equal this call's byte
        for byte; rows folded into one 2-D batch would not.
        """
        return select_group(self, states, masks, greedy)

    def acting(self) -> Acting:
        """Pull, then the actor's share of a select flush.

        The pulled snapshot names the weight set (actors holding one
        snapshot share a grouped forward), and δ is the exploration
        schedule at the snapshot's ``total_steps``.  Pulling here, before
        every forward, means a flushed batch always runs against the
        freshest published weights.
        """
        snapshot = self.pull()
        return Acting(
            snapshot, self.network, self._rng, self.exploration(snapshot.total_steps)
        )

    def select_action(
        self,
        state: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> int:
        """Single-state convenience over :meth:`select_actions`."""
        return self.select_actions([state], masks=[mask], greedy=greedy)[0]

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> dict:
        """The actor's private state: held version plus exploration stream."""
        from repro.utils.statedict import rng_state

        return {"version": self._version, "rng": rng_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output *without* recording a pull.

        Must run after the shared :class:`~repro.learner.weights.WeightStore`
        has been restored: the network is reloaded from the store's latest
        snapshot (when the held version matches the store this is the exact
        network the actor served from; when the actor was behind, the next
        ``pull()`` — which precedes every prediction — overwrites the
        weights anyway), and the staleness telemetry is left to the restored
        store counters.
        """
        from repro.utils.statedict import set_rng_state

        set_rng_state(self._rng, state["rng"])
        self._version = int(state["version"])
        snapshot = self.store.latest
        self.network.set_weights(snapshot.weights)
        self._snapshot = snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServingActor(version={self._version})"


class ActorPolicy(CellSelectionPolicy):
    """Campaign policy whose selection serves and whose learning streams.

    The servable replacement for :class:`~repro.core.online.
    OnlineDRCellPolicy`: selections go through a :class:`ServingActor`
    (side-effect free, so the server may batch them), the cycle trajectory
    is recorded policy-side, and ``end_cycle`` emits the cycle's transitions
    as one tagged :class:`~repro.learner.replay.TransitionBatch`.

    Standalone (no server) the policy ingests batches into its learner
    directly at ``end_cycle``.  Under a served runner —
    :meth:`bind_server` is called at launch — the batch is parked and the
    runner submits it to the ``learn_batch`` endpoint, resolving it before
    the next cycle's selections.
    """

    name = "DR-Cell (served online)"

    def __init__(
        self,
        actor: ServingActor,
        learner: Learner,
        *,
        campaign: str = "campaign-0",
        reward_model: Optional[RewardModel] = None,
    ) -> None:
        self.actor = actor
        self.learner = learner
        self.campaign = str(campaign)
        self.agent: DRCellAgent = learner.agent
        self.reward_model = reward_model or RewardModel(bonus=float(self.agent.n_cells))
        self._cycle_states: List[np.ndarray] = []
        self._cycle_actions: List[int] = []
        self._deferred = False
        self._pending_batch: Optional[TransitionBatch] = None
        self._cycles_seen = 0

    # -- server wiring -----------------------------------------------------------

    def bind_server(self, server) -> None:
        """Defer learning to the server's ``learn_batch`` endpoint.

        Called by :class:`~repro.mcs.served.ServedCampaignRunner` at launch;
        also adopts the server's logical clock for publication timestamps so
        staleness telemetry is measured in server ticks.
        """
        self._deferred = True
        self.learner.use_clock(server.clock)

    def take_transition_batch(self) -> Optional[TransitionBatch]:
        """Detach the batch the last ``end_cycle`` parked (None when empty)."""
        batch, self._pending_batch = self._pending_batch, None
        return batch

    # -- CellSelectionPolicy interface -------------------------------------------

    def begin_cycle(self, cycle: int, observed_matrix: np.ndarray) -> None:
        if self._pending_batch is not None:
            # A parked batch the runner never submitted (e.g. the drive was
            # abandoned mid-flight) must not be dropped silently.
            self.learner.ingest([self._pending_batch])
            self._pending_batch = None
        self._cycle_states = []
        self._cycle_actions = []
        self.actor.pull()

    def prepare_query(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        sensed_mask: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode a selection query and record its state in the trajectory.

        The served runner calls this instead of :meth:`select_cell`, submits
        the (state, mask) pair to the server, and reports the resolved
        action back through :meth:`observe_selection` — keeping states and
        actions aligned in submission order.
        """
        sensed_mask = np.asarray(sensed_mask, dtype=bool)
        state = self.agent.state_model.from_observations(
            observed_matrix, cycle, sensed_mask
        )
        mask = self.agent.action_space.mask_from_sensed(sensed_mask)
        self._cycle_states.append(state)
        return state, mask

    def observe_selection(self, action: int) -> None:
        """Record the server-resolved action for the last prepared query."""
        self._cycle_actions.append(int(action))

    def select_cell(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        sensed_mask: np.ndarray,
    ) -> int:
        state, mask = self.prepare_query(observed_matrix, cycle, sensed_mask)
        action = self.actor.select_actions([state], masks=[mask], greedy=False)[0]
        self.observe_selection(action)
        return int(action)

    def end_cycle(self, cycle: int, observed_matrix: np.ndarray) -> None:
        self._cycles_seen += 1
        # Consume the trajectory here (not at the next begin_cycle) so the
        # policy is checkpointable at every cycle boundary, including after
        # the final cycle of a stopped run.
        states, actions = self._cycle_states, self._cycle_actions
        self._cycle_states = []
        self._cycle_actions = []
        if not actions:
            return
        transitions = build_cycle_transitions(
            self.agent,
            self.reward_model,
            states,
            actions,
            cycle,
            observed_matrix,
        )
        batch = TransitionBatch.from_transitions(self.campaign, transitions)
        if self._deferred:
            self._pending_batch = batch
        else:
            self.learner.ingest([batch])

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable policy state; requires cycle-boundary quiescence.

        Refuses to serialize mid-cycle (recorded states/actions pending) or
        with a parked transition batch the runner has not submitted yet —
        checkpoints are taken between campaign cycles, where both are empty.
        """
        if self._cycle_states or self._cycle_actions:
            raise RuntimeError("cannot checkpoint an ActorPolicy mid-cycle")
        if self._pending_batch is not None:
            raise RuntimeError(
                "cannot checkpoint an ActorPolicy with an unsubmitted "
                "transition batch parked"
            )
        return {
            "cycles_seen": self._cycles_seen,
            "learner": self.learner.state_dict(),
            "actor": self.actor.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (learner first, then actor).

        The learner restore brings the shared weight store back, which the
        actor restore then reads its snapshot from.  Idempotent, so slots
        sharing one learner may each carry — and re-apply — identical copies
        of its state.
        """
        self._cycles_seen = int(state["cycles_seen"])
        self.learner.load_state_dict(state["learner"])
        self.actor.load_state_dict(state["actor"])
        self._cycle_states = []
        self._cycle_actions = []
        self._pending_batch = None

    # -- introspection -----------------------------------------------------------

    @property
    def cycles_seen(self) -> int:
        """Number of campaign cycles the policy has experienced."""
        return self._cycles_seen

    @property
    def transitions_observed(self) -> int:
        """Total transitions the shared learner has ingested (all campaigns)."""
        return self.agent.agent.total_steps


@POLICIES.register("served_online", trains_agent=True, seed_stream=23)
def build_served_online_policy(
    agent: DRCellAgent,
    *,
    seed: RngLike = None,
    steps_per_publish: int = 1,
    replay_capacity: Optional[int] = None,
    minibatch: Optional[int] = None,
    synchronous: bool = False,
    campaign: str = "campaign-0",
    share_agent_rng: bool = False,
) -> ActorPolicy:
    """Build a served online DR-Cell policy (registry key ``"served_online"``).

    A scenario slot with ``{"policy": {"name": "served_online"}}`` gets an
    online-learning policy whose selections are servable: the session
    injects the slot's agent (``trains_agent``) and a derived seed for the
    actor's private exploration stream, so co-scheduled campaigns stay
    bitwise independent of each other.

    Parameters
    ----------
    agent:
        The learner's agent (session-injected for registry builds).
    seed:
        Seed/generator for the actor's partitioned exploration stream.
    steps_per_publish, replay_capacity, minibatch, synchronous:
        :class:`~repro.learner.core.LearnerConfig` knobs.
    campaign:
        Campaign tag for per-campaign replay accounting.
    share_agent_rng:
        Share the learner agent's generator object with the actor instead
        of partitioning — required for bitwise parity with direct
        :class:`~repro.core.online.OnlineDRCellPolicy` execution; only
        valid with a single campaign.
    """
    learner = Learner(
        agent,
        config=LearnerConfig(
            steps_per_publish=steps_per_publish,
            minibatch=minibatch,
            replay_capacity=replay_capacity,
            synchronous=synchronous,
        ),
    )
    rng: RngLike = None if share_agent_rng else as_rng(0 if seed is None else seed)
    return learner.policy(rng=rng, campaign=campaign)
