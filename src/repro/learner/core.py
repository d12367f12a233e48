"""The central learner: fused updates over the shared replay, versioned publication.

One :class:`Learner` serves any number of campaigns.  Batches of transitions
arrive (normally via the decision server's ``learn_batch`` endpoint), land in
the shared cross-campaign :class:`~repro.learner.replay.ReplayService`, and
trigger :meth:`~repro.rl.dqn.DQNAgent.learn_fused`-style minibatch updates
at the agent's ``learn_every`` cadence; updated weights are published to the
:class:`~repro.learner.weights.WeightStore` every ``steps_per_publish``
ingested transitions.

Two ingestion modes:

* **fused** (the default) — each batch is one strided ring insertion plus at
  most one fused minibatch update spanning the fresh transitions.  This is
  the scalable path: the NN update cost per campaign-cycle is one minibatch,
  not one per transition.
* **synchronous** (``LearnerConfig.synchronous``) — each transition is
  replayed through :meth:`~repro.rl.dqn.DQNAgent.observe_step` exactly as
  direct :class:`~repro.core.online.OnlineDRCellPolicy` execution would.
  With ``steps_per_publish=1`` and a single campaign whose actor shares the
  agent's RNG stream, the served run is bit-identical to the direct one —
  the determinism anchor the parity tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.drcell import DRCellAgent
from repro.learner.replay import ReplayService, TransitionBatch
from repro.learner.weights import WeightSnapshot, WeightStore
from repro.rl.replay import ArrayReplayBuffer
from repro.serve.batcher import TickClock
from repro.utils.seeding import RngLike
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of the central learner loop.

    Attributes
    ----------
    steps_per_publish:
        Ingested transitions between weight publications.  1 publishes after
        every transition (the synchronous-parity setting); larger values
        trade actor staleness for less snapshot copying.
    minibatch:
        Fused-update minibatch size; ``None`` uses the agent's own
        ``DQNConfig.batch_size``.
    replay_capacity:
        When set, the agent's replay ring is replaced with a shared buffer
        of this capacity at learner construction — the cross-campaign pool
        is usually sized much larger than a single-campaign buffer.  A
        warm-started agent's newest transitions carry over (up to the new
        capacity), and the replacement keeps the agent's own sampling
        generator, preserving the RNG stream discipline.
    synchronous:
        Replay each transition through ``observe_step`` (per-transition
        learning) instead of fused batch updates.  See the module docstring.
    """

    steps_per_publish: int = 1
    minibatch: Optional[int] = None
    replay_capacity: Optional[int] = None
    synchronous: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.steps_per_publish, "steps_per_publish")
        if self.minibatch is not None:
            check_positive_int(self.minibatch, "minibatch")
        if self.replay_capacity is not None:
            check_positive_int(self.replay_capacity, "replay_capacity")


class Learner:
    """The single learning endpoint behind any number of serving actors.

    Parameters
    ----------
    agent:
        The :class:`~repro.core.drcell.DRCellAgent` that owns the Q-networks
        and the replay ring.  The learner mutates it (that is its job); the
        serving actors never touch it, they only see published snapshots.
    config:
        Learner knobs; defaults to synchronous-grade publication cadence
        (publish every transition) in fused mode.
    store:
        The weight store to publish into; a fresh one by default.
    clock:
        Logical clock for publication timestamps when a fresh store is
        created; superseded by :meth:`use_clock` when a server adopts the
        learner.
    """

    def __init__(
        self,
        agent: DRCellAgent,
        *,
        config: Optional[LearnerConfig] = None,
        store: Optional[WeightStore] = None,
        clock: Optional[TickClock] = None,
    ) -> None:
        self.agent = agent
        self.config = config if config is not None else LearnerConfig()
        dqn = agent.agent
        if (
            self.config.replay_capacity is not None
            and self.config.replay_capacity != dqn.replay.capacity
        ):
            # A warm-started agent arrives with its training-stage replay;
            # carry the newest transitions into the shared pool (insertion
            # order preserved, oldest evicted first if the pool is smaller).
            shared = ArrayReplayBuffer(self.config.replay_capacity, seed=dqn._rng)
            carried = min(len(dqn.replay), self.config.replay_capacity)
            if carried:
                shared.add_batch(
                    *dqn.replay.gather(dqn.replay.recent_indices(carried))
                )
            dqn.replay = shared
        self.replay = ReplayService(dqn.replay)
        self.store = store if store is not None else WeightStore(clock)
        self._since_publish = 0
        # Version 1 is the agent's starting weights: actors must be able to
        # serve before the first learn step, exactly as the direct online
        # policy acts on its untrained network.
        self._publish()

    # -- clock wiring ------------------------------------------------------------

    def use_clock(self, clock: TickClock) -> None:
        """Stamp future publications with ``clock`` (the serving server's)."""
        self.store.use_clock(clock)

    # -- ingestion ---------------------------------------------------------------

    def check_batch(self, batch: TransitionBatch) -> None:
        """Raise ``ValueError`` unless :meth:`ingest` can take ``batch`` whole.

        ``batch`` must be a :class:`TransitionBatch` whose five arrays share
        one length, whose states and next states are finite and shaped
        ``(len, *state_shape)``, whose actions lie in ``[0, n_actions)``
        and whose rewards are finite.
        """
        if not isinstance(batch, TransitionBatch):
            raise ValueError(f"expected TransitionBatch, got {type(batch).__name__}")
        dqn = self.agent.agent
        n = np.shape(batch.actions)[:1]
        if not n:
            raise ValueError("actions must be a 1-D array")
        state = n + tuple(dqn.state_shape)
        expected = {
            "actions": n, "rewards": n, "dones": n, "states": state, "next_states": state
        }
        for name, shape in expected.items():
            if np.shape(getattr(batch, name)) != shape:
                raise ValueError(
                    f"{name} shape {np.shape(getattr(batch, name))} does not match {shape}"
                )
        for name in ("states", "next_states", "rewards"):
            if not np.isfinite(np.asarray(getattr(batch, name), dtype=float)).all():
                raise ValueError(f"{name} must be finite")
        actions = np.asarray(batch.actions)
        if not ((actions >= 0) & (actions < dqn.n_actions)).all():
            raise ValueError(f"actions must lie in [0, {dqn.n_actions})")

    def ingest(self, batches: Sequence[TransitionBatch]) -> List[Dict[str, object]]:
        """Ingest campaign batches in submission order; one receipt per batch.

        Each receipt records the campaign, the number of transitions taken,
        the TD loss of the update the batch triggered (``None`` when no
        learn step was due), and the weight version current after the batch.
        """
        receipts: List[Dict[str, object]] = []
        for batch in batches:
            if not isinstance(batch, TransitionBatch):
                raise TypeError(
                    f"expected TransitionBatch, got {type(batch).__name__}"
                )
            if self.config.synchronous:
                loss = self._ingest_synchronous(batch)
            else:
                loss = self._ingest_fused(batch)
            receipts.append(
                {
                    "campaign": batch.campaign,
                    "transitions": len(batch),
                    "loss": loss,
                    "version": self.store.version,
                    "total_steps": self.agent.agent.total_steps,
                }
            )
        return receipts

    def _ingest_synchronous(self, batch: TransitionBatch) -> Optional[float]:
        """Per-transition replay through ``observe_step`` — the parity mode."""
        dqn = self.agent.agent
        loss: Optional[float] = None
        for index in range(len(batch)):
            step_loss = dqn.observe_step(
                batch.states[index],
                int(batch.actions[index]),
                float(batch.rewards[index]),
                batch.next_states[index],
                bool(batch.dones[index]),
            )
            if step_loss is not None:
                loss = step_loss
            self._since_publish += 1
            if self._since_publish >= self.config.steps_per_publish:
                self._publish()
        self.replay.record(batch.campaign, transitions=len(batch))
        return loss

    def _ingest_fused(self, batch: TransitionBatch) -> Optional[float]:
        """One ring insertion plus at most one fused minibatch update."""
        dqn = self.agent.agent
        count = self.replay.add_batch(batch)
        dqn.total_steps += count
        dqn.global_steps += 1
        loss: Optional[float] = None
        if (
            len(dqn.replay) >= dqn.config.min_replay_size
            and dqn.global_steps % dqn.config.learn_every == 0
        ):
            loss = dqn.learn_fused(count, batch_size=self.config.minibatch)
        self._since_publish += count
        if self._since_publish >= self.config.steps_per_publish:
            self._publish()
        return loss

    def _publish(self) -> WeightSnapshot:
        dqn = self.agent.agent
        self._since_publish = 0
        return self.store.publish(
            dqn.online.get_weights(),
            total_steps=dqn.total_steps,
            learn_steps=dqn.learn_steps,
        )

    # -- actor construction ------------------------------------------------------

    def actor(self, *, rng: RngLike = None):
        """Build a :class:`~repro.learner.actor.ServingActor` over this learner.

        ``rng`` seeds the actor's private exploration stream (per-campaign
        RNG partitioning); ``None`` shares the learner agent's own generator
        object — required for bitwise parity with direct execution, but then
        only one actor may exist.
        """
        # Local import: repro.learner.actor imports this module for the
        # registry factory, so importing it at module scope would cycle.
        from repro.learner.actor import ServingActor

        network = self.agent.agent.online.clone(with_optimizer=False)
        actor_rng = self.agent.agent._rng if rng is None else rng
        return ServingActor(
            self.store, network, self.agent.agent.exploration, rng=actor_rng
        )

    def policy(
        self,
        *,
        rng: RngLike = None,
        campaign: str = "campaign-0",
        reward_model=None,
    ):
        """Build an :class:`~repro.learner.actor.ActorPolicy` over this learner."""
        from repro.learner.actor import ActorPolicy  # local import, see actor()

        return ActorPolicy(
            self.actor(rng=rng), self, campaign=campaign, reward_model=reward_model
        )

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Everything a mid-flight learner needs to resume bitwise.

        Covers the agent's networks (online *and* target, restored
        separately — :meth:`~repro.rl.dqn.DQNAgent.set_weights` would
        collapse both onto the online weights), the online optimizer's
        moments, the step counters, the agent's sampling/exploration RNG,
        the shared replay service, and the weight store.  The configuration
        itself is not serialized: a resumed session reconstructs the learner
        from the same :class:`LearnerConfig` before loading this state.
        """
        from repro.utils.statedict import encode_weights, rng_state

        dqn = self.agent.agent
        return {
            "since_publish": self._since_publish,
            "agent": {
                "online": encode_weights(dqn.online.get_weights()),
                "target": encode_weights(dqn.target.get_weights()),
                "optimizer": dqn.online.optimizer.state_dict(),
                "total_steps": dqn.total_steps,
                "learn_steps": dqn.learn_steps,
                "global_steps": dqn.global_steps,
                "rng": rng_state(dqn._rng),
            },
            "replay": self.replay.state_dict(),
            "store": self.store.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output onto this learner and its agent.

        Idempotent — restoring the same state twice (shared-agent scenarios
        capture one learner once per slot) leaves everything identical.
        """
        from repro.utils.statedict import decode_weights, set_rng_state

        dqn = self.agent.agent
        self._since_publish = int(state["since_publish"])  # type: ignore[arg-type]
        agent_state = state["agent"]
        dqn.online.set_weights(decode_weights(agent_state["online"]))  # type: ignore[index]
        dqn.target.set_weights(decode_weights(agent_state["target"]))  # type: ignore[index]
        dqn.online.optimizer.load_state_dict(agent_state["optimizer"])  # type: ignore[index]
        dqn.total_steps = int(agent_state["total_steps"])  # type: ignore[index]
        dqn.learn_steps = int(agent_state["learn_steps"])  # type: ignore[index]
        dqn.global_steps = int(agent_state["global_steps"])  # type: ignore[index]
        set_rng_state(dqn._rng, agent_state["rng"])  # type: ignore[index]
        self.replay.load_state_dict(state["replay"])  # type: ignore[arg-type]
        self.store.load_state_dict(state["store"])  # type: ignore[arg-type]

    # -- telemetry ---------------------------------------------------------------

    def telemetry(self) -> Dict[str, object]:
        """Combined weight-staleness + replay-ingestion + progress counters."""
        dqn = self.agent.agent
        return {
            "mode": "synchronous" if self.config.synchronous else "fused",
            "total_steps": dqn.total_steps,
            "learn_steps": dqn.learn_steps,
            "weights": self.store.telemetry(),
            "replay": self.replay.telemetry(),
        }

    def metrics(self, *, learner: Optional[str] = None) -> Dict[str, object]:
        """The canonical ``repro_learner_*`` metric view of :meth:`telemetry`.

        Exactly the samples :mod:`repro.obs` exports (optionally labelled
        with the server-side learner id); :meth:`telemetry` remains the
        backwards-compatible nested shape.
        """
        from repro.obs.adapters import flat_samples, ingest_learner

        return flat_samples(ingest_learner, self.telemetry(), learner=learner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Learner(version={self.store.version}, "
            f"total_steps={self.agent.agent.total_steps}, "
            f"mode={'sync' if self.config.synchronous else 'fused'})"
        )
