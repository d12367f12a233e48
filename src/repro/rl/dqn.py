"""Deep Q-learning with experience replay and fixed Q-targets (paper §4.3, Algorithm 2).

:class:`DQNAgent` is architecture-agnostic: it accepts any
:class:`~repro.nn.network.QNetworkBase`, so the same loop drives both the
feed-forward DQN ablation and the paper's recurrent DRQN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.network import QNetworkBase
from repro.rl.environment import Environment, Transition
from repro.rl.replay import ArrayReplayBuffer
from repro.rl.schedules import LinearDecaySchedule, Schedule
from repro.rl.vector_env import VectorEnv
from repro.utils.logging import get_logger
from repro.utils.seeding import RngLike, as_rng
from repro.utils.validation import check_positive_int, check_probability

logger = get_logger(__name__)


@dataclass
class DQNConfig:
    """Hyper-parameters of the deep Q-learning loop.

    Attributes
    ----------
    discount:
        γ used in the TD target.
    batch_size:
        Minibatch size sampled from the replay buffer per learning step.
    replay_capacity:
        Capacity of the replay buffer.
    min_replay_size:
        Number of transitions that must be collected before learning starts.
    target_update_interval:
        Number of learning steps between copies of the online network into
        the fixed-target network (the paper's ``REPLACE_ITER``).
    learn_every:
        Environment steps between gradient updates (global steps between
        updates when ``fused_learning`` is on).
    fused_learning:
        When True, :meth:`DQNAgent.train_episodes_vectorized` learns at
        global-step granularity: after each lockstep step across the K
        environments, exactly one minibatch — the K fresh transitions plus
        random replay fill — is gathered from the ring in one strided read
        and trained with a single ``train_on_batch`` call, instead of K
        per-transition updates in environment order.  Target-network syncs
        and the ``learn_every`` cadence then count global steps.  The
        default False preserves the per-transition protocol (bit-exact at
        K=1 with the sequential loop).
    """

    discount: float = 0.95
    batch_size: int = 32
    replay_capacity: int = 10_000
    min_replay_size: int = 200
    target_update_interval: int = 100
    learn_every: int = 1
    fused_learning: bool = False

    def __post_init__(self) -> None:
        self.discount = check_probability(self.discount, "discount")
        for name in (
            "batch_size",
            "replay_capacity",
            "min_replay_size",
            "target_update_interval",
            "learn_every",
        ):
            setattr(self, name, check_positive_int(getattr(self, name), name))
        self.fused_learning = bool(self.fused_learning)
        if self.min_replay_size < self.batch_size:
            raise ValueError(
                "min_replay_size must be at least batch_size "
                f"({self.min_replay_size} < {self.batch_size})"
            )
        if self.replay_capacity < self.min_replay_size:
            raise ValueError(
                "replay_capacity must be at least min_replay_size "
                f"({self.replay_capacity} < {self.min_replay_size})"
            )


@dataclass
class EpisodeStats:
    """Summary statistics for one training episode."""

    episode: int
    total_reward: float
    steps: int
    mean_loss: float
    final_delta: float
    extra: Dict[str, float] = field(default_factory=dict)


def stack_queries(
    states: Sequence[np.ndarray],
    masks: Optional[Sequence[Optional[np.ndarray]]],
    greedy: Union[bool, Sequence[bool]],
    n_actions: int,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], List[bool]]:
    """Normalise the arguments of a ``select_actions`` call.

    Returns the stacked states, the stacked ``(n, n_actions)`` boolean masks
    (``None`` masks allow every action) and one greedy flag per state; both
    stacks are ``None`` when there are no states.
    """
    states = list(states)
    n = len(states)
    if masks is None:
        masks = [None] * n
    if len(masks) != n:
        raise ValueError(f"{n} states but {len(masks)} masks")
    if isinstance(greedy, (bool, np.bool_)):
        greedy_flags = [bool(greedy)] * n
    else:
        greedy_flags = [bool(flag) for flag in greedy]
        if len(greedy_flags) != n:
            raise ValueError(f"{n} states but {len(greedy_flags)} greedy flags")
    if n == 0:
        return None, None, []
    stacked = np.ones((n, n_actions), dtype=bool)
    for row, mask in enumerate(masks):
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n_actions,):
                raise ValueError(
                    f"mask shape {mask.shape} does not match n_actions {n_actions}"
                )
            stacked[row] = mask
    return np.stack([np.asarray(state) for state in states]), stacked, greedy_flags


def delta_greedy(
    q: np.ndarray,
    masks: np.ndarray,
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    deltas: Optional[Sequence[float]] = None,
) -> List[int]:
    """δ-greedy selection over a ``(n, n_actions)`` batch of Q-values.

    Row by row, ``rng.random() < deltas[row]`` explores with ``rng.choice``
    over the row's valid actions; otherwise the row takes its masked argmax,
    breaking ties with ``rng.choice`` over the tied best actions.  The
    masked maximum, the tie matrix and its argmax are computed once for the
    whole batch, and a choice over a single candidate is skipped because it
    draws nothing, so the RNG stream is consumed exactly as per-row
    selection in row order would consume it.  ``deltas=None`` skips the
    explore draw: every row exploits (for callers that resolved exploration
    beforehand).

    ``rng`` is one generator for every row or a sequence of one generator
    per row.  Rows still draw in row order, so one call over several
    groups' rows, each row on its group's generator, consumes every
    generator exactly as one call per group in group order would, also
    when groups share a generator.

    Raises ``ValueError`` before any draw when a mask allows no action.  A
    row whose masked Q-values hold a NaN maximum has no tied best action,
    so its ``rng.choice`` raises ``ValueError`` as the per-row form does.
    """
    masks = np.asarray(masks, dtype=bool)
    if not masks.any(axis=1).all():
        raise ValueError("no valid actions available")
    masked = np.where(masks, q, -np.inf)
    ties = masked == masked.max(axis=1, keepdims=True)
    actions = ties.argmax(axis=1).tolist()
    n_tied = ties.sum(axis=1).tolist()
    rngs = [rng] * len(actions) if isinstance(rng, np.random.Generator) else list(rng)
    if len(rngs) != len(actions):
        raise ValueError(f"{len(actions)} rows but {len(rngs)} generators")
    for row, draw in enumerate(rngs):
        if deltas is not None and draw.random() < deltas[row]:
            actions[row] = int(draw.choice(np.flatnonzero(masks[row])))
        elif n_tied[row] != 1:
            actions[row] = int(draw.choice(np.flatnonzero(ties[row])))
    return actions


class Acting(NamedTuple):
    """What one selector brings to a select flush (see :func:`select_groups`).

    ``weights`` identifies the weight set: selectors whose ``weights`` is
    one object, whose networks share a class and whose groups share a size
    share one grouped forward, run on the first one's ``network``.
    """

    weights: Any
    network: QNetworkBase
    rng: np.random.Generator
    delta: float


def select_groups(queries: Sequence[Tuple[Any, Sequence, Any, Any]]) -> List[Any]:
    """δ-greedy selection for several selectors, one forward per weight set.

    ``queries`` holds one ``(selector, states, masks, greedy)`` group per
    selector: a :class:`DQNAgent`, a :class:`~repro.learner.actor.
    ServingActor` or anything with ``n_actions`` and an ``acting()``
    returning :class:`Acting`.  Returns, per group, its list of actions or
    the exception that failed it.

    1. Each selector's ``acting()`` runs in group order (a serving actor
       pulls the latest snapshot there) and its group is stacked.
    2. Groups whose ``Acting`` names one weight set and network class and
       that have one size form a bucket.  A bucket of several groups runs
       one ``predict`` over ``(groups, size, window, n_cells)`` states;
       group ``g`` of it equals ``predict(states[g])`` byte for byte (see
       :meth:`~repro.nn.network.QNetworkBase.predict`).  A one-group bucket
       runs that call itself.  If a grouped forward raises, its groups run
       one by one, so only a group whose own forward raises fails.
    3. The draws run in group order, each row on its group's generator and
       δ, through one :func:`delta_greedy` call over every group's rows
       (group by group when a draw could raise: a NaN Q-value or a mask
       that allows no action).  Generators shared across groups are
       consumed in the order one call per group would consume them.
    """
    outcomes: List[Any] = [None] * len(queries)
    ready: Dict[int, _Group] = {}
    buckets: Dict[tuple, List[int]] = {}
    for index, (selector, states, masks, greedy) in enumerate(queries):
        try:
            acting = selector.acting()
            batch, stacked, flags = stack_queries(states, masks, greedy, selector.n_actions)
        except Exception as error:  # fails this group alone
            outcomes[index] = error
            continue
        if not flags:
            outcomes[index] = []
            continue
        deltas = [0.0 if flag else acting.delta for flag in flags]
        ready[index] = _Group(acting, batch, stacked, deltas)
        key = (id(acting.weights), type(acting.network), len(flags))
        buckets.setdefault(key, []).append(index)

    q_values: Dict[int, np.ndarray] = {}
    for members in buckets.values():
        if len(members) > 1:
            network = ready[members[0]].acting.network
            try:
                grouped = network.predict(np.stack([ready[index].states for index in members]))
            except Exception:  # retried group by group below
                pass
            else:
                q_values.update(zip(members, grouped))
                continue
        for index in members:
            group = ready[index]
            try:
                q_values[index] = group.acting.network.predict(group.states)
            except Exception as error:  # fails this group alone
                outcomes[index] = error

    order = sorted(q_values)
    _draw([ready[index] for index in order], [q_values[index] for index in order], order, outcomes)
    return outcomes


class _Group(NamedTuple):
    """One selector's stacked queries in :func:`select_groups`."""

    acting: Acting
    states: np.ndarray
    masks: np.ndarray
    deltas: List[float]


def _draw(
    groups: List[_Group], q_values: List[np.ndarray], indices: List[int], outcomes: List[Any]
) -> None:
    """Draw ``groups``' actions in order, each row on its group's generator.

    When no draw can raise (every mask allows an action, no Q-value is NaN)
    all rows go through one :func:`delta_greedy` call; otherwise the groups
    draw one by one, which consumes every generator identically, so a group
    whose draws raise fails alone.
    """
    if len(groups) > 1:
        masks = np.concatenate([group.masks for group in groups])
        q = np.concatenate(q_values)
        if masks.any(axis=1).all() and not np.isnan(q).any():
            actions = delta_greedy(
                q,
                masks,
                [group.acting.rng for group in groups for _ in group.deltas],
                [delta for group in groups for delta in group.deltas],
            )
            start = 0
            for index, group in zip(indices, groups):
                outcomes[index] = actions[start : start + len(group.deltas)]
                start += len(group.deltas)
            return
    for index, group, q in zip(indices, groups, q_values):
        try:
            outcomes[index] = delta_greedy(q, group.masks, group.acting.rng, group.deltas)
        except Exception as error:  # fails this group alone
            outcomes[index] = error


def select_group(
    selector: Any,
    states: Sequence[np.ndarray],
    masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    greedy: Union[bool, Sequence[bool]] = False,
) -> List[int]:
    """:func:`select_groups` for one selector; raises what fails its group."""
    (outcome,) = select_groups([(selector, states, masks, greedy)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class DQNAgent:
    """Deep Q-learning agent with experience replay and fixed Q-targets.

    Parameters
    ----------
    network:
        The online Q-network; a deep copy of it becomes the target network.
    config:
        Loop hyper-parameters.
    exploration:
        δ schedule; defaults to a linear decay from 1.0 to 0.05.
    seed:
        Seed for exploration randomness and replay sampling.
    """

    def __init__(
        self,
        network: QNetworkBase,
        config: Optional[DQNConfig] = None,
        *,
        exploration: Optional[Schedule] = None,
        seed: RngLike = None,
    ) -> None:
        self.online = network
        self.target = network.clone()
        self.config = config or DQNConfig()
        self.exploration = exploration or LinearDecaySchedule(1.0, 0.05, 5_000)
        self._rng = as_rng(seed)
        self.replay = ArrayReplayBuffer(self.config.replay_capacity, seed=self._rng)
        self.total_steps = 0
        self.learn_steps = 0
        self.global_steps = 0

    @property
    def n_actions(self) -> int:
        return self.online.n_actions

    @property
    def state_shape(self) -> tuple:
        return self.online.state_shape

    # -- acting ------------------------------------------------------------

    def select_action(
        self,
        state: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> int:
        """δ-greedy action selection restricted to valid actions."""
        return self.select_actions([state], masks=[mask], greedy=greedy)[0]

    def select_actions(
        self,
        states: Sequence[np.ndarray],
        *,
        masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        greedy: Union[bool, Sequence[bool]] = False,
    ) -> List[int]:
        """δ-greedy selection for several states with one stacked forward pass.

        One group of :func:`select_groups`: one ``predict`` over the
        stacked states and one :func:`delta_greedy` over the Q batch.  The
        exploration RNG is consumed in exactly the order sequential
        :meth:`select_action` calls would consume it, because the forward
        draws no randomness.  The stacked states are rows of one 2-D batch,
        and a row of a batch can differ from a single-state forward in the
        last bit (a matrix-matrix against a matrix-vector product), which
        only matters when two Q-values tie to within that noise.  A decision
        server answering several agents' groups runs them on a leading group
        axis instead, where each group's Q-values equal this call's byte for
        byte.
        """
        return select_group(self, states, masks, greedy)

    def acting(self) -> Acting:
        """This agent's share of a select flush: its online network, stream and δ."""
        return Acting(self.online, self.online, self._rng, self.exploration(self.total_steps))

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Online-network Q-values for a single state."""
        return self.online.q_values(state)

    # -- learning ----------------------------------------------------------

    def observe(self, transition: Transition) -> Optional[float]:
        """Record a transition; learn when due.  Returns the loss if a step ran."""
        if not isinstance(transition, Transition):
            raise TypeError(f"expected Transition, got {type(transition).__name__}")
        return self.observe_step(
            transition.state,
            transition.action,
            transition.reward,
            transition.next_state,
            transition.done,
            info=transition.info,
        )

    def observe_step(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        *,
        info: Optional[Dict] = None,
    ) -> Optional[float]:
        """Record one step without a :class:`Transition` object; learn when due.

        This is the hot-path twin of :meth:`observe`: the arrays go straight
        into the array-backed replay ring.
        """
        self.replay.add_step(state, action, reward, next_state, done, info=info)
        self.total_steps += 1
        if len(self.replay) < self.config.min_replay_size:
            return None
        if self.total_steps % self.config.learn_every != 0:
            return None
        return self.learn()

    def learn(self) -> float:
        """Run one minibatch gradient update and return the loss."""
        states, actions, rewards, next_states, dones = self.replay.sample_arrays(
            self.config.batch_size
        )
        loss = self.online.train_on_batch(
            states,
            actions,
            rewards,
            next_states,
            dones,
            target_network=self.target,
            discount=self.config.discount,
        )
        self.learn_steps += 1
        if self.learn_steps % self.config.target_update_interval == 0:
            self.target.copy_weights_from(self.online)
        return loss

    def learn_fused(self, fresh: int, *, batch_size: Optional[int] = None) -> float:
        """One global-step minibatch update spanning the ``fresh`` newest transitions.

        The fused counterpart of :meth:`learn`: the minibatch always contains
        the K transitions the lockstep fleet just produced — pulled straight
        from the ring with :meth:`~repro.rl.replay.ArrayReplayBuffer.recent_indices`
        — padded to ``batch_size`` with uniform draws over the whole buffer
        (which may repeat a fresh transition; uniform replay semantics).  The
        whole minibatch is fetched with a single strided gather and trained
        with exactly one ``train_on_batch`` TD update, so the NN cost per
        global step is constant in K instead of linear.  When K exceeds
        ``batch_size`` the minibatch is simply the K fresh transitions.

        Target-network syncing follows :attr:`DQNConfig.target_update_interval`
        in learn steps, which under fused learning count global steps.

        ``batch_size`` overrides :attr:`DQNConfig.batch_size` for this update
        only — the central learner sizes its minibatch from its own
        (scale-clamped) knob without mutating the agent's configuration.
        """
        fresh = min(int(fresh), len(self.replay))
        indices = self.replay.recent_indices(fresh)
        fill = (self.config.batch_size if batch_size is None else int(batch_size)) - fresh
        if fill > 0:
            indices = np.concatenate([indices, self.replay.sample_indices(fill)])
        states, actions, rewards, next_states, dones = self.replay.gather(indices)
        loss = self.online.train_on_batch(
            states,
            actions,
            rewards,
            next_states,
            dones,
            target_network=self.target,
            discount=self.config.discount,
        )
        self.learn_steps += 1
        if self.learn_steps % self.config.target_update_interval == 0:
            self.target.copy_weights_from(self.online)
        return loss

    def train_episode(self, env: Environment, max_steps: int = 10_000) -> EpisodeStats:
        """Interact with ``env`` for one episode, learning as transitions arrive."""
        state = env.reset()
        total_reward = 0.0
        losses: List[float] = []
        episode_index = getattr(self, "_episode_counter", 0)
        steps_taken = 0
        for _ in range(check_positive_int(max_steps, "max_steps")):
            mask = env.valid_action_mask()
            action = self.select_action(state, mask=mask)
            next_state, reward, done, info = env.step(action)
            loss = self.observe_step(state, action, reward, next_state, done, info=info)
            if loss is not None:
                losses.append(loss)
            total_reward += reward
            state = next_state
            steps_taken += 1
            if done:
                break
        self._episode_counter = episode_index + 1
        return EpisodeStats(
            episode=episode_index,
            total_reward=total_reward,
            steps=steps_taken,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            final_delta=self.exploration(self.total_steps),
        )

    def train(
        self,
        env: Environment,
        episodes: int,
        *,
        max_steps_per_episode: int = 10_000,
        log_every: int = 10,
    ) -> List[EpisodeStats]:
        """Train for a fixed number of episodes and return per-episode stats."""
        episodes = check_positive_int(episodes, "episodes")
        history: List[EpisodeStats] = []
        for episode in range(episodes):
            stats = self.train_episode(env, max_steps=max_steps_per_episode)
            history.append(stats)
            if log_every and (episode + 1) % log_every == 0:
                logger.info(
                    "episode %d/%d reward=%.2f steps=%d loss=%.4f delta=%.3f",
                    episode + 1,
                    episodes,
                    stats.total_reward,
                    stats.steps,
                    stats.mean_loss,
                    stats.final_delta,
                )
        return history

    def train_episodes_vectorized(
        self,
        envs,
        episodes: int,
        *,
        max_steps_per_episode: int = 10_000,
        log_every: int = 10,
        fused: Optional[bool] = None,
    ) -> List[EpisodeStats]:
        """Train for ``episodes`` episodes across K environments in lockstep.

        Every global step selects actions for all active environments with a
        single batched forward pass of the online network, steps each
        environment, and feeds the transitions to the learner.  When an
        environment finishes an episode it is reset and keeps collecting as
        long as episodes remain to start, so K environments stay busy until
        the budget runs out.

        Two learning modes are supported:

        * **Per-transition** (``fused=False``, the default) — each of the K
          transitions triggers its own :meth:`observe_step` in environment
          order, exactly as the sequential loop would.  With a single
          environment this consumes the exploration/replay RNG stream in
          exactly the order of :meth:`train`, so K=1 reproduces the
          sequential path bit for bit.
        * **Fused global-step** (``fused=True``) — the K transitions of the
          step are written into the replay ring with one batched insertion
          (:meth:`~repro.rl.replay.ArrayReplayBuffer.add_batch`), and at most
          one minibatch update runs per global step (:meth:`learn_fused`),
          with the ``learn_every`` cadence and target-network syncs counting
          global steps.  The exploration schedule is evaluated once per
          global step (one δ shared by all K rows) but its clock,
          ``total_steps``, still counts transitions, so a decay horizon
          sized in environment steps means the same thing at every K and in
          both learning modes.
          This cuts the NN update cost per global step from K minibatches to
          one, which dominates wall-clock at large K; it is *not* bit-exact
          with the per-transition mode (fewer, differently-composed
          updates), only statistically equivalent.

        Parameters
        ----------
        envs:
            A :class:`~repro.rl.vector_env.VectorEnv` or a sequence of
            environments (wrapped automatically).  The environments may
            differ in seeds, datasets or quality requirements as long as they
            share the action space and state shape.
        episodes:
            Total number of episodes to run across all environments.
        max_steps_per_episode:
            Per-episode step cap, as in :meth:`train_episode`.
        log_every:
            Episodes between progress log lines (0 disables logging).
        fused:
            Learning-mode override; ``None`` defers to
            :attr:`DQNConfig.fused_learning`.
        """
        episodes = check_positive_int(episodes, "episodes")
        max_steps_per_episode = check_positive_int(max_steps_per_episode, "max_steps_per_episode")
        vec = envs if isinstance(envs, VectorEnv) else VectorEnv(envs)
        if fused is None:
            fused = self.config.fused_learning
        if vec.n_actions != self.n_actions:
            raise ValueError(
                f"environments have {vec.n_actions} actions but the agent "
                f"was built for {self.n_actions}"
            )

        n_envs = min(vec.n_envs, episodes)
        states: List[Optional[np.ndarray]] = [None] * vec.n_envs
        rewards = [0.0] * vec.n_envs
        steps = [0] * vec.n_envs
        losses: List[List[float]] = [[] for _ in range(vec.n_envs)]
        active: List[int] = []
        episodes_started = 0
        for index in range(n_envs):
            states[index] = vec.reset_one(index)
            active.append(index)
            episodes_started += 1

        history: List[EpisodeStats] = []
        while active:
            # Resolve the δ-greedy draws first: exploring rows never need a
            # forward pass, so the batched prediction below covers only the
            # exploiting rows.  The forward consumes no randomness, so with a
            # single environment the RNG stream is identical to the
            # sequential loop's draw-then-forward order.
            masks = vec.valid_action_masks(active)
            actions: List[Optional[int]] = [None] * len(active)
            exploit_rows: List[int] = []
            for row, index in enumerate(active):
                valid = np.flatnonzero(masks[row])
                if valid.size == 0:
                    raise ValueError("no valid actions available")
                delta = self.exploration(self.total_steps)
                if self._rng.random() < delta:
                    actions[row] = int(self._rng.choice(valid))
                else:
                    exploit_rows.append(row)
            if exploit_rows:
                q_batch = self.online.predict(
                    np.stack([states[active[row]] for row in exploit_rows])
                )
                greedy = delta_greedy(q_batch, masks[exploit_rows], self._rng)
                for row, action in zip(exploit_rows, greedy):
                    actions[row] = action

            results = vec.step_many(list(zip(active, actions)))

            step_loss: Optional[float] = None
            if fused:
                # One batched ring insertion for the whole lockstep step,
                # then at most one minibatch update spanning all of it.
                self.replay.add_batch(
                    np.stack([states[index] for index in active]),
                    np.asarray(actions, dtype=int),
                    np.array([result[1] for result in results], dtype=float),
                    np.stack([result[0] for result in results]),
                    np.array([result[2] for result in results], dtype=bool),
                    infos=[result[3] for result in results],
                )
                self.total_steps += len(active)
                self.global_steps += 1
                if (
                    len(self.replay) >= self.config.min_replay_size
                    and self.global_steps % self.config.learn_every == 0
                ):
                    step_loss = self.learn_fused(len(active))

            finished: List[int] = []
            for row, index in enumerate(active):
                next_state, reward, done, info = results[row]
                if fused:
                    loss = step_loss
                else:
                    loss = self.observe_step(
                        states[index], actions[row], reward, next_state, done, info=info
                    )
                if loss is not None:
                    losses[index].append(loss)
                rewards[index] += reward
                steps[index] += 1
                states[index] = next_state
                if done or steps[index] >= max_steps_per_episode:
                    episode_index = getattr(self, "_episode_counter", 0)
                    self._episode_counter = episode_index + 1
                    extra: Dict[str, float] = {"env_index": float(index)}
                    episode_cycles = getattr(vec.envs[index], "episode_cycles", None)
                    if episode_cycles is not None:
                        extra["episode_cycles"] = float(episode_cycles)
                    stats = EpisodeStats(
                        episode=episode_index,
                        total_reward=rewards[index],
                        steps=steps[index],
                        mean_loss=float(np.mean(losses[index])) if losses[index] else float("nan"),
                        final_delta=self.exploration(self.total_steps),
                        extra=extra,
                    )
                    history.append(stats)
                    if log_every and len(history) % log_every == 0:
                        logger.info(
                            "episode %d/%d (env %d) reward=%.2f steps=%d loss=%.4f delta=%.3f",
                            len(history),
                            episodes,
                            index,
                            stats.total_reward,
                            stats.steps,
                            stats.mean_loss,
                            stats.final_delta,
                        )
                    rewards[index] = 0.0
                    steps[index] = 0
                    losses[index] = []
                    if episodes_started < episodes:
                        states[index] = vec.reset_one(index)
                        episodes_started += 1
                    else:
                        finished.append(index)
            for index in finished:
                active.remove(index)
        return history

    # -- weights -----------------------------------------------------------

    def get_weights(self):
        """Online-network weights (used by transfer learning)."""
        return self.online.get_weights()

    def set_weights(self, weights) -> None:
        """Load weights into both the online and the target network."""
        self.online.set_weights(weights)
        self.target.set_weights(weights)

    def sync_target(self) -> None:
        """Force-copy online weights into the target network."""
        self.target.copy_weights_from(self.online)
