"""The decision server's select flush: one forward per weight set, draws per agent.

:func:`repro.rl.dqn.select_groups` answers a flush's agent groups with one
grouped ``predict`` per weight set (the serving actors holding one
snapshot share it) and draws group by group on each agent's own generator.
The reference is the path it replaced: one ``select_actions`` call per agent
in first-request order.  Actions and every generator's state must match it,
and a group whose pull, forward or draws raise must fail alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drcell import DRCellAgent, DRCellConfig
from repro.learner import Learner
from repro.nn.network import QNetworkBase
from repro.rl.dqn import DQNConfig, select_groups
from repro.serve import DecisionServer, ServeConfig

N_CELLS = 6
WINDOW = 2


def build_learner(seed: int = 0, *, recurrent: bool = True) -> Learner:
    config = DRCellConfig(
        window=WINDOW,
        seed=seed,
        recurrent=recurrent,
        lstm_hidden=8,
        dense_hidden=(8,),
        dqn=DQNConfig(batch_size=4, min_replay_size=4),
    )
    return Learner(DRCellAgent.build(N_CELLS, config))


def queries(seed: int, count: int):
    rng = np.random.default_rng(seed)
    states = [rng.integers(0, 2, size=(WINDOW, N_CELLS)).astype(float) for _ in range(count)]
    masks = []
    for _ in range(count):
        mask = rng.random(N_CELLS) < 0.6
        mask[rng.integers(N_CELLS)] = True
        masks.append(mask)
    return states, masks


def actors(learner: Learner, seeds):
    return [learner.actor(rng=np.random.default_rng(seed)) for seed in seeds]


def served(selectors, greedy=False):
    """One flush on a fresh server of every ``(selector, states, masks)`` group.

    Returns, per group, its actions or the exception its futures carry.
    """
    server = DecisionServer(ServeConfig(max_batch=64, max_wait_ticks=5))
    futures = [
        [
            server.select_cell(selector, state, mask, greedy=greedy, tenant=f"t{index}")
            for state, mask in zip(states, masks)
        ]
        for index, (selector, states, masks) in enumerate(selectors)
    ]
    server.flush()
    outcomes = []
    for group in futures:
        try:
            outcomes.append([future.result() for future in group])
        except Exception as error:
            outcomes.append(error)
    return outcomes


def sequential(selectors, greedy=False):
    """The reference: one ``select_actions`` call per group, in order."""
    return [
        selector.select_actions(states, masks=masks, greedy=greedy)
        for selector, states, masks in selectors
    ]


def rng_states(selectors):
    return [selector._rng.bit_generator.state for selector, *_ in selectors]


def mixed_fleet():
    """Five actors on one snapshot (two sharing a generator), two on another
    learner's snapshot, and a plain agent with three queries."""
    first, second = build_learner(0), build_learner(1)
    fleet = actors(first, [10, 11, 12, 13])
    fleet.insert(2, first.actor(rng=fleet[0]._rng))  # shares actor 0's generator
    fleet += actors(second, [20, 21])
    selectors = [(actor, 1) for actor in fleet]
    selectors.insert(3, (build_learner(2).agent.agent, 3))
    return [(selector, *queries(index, count)) for index, (selector, count) in enumerate(selectors)]


@pytest.mark.parametrize("greedy", [False, True])
def test_grouped_flush_equals_per_agent_calls(greedy):
    expected_fleet = mixed_fleet()
    expected = sequential(expected_fleet, greedy)
    fleet = mixed_fleet()
    assert served(fleet, greedy) == expected
    assert rng_states(fleet) == rng_states(expected_fleet)
    assert all(isinstance(actions, list) for actions in expected)


def counting_predict(monkeypatch):
    calls = []
    original = QNetworkBase.predict

    def predict(self, states):
        calls.append(np.shape(states))
        return original(self, states)

    monkeypatch.setattr(QNetworkBase, "predict", predict)
    return calls


def test_one_forward_per_snapshot_per_flush(monkeypatch):
    fleet = mixed_fleet()
    calls = counting_predict(monkeypatch)
    served(fleet)
    # One grouped forward for the first learner's five actors, one for the
    # second's two, and the plain agent's own three-row call.
    assert sorted(calls) == sorted(
        [(5, 1, WINDOW, N_CELLS), (2, 1, WINDOW, N_CELLS), (3, WINDOW, N_CELLS)]
    )


def test_a_one_group_bucket_runs_the_plain_call(monkeypatch):
    learner = build_learner()
    calls = counting_predict(monkeypatch)
    served([(actor, *queries(0, 2)) for actor in actors(learner, [1])])
    assert calls == [(2, WINDOW, N_CELLS)]


class BrokenNetwork:
    """Mixed into a network class: every forward raises."""

    def predict(self, states):
        raise RuntimeError("forward failed")


def break_pull(actor):
    def pull():
        raise RuntimeError("pull failed")

    actor.pull = pull


def break_forward(actor):
    network = actor.network
    network.__class__ = type("Broken" + type(network).__name__, (BrokenNetwork, type(network)), {})


def fleet(faulty=None, fault=None):
    """Five actors on one snapshot, one query each; actor ``faulty`` broken by ``fault``."""
    group = [
        (actor, *queries(seed, 1))
        for seed, actor in zip(range(30, 35), actors(build_learner(), range(30, 35)))
    ]
    if fault is not None:
        fault(group[faulty][0])
    return group


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("fault", [break_pull, break_forward])
def test_failing_actor_fails_alone(fault, position):
    without = fleet()
    del without[position]
    expected = served(without)

    group = fleet(position, fault)
    outcomes = served(group)
    assert isinstance(outcomes.pop(position), RuntimeError)
    del group[position]
    assert outcomes == expected
    assert rng_states(group) == rng_states(without)


def test_grouped_forward_that_raises_runs_group_by_group():
    # The bucket forward runs on its first actor's network; when it raises,
    # every group forwards alone and only the raising one fails.
    def raising(states):
        raise RuntimeError("forward failed")

    without = fleet()[1:]
    expected = served(without)
    group = fleet()
    group[0][0].network.predict = raising
    outcomes = served(group)
    assert isinstance(outcomes[0], RuntimeError)
    assert outcomes[1:] == expected
    assert rng_states(group[1:]) == rng_states(without)


def test_nan_q_values_fail_their_group_alone():
    # A plain agent whose weights are NaN and whose δ is 0: its exploit draw
    # has no best action and raises, after the actors before it drew and
    # before the actors after it draw (they explore at δ = 1).
    broken = build_learner(5).agent.agent
    broken.online.set_weights(
        [
            {name: np.full_like(value, np.nan) for name, value in layer.items()}
            for layer in broken.online.get_weights()
        ]
    )
    broken.exploration = lambda steps: 0.0
    without = fleet()
    expected = served(without)
    group = fleet()
    group.insert(2, (broken, *queries(99, 2)))
    outcomes = served(group)
    assert isinstance(outcomes.pop(2), ValueError)
    assert outcomes == expected
    del group[2]
    assert rng_states(group) == rng_states(without)


def test_a_mask_with_no_action_fails_its_group_alone():
    # The server refuses such a mask at submission; a direct caller of the
    # helper gets the same isolation as for a NaN Q-value.
    without = fleet()
    expected = [select_groups([(actor, states, masks, False)])[0] for actor, states, masks in without]
    group = fleet()
    states, masks = queries(7, 2)
    masks[1] = np.zeros(N_CELLS, dtype=bool)
    queries_with = [(actor, s, m, False) for actor, s, m in group]
    queries_with.insert(1, (group[0][0], states, masks, False))
    outcomes = select_groups(queries_with)
    assert isinstance(outcomes.pop(1), ValueError)
    assert outcomes == expected
    assert rng_states(group) == rng_states(without)
