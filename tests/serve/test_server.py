"""Tests for the decision server: endpoints, grouping, flush semantics, telemetry."""

import numpy as np
import pytest

from repro.core.config import DRCellConfig
from repro.core.drcell import DRCellAgent
from repro.inference.compressive import CompressiveSensingInference
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.obs.trace import Tracer
from repro.serve import DecisionServer, RequestJournal, ServeConfig, TickClock
from repro.serve.cache import CachingInference


def tiny_agent(n_cells=6, seed=0):
    config = DRCellConfig(
        window=2, lstm_hidden=8, dense_hidden=(8,), seed=seed,
        exploration_start=1.0, exploration_end=0.05,
    )
    return DRCellAgent.build(n_cells, config)


def partial_window(seed=0, n_cells=6, width=5, sensed=4):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_cells, width)) + np.linspace(0, 2, n_cells)[:, None]
    observed = matrix.copy()
    observed[:, -1] = np.nan
    chosen = rng.choice(n_cells, size=sensed, replace=False)
    observed[chosen, -1] = matrix[chosen, -1]
    return observed


class SlottedAssessor:
    """An assessor that cannot be weak-referenced, hence not pool-keyed."""

    __slots__ = ()

    def assess_many(self, observed, cycles, requirements, inference, rngs=None):
        return [True] * len(observed)


class SlottedInference:
    """An inference that cannot be weak-referenced, hence not pool-keyed."""

    __slots__ = ()

    def complete_batch(self, matrices):
        return [np.nan_to_num(matrix) for matrix in matrices]


class FakeLearner:
    """The duck-typed learner the learn endpoint needs: check, ingest, telemetry."""

    def __init__(self):
        self.ingested = 0

    def check_batch(self, batch):
        pass

    def ingest(self, batches):
        self.ingested += len(batches)
        return [f"receipt-{self.ingested}"] * len(batches)

    def telemetry(self):
        return {"total_steps": self.ingested}


class StubSelector:
    """Passes the select endpoint's submission checks; the tests patch the handler."""

    state_shape = (2,)
    n_actions = 2

    def acting(self):
        raise AssertionError("a patched select handler never asks the selector")


def unreadable_answers(requests):
    """A select handler that fails outside any per-group isolation."""
    raise ValueError("not-an-action")


class Recorder:
    """A subscriber that logs the event stream."""

    def __init__(self):
        self.events = []

    def request(self, request):
        self.events.append(("request", request.kind, request.sequence))

    def flush(self, record):
        self.events.append(("flush", record.kind, [r.sequence for r in record.requests]))

    def flushed(self, record):
        done = all(request.future.done for request in record.requests)
        self.events.append(("flushed", record.kind, done))


class TestSelectEndpoint:
    def test_matches_sequential_select_action(self):
        n_cells = 6
        observed = partial_window(seed=1, n_cells=n_cells)
        sensed = ~np.isnan(observed[:, -1])

        def query_inputs(agent):
            state = agent.state_model.from_observations(
                observed, observed.shape[1] - 1, sensed
            )
            mask = agent.action_space.mask_from_sensed(sensed)
            return state, mask

        direct_agent = tiny_agent(n_cells)
        state, mask = query_inputs(direct_agent)
        expected = [
            direct_agent.agent.select_action(state, mask=mask, greedy=True)
            for _ in range(3)
        ]

        served_agent = tiny_agent(n_cells)
        server = DecisionServer(ServeConfig(max_batch=16, max_wait_ticks=0))
        state, mask = query_inputs(served_agent)
        futures = [
            server.select_cell(served_agent, state, mask, greedy=True)
            for _ in range(3)
        ]
        server.flush()
        assert [future.result() for future in futures] == expected

    def test_accepts_wrapped_and_unwrapped_agents(self):
        agent = tiny_agent()
        observed = partial_window(seed=2)
        sensed = ~np.isnan(observed[:, -1])
        state = agent.state_model.from_observations(observed, observed.shape[1] - 1, sensed)
        mask = agent.action_space.mask_from_sensed(sensed)
        server = DecisionServer()
        wrapped = server.select_cell(agent, state, mask)
        unwrapped = server.select_cell(agent.agent, state, mask)
        # Both forms address the same DQNAgent, so they share one batch group.
        server.flush()
        assert isinstance(wrapped.result(), int) and isinstance(unwrapped.result(), int)
        assert server.stats.endpoint("select").batches == 1

    def test_rejects_unservable_agents(self):
        with pytest.raises(TypeError):
            DecisionServer().select_cell(object(), np.zeros(2), np.ones(2, dtype=bool))

    def test_exploration_rng_order_matches_sequential(self):
        # Non-greedy queries consume the agent RNG per request (explore draw,
        # then choice draw) in submission order, exactly like sequential calls.
        observed = partial_window(seed=3)
        sensed = ~np.isnan(observed[:, -1])

        def run(batched):
            agent = tiny_agent(seed=7)
            state = agent.state_model.from_observations(
                observed, observed.shape[1] - 1, sensed
            )
            mask = agent.action_space.mask_from_sensed(sensed)
            if batched:
                return agent.agent.select_actions(
                    [state] * 4, masks=[mask] * 4, greedy=False
                )
            return [
                agent.agent.select_action(state, mask=mask, greedy=False)
                for _ in range(4)
            ]

        assert run(batched=True) == run(batched=False)


class TestAssessAndCompleteEndpoints:
    def test_assess_matches_direct_assessor(self):
        inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")
        observed = partial_window(seed=4)
        cycle = observed.shape[1] - 1

        direct = LeaveOneOutBayesianAssessor(
            min_observations=2, max_loo_cells=3, history_window=5,
            rng=np.random.default_rng(0),
        ).assess(observed, cycle, requirement, inference)

        served_assessor = LeaveOneOutBayesianAssessor(
            min_observations=2, max_loo_cells=3, history_window=5,
            rng=np.random.default_rng(0),
        )
        server = DecisionServer()
        future = server.assess_quality(
            served_assessor, inference, observed, cycle, requirement
        )
        server.flush()
        assert future.result() == direct

    def test_equivalent_assessors_pool_into_one_batch(self):
        inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")
        server = DecisionServer()
        futures = []
        for seed in range(3):
            assessor = LeaveOneOutBayesianAssessor(
                min_observations=2, max_loo_cells=3, history_window=5
            )
            futures.append(
                server.assess_quality(
                    assessor,
                    CompressiveSensingInference(rank=2, iterations=4, seed=0),
                    partial_window(seed=seed),
                    4,
                    requirement,
                )
            )
        server.flush()
        for future in futures:
            assert isinstance(future.result(), bool)
        stats = server.stats.endpoint("assess")
        assert stats.batches == 1 and stats.batched_requests == 3
        assert stats.mean_batch_occupancy == 3.0

    def test_complete_matches_direct_and_groups_by_equivalence(self):
        als_a = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        als_b = CompressiveSensingInference(rank=3, iterations=4, seed=0)  # not equivalent
        matrices = [partial_window(seed=s) for s in (5, 6)]
        expected = [
            als_a.complete_batch([matrices[0]])[0],
            als_b.complete_batch([matrices[1]])[0],
        ]
        server = DecisionServer()
        futures = [
            server.complete_matrix(als_a, matrices[0]),
            server.complete_matrix(als_b, matrices[1]),
        ]
        server.flush()
        for future, reference in zip(futures, expected):
            assert np.array_equal(future.result(), reference)
        # Two distinct equivalence classes in one drained batch → one batch
        # record, two underlying solves, no crosstalk.
        assert server.stats.endpoint("complete").batches == 1

    def test_cache_hit_skips_recompute(self):
        class CountingALS(CompressiveSensingInference):
            calls = 0

            def _complete_batch(self, data, mask, widths=None):
                type(self).calls += 1
                return super()._complete_batch(data, mask, widths=widths)

        als = CountingALS(rank=2, iterations=3, seed=0)
        matrix = partial_window(seed=7)
        server = DecisionServer()
        first = server.complete_matrix(als, matrix)
        server.flush()
        second = server.complete_matrix(als, matrix.copy())
        server.flush()
        assert CountingALS.calls == 1
        assert np.array_equal(first.result(), second.result())
        assert server.cache.hits == 1

    def test_handler_error_propagates_to_every_request(self):
        class Broken(CompressiveSensingInference):
            def complete_batch(self, matrices):
                raise RuntimeError("solver exploded")

        broken = Broken()
        server = DecisionServer()
        futures = [
            server.complete_matrix(broken, partial_window(seed=s)) for s in (1, 2)
        ]
        server.flush()
        for future in futures:
            with pytest.raises(RuntimeError, match="solver exploded"):
                future.result()


class TestPoisonedRequests:
    """A request the endpoints cannot answer is refused at submission, so
    the requests that would have pooled with it resolve to their own bytes."""

    @pytest.mark.parametrize(
        "poison, message",
        [
            (np.full((6, 5), np.nan), "no observed entries"),
            (np.where(np.eye(6, 5) > 0, np.inf, np.nan), "infinite"),
            (np.array([1.0, np.nan, 2.0]), "2-D"),
        ],
        ids=["all_nan", "inf", "one_d"],
    )
    def test_poisoned_completion_fails_alone(self, poison, message):
        def serve(poisoned):
            als = CompressiveSensingInference(rank=2, iterations=4, seed=0)
            server = DecisionServer()
            futures = [server.complete_matrix(als, partial_window(seed=1))]
            if poisoned:
                with pytest.raises(ValueError, match=message):
                    server.complete_matrix(als, poison)
            futures.append(server.complete_matrix(als, partial_window(seed=2)))
            server.flush()
            return [future.result().tobytes() for future in futures], server

        clean, _ = serve(poisoned=False)
        survived, server = serve(poisoned=True)
        assert survived == clean
        assert server.stats.endpoint("complete").requests == 2

    @pytest.mark.parametrize("cycle", [5, -1, 99])
    def test_out_of_range_cycle_fails_alone(self, cycle):
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")

        def serve(poisoned):
            inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
            assessors = [
                LeaveOneOutBayesianAssessor(
                    min_observations=2, max_loo_cells=3, history_window=5,
                    rng=np.random.default_rng(seed),
                )
                for seed in (0, 1)
            ]
            server = DecisionServer()
            futures = [
                server.assess_quality(assessors[0], inference, partial_window(seed=3), 4, requirement)
            ]
            if poisoned:
                with pytest.raises(ValueError, match="out of range"):
                    server.assess_quality(
                        assessors[1], inference, partial_window(seed=4), cycle, requirement
                    )
            futures.append(
                server.assess_quality(assessors[1], inference, partial_window(seed=5), 4, requirement)
            )
            server.flush()
            streams = [assessor.rng.bit_generator.state for assessor in assessors]
            return [future.result() for future in futures], streams, server.cache.hits

        assert serve(poisoned=True) == serve(poisoned=False)

    @pytest.mark.parametrize("infinity", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_infinite_observation_fails_alone(self, infinity):
        """An assessment with one ±inf observed value is refused before it
        can pool: its neighbours resolve to their verdicts, streams and
        cache traffic as if it had never been sent (queued, it failed them
        under ``-W error`` and answered them with warnings otherwise)."""
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")
        poison = partial_window(seed=4)
        poison[np.flatnonzero(~np.isnan(poison[:, -1]))[0], -1] = infinity

        def serve(poisoned):
            inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
            assessors = [
                LeaveOneOutBayesianAssessor(
                    min_observations=2, max_loo_cells=3, history_window=5,
                    rng=np.random.default_rng(seed),
                )
                for seed in (0, 1, 2)
            ]
            server = DecisionServer()
            futures = [
                server.assess_quality(assessors[0], inference, partial_window(seed=3), 4, requirement)
            ]
            if poisoned:
                with pytest.raises(ValueError, match="infinite"):
                    server.assess_quality(assessors[1], inference, poison, 4, requirement)
            futures.append(
                server.assess_quality(assessors[2], inference, partial_window(seed=5), 4, requirement)
            )
            server.flush()
            streams = [assessor.rng.bit_generator.state for assessor in assessors]
            return [future.result() for future in futures], streams, server.cache.hits

        assert serve(poisoned=True) == serve(poisoned=False)

    @pytest.mark.parametrize(
        "poison, message",
        [
            ("long_mask", "mask shape"),
            ("narrow_state", "state shape"),
            ("no_action", "allows no action"),
            ("nan_state", "finite"),
        ],
    )
    def test_poisoned_select_fails_alone(self, poison, message):
        """Greedy and exploring queries pooled with a poisoned one resolve
        to the actions (and leave the exploration RNG where) they would
        without it."""
        observed = partial_window(seed=6)
        sensed = ~np.isnan(observed[:, -1])

        def serve(poisoned):
            agent = tiny_agent(seed=5)
            state = agent.state_model.from_observations(observed, observed.shape[1] - 1, sensed)
            mask = agent.action_space.mask_from_sensed(sensed)
            bad_state, bad_mask = {
                "long_mask": (state, np.ones(7, dtype=bool)),
                "narrow_state": (state[:, :-1], mask),
                "no_action": (state, np.zeros_like(mask)),
                "nan_state": (np.full_like(state, np.nan), mask),
            }[poison]
            server = DecisionServer()
            futures = [server.select_cell(agent, state, mask, greedy=False)]
            if poisoned:
                with pytest.raises(ValueError, match=message):
                    server.select_cell(agent, bad_state, bad_mask, greedy=False)
            futures += [
                server.select_cell(agent, state, mask, greedy=True),
                server.select_cell(agent, state, mask, greedy=False),
            ]
            server.flush()
            rng_state = agent.agent._rng.bit_generator.state
            return [future.result() for future in futures], rng_state, server.stats.endpoint(
                "select"
            ).requests

        assert serve(poisoned=True) == serve(poisoned=False)

    def test_unkeyable_assessor_fails_alone(self):
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")

        def serve(poisoned):
            inference = CompressiveSensingInference(rank=2, iterations=4, seed=0)
            assessor = LeaveOneOutBayesianAssessor(
                min_observations=2, max_loo_cells=3, history_window=5,
                rng=np.random.default_rng(0),
            )
            server = DecisionServer()
            if poisoned:
                with pytest.raises(TypeError):
                    server.assess_quality(
                        SlottedAssessor(), inference, partial_window(seed=3), 4, requirement
                    )
            future = server.assess_quality(
                assessor, inference, partial_window(seed=3), 4, requirement
            )
            server.run_pending()
            return future.result(), server.stats.deterministic_dict()

        assert serve(poisoned=True) == serve(poisoned=False)

    def test_unkeyable_inference_fails_alone(self):
        def serve(poisoned):
            als = CompressiveSensingInference(rank=2, iterations=4, seed=0)
            server = DecisionServer()
            if poisoned:
                with pytest.raises(TypeError):
                    server.complete_matrix(SlottedInference(), partial_window(seed=1))
            future = server.complete_matrix(als, partial_window(seed=1))
            server.run_pending()
            return future.result().tobytes(), server.stats.deterministic_dict()

        assert serve(poisoned=True) == serve(poisoned=False)

    def test_refused_request_is_not_counted(self):
        als = CompressiveSensingInference(rank=2, iterations=4, seed=0)
        server = DecisionServer()
        with pytest.raises(ValueError, match="tenant"):
            server.complete_matrix(als, partial_window(seed=1), tenant="")
        assert server.stats.deterministic_dict() == DecisionServer().stats.deterministic_dict()

    def test_assess_rejects_a_matrix_that_is_not_2d(self):
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")
        assessor = LeaveOneOutBayesianAssessor(min_observations=2)
        with pytest.raises(ValueError, match="2-D"):
            DecisionServer().assess_quality(
                assessor, CompressiveSensingInference(), np.ones(5), 0, requirement
            )


class TestFlushSemantics:
    def test_full_queue_flushes_on_submit(self):
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        server = DecisionServer(ServeConfig(max_batch=2, max_wait_ticks=100))
        first = server.complete_matrix(als, partial_window(seed=1))
        assert not first.done
        second = server.complete_matrix(als, partial_window(seed=2))
        assert first.done and second.done  # hit max_batch → immediate flush

    def test_tick_flushes_aged_requests(self):
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        clock = TickClock()
        server = DecisionServer(ServeConfig(max_batch=16, max_wait_ticks=2), clock=clock)
        future = server.complete_matrix(als, partial_window(seed=3))
        assert server.tick() == 0  # waited 1 tick < 2
        assert not future.done
        assert server.tick() == 1  # aged out
        assert future.result() is not None

    def test_run_pending_resolves_everything(self):
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        server = DecisionServer(ServeConfig(max_batch=64, max_wait_ticks=50))
        futures = [server.complete_matrix(als, partial_window(seed=s)) for s in range(3)]
        assert server.pending == 3
        server.run_pending()
        assert server.pending == 0 and all(f.done for f in futures)

    def test_stats_latency_and_requests_recorded(self):
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        server = DecisionServer()
        server.complete_matrix(als, partial_window(seed=1))
        server.flush()
        snapshot = server.stats.as_dict()
        endpoint = snapshot["endpoints"]["complete"]
        assert endpoint["requests"] == 1
        assert endpoint["seconds"] >= 0
        assert endpoint["mean_latency_seconds"] is not None

    def test_caching_wrapper_reused_per_instance(self):
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        server = DecisionServer()
        wrapper = server._cached(als)
        assert isinstance(wrapper, CachingInference)
        assert server._cached(als) is wrapper
        assert server._cached(wrapper) is wrapper


class TestEventStream:
    def test_subscribers_see_request_flush_flushed_for_every_endpoint(self):
        requirement = QualityRequirement(epsilon=0.6, p=0.8, metric="mae")
        agent = tiny_agent()
        observed = partial_window(seed=2)
        sensed = ~np.isnan(observed[:, -1])
        state = agent.state_model.from_observations(observed, observed.shape[1] - 1, sensed)
        mask = agent.action_space.mask_from_sensed(sensed)
        als = CompressiveSensingInference(rank=2, iterations=3, seed=0)
        assessor = LeaveOneOutBayesianAssessor(min_observations=2, max_loo_cells=3)
        server = DecisionServer()
        recorder = Recorder()
        server.subscribe(recorder)
        submit = {
            "select": lambda: server.select_cell(agent, state, mask),
            "assess": lambda: server.assess_quality(
                assessor, als, partial_window(seed=3), 4, requirement
            ),
            "complete": lambda: server.complete_matrix(als, partial_window(seed=4)),
            "learn": lambda: server.learn_batch(FakeLearner(), "batch"),
        }
        for sequence, (kind, call) in enumerate(submit.items()):
            call()
            server.flush(kind)
            assert recorder.events[-3:] == [
                ("request", kind, sequence),
                ("flush", kind, [sequence]),
                ("flushed", kind, True),
            ]
        assert len(recorder.events) == 12
        assert server.stats.learners == {"learner-0": {"total_steps": 1}}

    def test_raising_handler_fails_its_batch_and_closes_every_view(self):
        server = DecisionServer()
        journal, tracer = RequestJournal(), Tracer()
        server.subscribe(journal)
        server.subscribe(tracer)
        server._handle_select = unreadable_answers
        agent = StubSelector()
        futures = [
            server.select_cell(agent, [0.0, 1.0], [True, True], tenant=tenant)
            for tenant in ("a", "b")
        ]
        with pytest.raises(ValueError, match="not-an-action"):
            server.flush()
        for future in futures:
            with pytest.raises(ValueError, match="not-an-action"):
                future.result()
        assert tracer.open_batches == 0 and tracer.open_requests == 0
        assert [span.cat for span in tracer.spans].count("serve.batch") == 1
        responses = [event for event in journal.events if event["type"] == "response"]
        assert [event["seq"] for event in responses] == [0, 1]
        assert all("not-an-action" in event["error"] for event in responses)
        assert server.stats.endpoint("select").batches == 1
