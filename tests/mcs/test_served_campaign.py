"""Tests for the server-backed campaign runner.

The load-bearing claims:

* a single :class:`ServedCampaignRunner` driven alone against a server is
  **bitwise identical** to the direct :class:`BatchedCampaignRunner` —
  including DR-Cell policy slots (stacked Q forwards) and the completion
  cache (hits return exactly what a recomputation would);
* several runners over *different datasets* share one server and finish with
  fused batches (the concurrency the direct runner cannot express);
* the TINY seed-0 Figure-6 protocol evaluated through ``Session.serve`` is
  bitwise identical to ``Session.evaluate``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import Session
from repro.datasets.sensorscope import generate_sensorscope
from repro.datasets.uair import generate_uair
from repro.experiments.config import TINY_SCALE
from repro.experiments.figure6 import figure6_scenario
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs import (
    BatchedCampaignRunner,
    CampaignConfig,
    QBCSelectionPolicy,
    RandomSelectionPolicy,
    ServedCampaignRunner,
    SensingTask,
)
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, QualityAssessor
from repro.serve import DecisionServer, ServeConfig, drive, drive_rounds


def build_fixture(dataset_seed=0, *, n_cells=8):
    """One task + two baseline policies, rebuilt fresh per call (fresh RNGs)."""
    dataset = generate_sensorscope(
        "temperature",
        n_cells=n_cells,
        duration_days=1.0,
        cycle_length_hours=2.0,
        seed=dataset_seed,
    )
    task = SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.8, p=0.8, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=5, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=2,
            max_loo_cells=4,
            history_window=6,
            rng=np.random.default_rng(0),
        ),
    )
    policies = [
        RandomSelectionPolicy(seed=1),
        QBCSelectionPolicy(seed=2, history_window=6),
    ]
    config = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
    return task, policies, config


def assert_results_bitwise_equal(direct, served):
    assert len(direct) == len(served)
    for d, s in zip(direct, served):
        assert d.policy_name == s.policy_name
        assert len(d.records) == len(s.records)
        for rd, rs in zip(d.records, s.records):
            assert rd.selected_cells == rs.selected_cells
            assert rd.true_error == rs.true_error  # bitwise: no tolerance
            assert rd.assessed_satisfied == rs.assessed_satisfied
        assert np.array_equal(d.inferred_matrix, s.inferred_matrix, equal_nan=True)


class TestSingleRunnerParity:
    def test_bitwise_parity_with_batched_runner(self):
        task, policies, config = build_fixture()
        direct = BatchedCampaignRunner(task, config).run(policies, n_cycles=4)

        task2, policies2, config2 = build_fixture()
        server = DecisionServer(ServeConfig(max_batch=16, max_wait_ticks=1))
        served = ServedCampaignRunner(task2, config2, server=server).run(
            policies2, n_cycles=4
        )
        assert_results_bitwise_equal(direct, served)

    def test_parity_is_robust_to_micro_batch_size(self):
        # Chunked flushes preserve request order, lockstep slots share a
        # window width, and the batched solver is byte-independent of its
        # batch within one width, so tiny max_batch changes nothing.
        task, policies, config = build_fixture()
        direct = BatchedCampaignRunner(task, config).run(policies, n_cycles=3)

        task2, policies2, config2 = build_fixture()
        server = DecisionServer(ServeConfig(max_batch=1, max_wait_ticks=0))
        served = ServedCampaignRunner(task2, config2, server=server).run(
            policies2, n_cycles=3
        )
        assert_results_bitwise_equal(direct, served)

    def test_cache_reuse_across_replicated_runs_preserves_results(self):
        # Second identical fleet on the same server: heavy cache hits, but
        # results stay bitwise identical to the cold run.
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        task, policies, config = build_fixture()
        cold = ServedCampaignRunner(task, config, server=server).run(policies, n_cycles=3)
        misses_after_cold = server.cache.misses

        task2, policies2, config2 = build_fixture()
        warm = ServedCampaignRunner(task2, config2, server=server).run(
            policies2, n_cycles=3
        )
        assert_results_bitwise_equal(cold, warm)
        assert server.cache.hits > 0
        # The warm run's completion work came from the cache, not new solves.
        assert server.cache.misses == misses_after_cold

    def test_falsy_none_verdicts_match_the_direct_runner(self):
        # A custom assessor on the base assess_many may answer None for "not
        # yet satisfied"; the server must read it as False, as the direct
        # runner does, instead of leaving the request unresolved.
        class CountingAssessor(QualityAssessor):
            def assess(self, observed_matrix, cycle, requirement, inference):
                return True if np.isfinite(observed_matrix[:, cycle]).sum() >= 4 else None

        def build():
            task, policies, config = build_fixture()
            return replace(task, assessor=CountingAssessor()), policies, config

        task, policies, config = build()
        direct = BatchedCampaignRunner(task, config).run(policies, n_cycles=3)
        task2, policies2, config2 = build()
        served = ServedCampaignRunner(task2, config2, server=DecisionServer()).run(
            policies2, n_cycles=3
        )
        assert_results_bitwise_equal(direct, served)
        assert all(len(r.selected_cells) == 4 for res in served for r in res.records)

    def test_results_property_requires_a_completed_run(self):
        task, policies, config = build_fixture()
        runner = ServedCampaignRunner(task, config, server=DecisionServer())
        with pytest.raises(RuntimeError):
            runner.results
        runner.run(policies, n_cycles=2)
        assert len(runner.results) == 2

    def test_rejects_non_server(self):
        task, _, config = build_fixture()
        with pytest.raises(TypeError):
            ServedCampaignRunner(task, config, server=object())


class TestLaunchValidation:
    """Bad ``launch`` arguments raise at the call, not on the first ``next()``.

    By the first ``next()`` a drive may already be running and co-driven
    runners may have submitted requests.
    """

    @pytest.mark.parametrize(
        "policies, kwargs",
        [
            ([], {}),
            (None, {"tenants": ["only-one"]}),
            (None, {"start_cycle": 5}),
            (None, {"stop_cycle": 5}),
            (None, {"start_cycle": 2, "stop_cycle": 1}),
            (None, {"slot_states": [None]}),
        ],
        ids=[
            "no-policies",
            "tenants",
            "start-cycle",
            "stop-cycle",
            "stop-before-start",
            "slot-states",
        ],
    )
    def test_bad_arguments_raise_before_the_generator_exists(self, policies, kwargs):
        task, fixture_policies, config = build_fixture()
        server = DecisionServer()
        runner = ServedCampaignRunner(task, config, server=server)
        with pytest.raises(ValueError):
            runner.launch(
                fixture_policies if policies is None else policies, n_cycles=3, **kwargs
            )
        assert server.pending == 0


class TestConcurrentRunners:
    def test_cross_dataset_fleets_share_one_server(self):
        temperature = generate_sensorscope(
            "temperature", n_cells=8, duration_days=1.0, cycle_length_hours=2.0, seed=0
        )
        pm25 = generate_uair(
            n_cells=8, duration_days=1.0, cycle_length_hours=2.0, seed=0
        )
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))

        runners, drivers = [], []
        for dataset in (temperature, pm25):
            task = SensingTask(
                dataset=dataset,
                requirement=QualityRequirement(epsilon=0.8, p=0.8, metric="mae"),
                inference=CompressiveSensingInference(rank=3, iterations=5, seed=0),
                assessor=LeaveOneOutBayesianAssessor(
                    min_observations=2, max_loo_cells=4, history_window=6
                ),
            )
            runner = ServedCampaignRunner(task, config, server=server)
            runners.append(runner)
            drivers.append(
                runner.launch([RandomSelectionPolicy(seed=3)], n_cycles=3)
            )
        drive(server, drivers)

        for runner in runners:
            (result,) = runner.results
            assert result.n_cycles == 3
            assert all(record.n_selected >= 2 for record in result.records)
        # The two fleets' assessments landed in shared batches: more requests
        # than batches means cross-campaign fusion actually happened.
        assess = server.stats.endpoint("assess")
        assert assess.requests > assess.batches
        assert assess.mean_batch_occupancy > 1.0

    def test_drive_handles_runners_of_different_lengths(self):
        config = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)
        server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
        drivers, runners = [], []
        for n_cycles in (2, 4):
            task, policies, _ = build_fixture()
            runner = ServedCampaignRunner(task, config, server=server)
            runners.append((runner, n_cycles))
            drivers.append(runner.launch(policies[:1], n_cycles=n_cycles))
        drive(server, drivers)
        for runner, n_cycles in runners:
            assert runner.results[0].n_cycles == n_cycles
        assert server.pending == 0

    def test_drive_rounds_interleaves_fleets_without_changing_them(self):
        def fleet():
            task, policies, config = build_fixture()
            server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
            runner = ServedCampaignRunner(task, config, server=server)
            return server, runner, runner.launch(policies, n_cycles=4)

        server, alone, driver = fleet()
        drive(server, [driver])

        fleets = [fleet(), fleet()]
        rounds = {
            id(server): drive_rounds(server, [driver]) for server, _, driver in fleets
        }
        live = [server for server, _, _ in fleets]
        while live:
            for server in tuple(live):
                try:
                    next(rounds[id(server)])
                except StopIteration:
                    live.remove(server)
                # Each round ends with the server's pending work resolved.
                assert server.pending == 0
        for _, runner, _ in fleets:
            assert_results_bitwise_equal(alone.results, runner.results)


class TestFigure6TinyParity:
    """The acceptance bar: TINY seed-0 Figure-6 metrics, served vs direct."""

    @pytest.fixture(scope="class")
    def sessions(self):
        spec = figure6_scenario(TINY_SCALE, "temperature", 0.9, seed=0)

        def trained_session():
            session = Session.from_spec(spec)
            session.train()
            return session

        return trained_session(), trained_session()

    def test_served_metrics_bitwise_match_direct_evaluation(self, sessions):
        direct_session, served_session = sessions
        direct = direct_session.evaluate()
        served, stats, checkpoint = served_session.serve()
        assert checkpoint is None

        assert [row.slot for row in served.rows] == [row.slot for row in direct.rows]
        for direct_row, served_row in zip(direct.rows, served.rows):
            # Bitwise on the Figure-6 metrics: no tolerance anywhere.
            assert served_row == served_row.__class__(**vars(direct_row))
        for name, direct_result in direct.results.items():
            served_result = served.results[name]
            for rd, rs in zip(direct_result.records, served_result.records):
                assert rd.selected_cells == rs.selected_cells
                assert rd.true_error == rs.true_error
                assert rd.assessed_satisfied == rs.assessed_satisfied
            assert np.array_equal(
                direct_result.inferred_matrix,
                served_result.inferred_matrix,
                equal_nan=True,
            )
        # The DR-Cell slot's policy queries went through the server.
        assert stats.endpoint("select").requests > 0
        assert stats.endpoint("assess").requests > 0

    def test_replicas_report_suffixed_rows(self, sessions):
        _, served_session = sessions
        report, stats, _ = served_session.serve(replicas=2, n_cycles=2)
        names = [row.slot for row in report.rows]
        assert len(names) == 2 * len(served_session.slots)
        assert any(name.endswith("@1") for name in names)
        # Replicated identical campaigns are the cache's best case.
        assert stats.cache_hits > 0

    def test_replica_policies_are_isolated_copies(self, sessions):
        # Concurrent replicas must not share mutable agent state (exploration
        # RNG, online-learning updates) with the primary campaign's policy.
        _, served_session = sessions
        drcell_slot = next(slot for slot in served_session.slots if slot.trains_agent)
        replica_policy = served_session._replica_policy(drcell_slot)
        assert replica_policy.agent is not drcell_slot.agent
        original = drcell_slot.agent.get_weights()
        copied = replica_policy.agent.get_weights()
        for layer_a, layer_b in zip(original, copied):
            for name in layer_a:
                assert np.array_equal(layer_a[name], layer_b[name])
