"""Byte-level pins of the three campaign runners' outputs.

Each digest is a blake2b over every result's cycle records (cycle, selected
cells, ``true_error`` bytes, ``assessed_satisfied``) and its
``inferred_matrix`` bytes.  The pinned values were recorded before the cycle
loop was shared between the runners; any change to selection order, RNG
consumption, pooling or completion arithmetic moves them.

* (a) :class:`CampaignRunner` with the ALS inference and the LOO assessor —
  the exact-sequential (Gauss–Seidel) path, otherwise pinned only on
  aggregates;
* (b) :class:`BatchedCampaignRunner` with three policies whose slots carry
  their own, equivalently configured ALS and LOO instances (so they pool);
* (c) two :class:`ServedCampaignRunner` fleets over different datasets on
  one server, plus the same fleets stopped at cycle 2 and resumed from
  :meth:`~ServedCampaignRunner.slot_states`.
"""

import hashlib

import numpy as np

from repro.datasets.sensorscope import generate_sensorscope
from repro.datasets.uair import generate_uair
from repro.inference.compressive import CompressiveSensingInference
from repro.mcs import (
    BatchedCampaignRunner,
    CampaignConfig,
    CampaignRunner,
    QBCSelectionPolicy,
    RandomSelectionPolicy,
    ServedCampaignRunner,
    SensingTask,
)
from repro.mcs.policies import CellSelectionPolicy
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor
from repro.serve import DecisionServer, ServeConfig, drive

N_CYCLES = 5


class StridePolicy(CellSelectionPolicy):
    """Stateless deterministic policy: a cycle-dependent stride over the cells."""

    name = "STRIDE"

    def select_cell(self, observed_matrix, cycle, sensed_mask):
        free = np.flatnonzero(~sensed_mask)
        return int(free[(3 * cycle + 5 * int(sensed_mask.sum())) % free.size])


def digest(results) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for result in results:
        for record in result.records:
            hasher.update(
                repr(
                    (
                        int(record.cycle),
                        tuple(int(cell) for cell in record.selected_cells),
                        bool(record.assessed_satisfied),
                    )
                ).encode()
            )
            hasher.update(np.float64(record.true_error).tobytes())
        hasher.update(np.ascontiguousarray(result.inferred_matrix).tobytes())
    return hasher.hexdigest()


def temperature():
    return generate_sensorscope(
        "temperature", n_cells=8, duration_days=1.0, cycle_length_hours=2.0, seed=0
    )


def pm25():
    return generate_uair(n_cells=8, duration_days=1.0, cycle_length_hours=2.0, seed=0)


def make_task(dataset, assessor_seed=0):
    return SensingTask(
        dataset=dataset,
        requirement=QualityRequirement(epsilon=0.8, p=0.8, metric="mae"),
        inference=CompressiveSensingInference(rank=3, iterations=5, seed=0),
        assessor=LeaveOneOutBayesianAssessor(
            min_observations=2,
            max_loo_cells=4,
            history_window=6,
            rng=np.random.default_rng(assessor_seed),
        ),
    )


CONFIG = CampaignConfig(min_cells_per_cycle=2, assess_every=2, history_window=6)


def test_sequential_runner_digest():
    task = make_task(temperature())
    result = CampaignRunner(task, CONFIG).run(
        RandomSelectionPolicy(seed=1), n_cycles=N_CYCLES
    )
    assert digest([result]) == "0313b69c47288c0bf810efb08321c84c"


def test_batched_runner_digest_with_pooled_per_slot_instances():
    dataset = temperature()
    tasks = [make_task(dataset, assessor_seed=seed) for seed in (0, 1, 2)]
    policies = [
        RandomSelectionPolicy(seed=1),
        QBCSelectionPolicy(seed=2, history_window=6),
        StridePolicy(),
    ]
    results = BatchedCampaignRunner(tasks, CONFIG).run(policies, n_cycles=N_CYCLES)
    assert digest(results) == "0de06b936219786795d441153924a3ca"


def served_fleets(server):
    return [
        ServedCampaignRunner(make_task(dataset, assessor_seed=seed), CONFIG, server=server)
        for seed, dataset in enumerate((temperature(), pm25()))
    ]


def test_served_fleets_digest():
    server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
    runners = served_fleets(server)
    drive(
        server,
        [
            runner.launch(
                [StridePolicy(), RandomSelectionPolicy(seed=3)],
                n_cycles=N_CYCLES,
                tenants=[f"fleet{index}-a", f"fleet{index}-b"],
            )
            for index, runner in enumerate(runners)
        ],
    )
    results = [result for runner in runners for result in runner.results]
    assert digest(results) == "c30c21455200cd73c8544cc7e78dbc06"


def test_served_fleets_stop_and_resume_digest():
    def launch_all(runners, **kwargs):
        return [
            runner.launch(
                [StridePolicy()], n_cycles=N_CYCLES, tenants=[f"fleet{index}"], **kwargs
            )
            for index, runner in enumerate(runners)
        ]

    server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
    uninterrupted = served_fleets(server)
    drive(server, launch_all(uninterrupted))
    whole = digest([result for runner in uninterrupted for result in runner.results])

    server = DecisionServer(ServeConfig(max_batch=32, max_wait_ticks=1))
    stopped = served_fleets(server)
    drive(server, launch_all(stopped, stop_cycle=2))
    states = [runner.slot_states() for runner in stopped]
    head = digest([result for runner in stopped for result in runner.results])
    assert head == "e89d54191ffabc86af22c6da07a3ccdc"

    resumed = served_fleets(server)
    drive(
        server,
        [
            runner.launch(
                [StridePolicy()],
                n_cycles=N_CYCLES,
                tenants=[f"fleet{index}"],
                start_cycle=2,
                slot_states=state,
            )
            for index, (runner, state) in enumerate(zip(resumed, states))
        ],
    )
    tail = digest([result for runner in resumed for result in runner.results])
    assert tail == whole == "e59a6979c5fd94dbc344feee9603c8d4"
