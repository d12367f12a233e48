"""Batched lockstep execution of Sparse MCS training environments.

:class:`BatchedSparseMCSVectorEnv` is the mcs-side half of the vectorized
training engine.  The dominant per-step cost of
:class:`~repro.mcs.environment.SparseMCSEnvironment` is the quality-check
inference (a full ALS matrix completion per submission); stepping K
environments through the generic :class:`~repro.rl.vector_env.VectorEnv`
would run K completions one by one.  This subclass instead collects every
environment's inference window with
:meth:`~repro.mcs.environment.SparseMCSEnvironment.begin_step`, completes
them in a single vectorized call
(:meth:`~repro.inference.compressive.CompressiveSensingInference.complete_batch`)
and then finishes each step.

The batched completion optimises the same ALS objective with the same
budget but is not bit-for-bit identical to the sequential solver (see
``complete_batch``), so this wrapper is used for the throughput-oriented
``vector_envs > 1`` training mode; the ``vector_envs = 1`` default keeps
the paper's exact sequential protocol.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.inference.base import InferenceAlgorithm
from repro.mcs.environment import SparseMCSEnvironment
from repro.rl.vector_env import StepResult, VectorEnv
from repro.serve.cache import pool_key


class BatchedSparseMCSVectorEnv(VectorEnv):
    """K Sparse MCS environments with batched quality-check inference.

    Parameters
    ----------
    envs:
        The environments to drive.  They may differ in seeds, datasets or
        quality requirements as long as they share the cell count.
    inference:
        Inference algorithm used for the *batched* quality checks; defaults
        to the first environment's algorithm.  Must advertise a vectorized
        solver via ``supports_batch_completion`` — otherwise stepping falls
        back to the generic per-environment loop (the base class's
        ``complete_batch`` is a sequential loop, so routing through it would
        batch nothing).  When no explicit algorithm is given, batching
        also requires every environment's algorithm to share one
        :func:`~repro.serve.cache.pool_key` (separately seeded instances of
        one solver do: the batched solver uses one initialisation anyway);
        mixing different algorithms silently changes rewards, so
        heterogeneous environments fall back to per-environment stepping
        instead.
    """

    def __init__(
        self,
        envs: Sequence[SparseMCSEnvironment],
        *,
        inference: Optional[InferenceAlgorithm] = None,
    ) -> None:
        for index, env in enumerate(envs):
            if not isinstance(env, SparseMCSEnvironment):
                raise TypeError(
                    f"environment {index} is {type(env).__name__}, "
                    "expected SparseMCSEnvironment"
                )
        super().__init__(envs)
        self.inference = inference if inference is not None else envs[0].inference
        self._batched = getattr(self.inference, "supports_batch_completion", False)
        if self._batched and inference is None:
            self._batched = all(
                pool_key(env.inference) == pool_key(self.inference) for env in self.envs
            )

    def step_many(self, indexed_actions: Sequence[Tuple[int, int]]) -> List[StepResult]:
        if not self._batched:
            return super().step_many(indexed_actions)
        windows = []
        try:
            for index, action in indexed_actions:
                windows.append(self.envs[index].begin_step(action))
            pending = [pos for pos, window in enumerate(windows) if window is not None]
            if pending:
                completed = self.inference.complete_batch(
                    [windows[pos] for pos in pending]
                )
                for pos, window in zip(pending, completed):
                    windows[pos] = window
        except Exception:
            # Don't leave half the fleet with unfinished steps: abort every
            # environment that already began, then re-raise.
            for index, _ in indexed_actions[: len(windows)]:
                self.envs[index].abort_step()
            raise
        return [
            self.envs[index].finish_step(windows[pos])
            for pos, (index, _) in enumerate(indexed_actions)
        ]
