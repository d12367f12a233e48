"""Leave-one-out Bayesian quality assessment (paper Definition 6 and §5.3).

At test time the organiser does not know the ground truth of unsensed cells,
so it cannot measure the inference error directly.  The Sparse MCS
literature instead estimates it with a leave-one-out (LOO) procedure: each
*sensed* cell is removed in turn, re-inferred from the remaining sensed
cells, and the resulting LOO errors are treated as samples of the cycle's
inference-error distribution.  A Bayesian posterior over the mean error of
the *unsensed* cells then gives the probability that the cycle error is
below ε; data collection stops for the cycle once that probability reaches
p.

Two assessors are provided:

* :class:`LeaveOneOutBayesianAssessor` — the test-time assessor described
  above.  For continuous metrics (MAE) a normal-approximation posterior over
  the mean error is used; for the classification metric a Beta–Bernoulli
  posterior over the misclassification probability is used.
* :class:`OracleAssessor` — a train-time assessor with access to the ground
  truth column, used for reward computation during Q-function training
  (the paper's footnote 2: during training the organiser is assumed to have
  collected the data of all the cells for a preliminary period).

Assessment is the hot path of every campaign: the assessor is consulted
after each submission, and each consultation runs up to ``max_loo_cells``
full matrix completions.  Both assessors therefore route their completions
through :meth:`InferenceAlgorithm.complete_batch` — the K held-out LOO
windows of one consultation (and, via :meth:`QualityAssessor.assess_many`,
the windows of many lockstep campaign slots) are solved in a single batched
call.  Algorithms without a vectorized solver fall back to the base class's
sequential ``complete_batch``, which is bit-exact with the old one-at-a-time
loop.
"""

from __future__ import annotations

import abc
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import ASSESSORS
from repro.inference.base import InferenceAlgorithm
from repro.obs.profile import phase
from repro.quality._scipy_kernels import kernels
from repro.quality.epsilon_p import QualityRequirement
from repro.utils.seeding import RngLike, as_rng
from repro.utils.validation import check_positive_int


class QualityAssessor(abc.ABC):
    """Decides whether the current cycle has collected enough cells."""

    @abc.abstractmethod
    def assess(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        requirement: QualityRequirement,
        inference: InferenceAlgorithm,
    ) -> bool:
        """Return True when the current cycle is judged to satisfy the requirement.

        Parameters
        ----------
        observed_matrix:
            Cells × cycles matrix of the data collected so far, NaN for
            unobserved entries; column ``cycle`` is the cycle under
            assessment.
        cycle:
            Index of the current cycle.
        requirement:
            The (ε, p)-quality requirement of the task.
        inference:
            The inference algorithm the campaign uses (needed for the LOO
            re-inference).
        """

    def assess_many(
        self,
        observed_matrices: Sequence[np.ndarray],
        cycles: Sequence[int],
        requirements: Sequence[QualityRequirement],
        inference: InferenceAlgorithm,
        *,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    ) -> List[bool]:
        """Assess several campaign slots in one call.

        The base implementation loops over :meth:`assess`; the built-in
        assessors override it to pool every slot's matrix completions into a
        single :meth:`InferenceAlgorithm.complete_batch` call, which is what
        makes lockstep multi-policy campaigns cheap.

        ``rngs`` optionally carries one generator per slot (None entries
        fall back to the assessor's own stream).  When several *equivalent*
        assessor instances are pooled through one representative, passing
        each slot's own generator keeps every campaign's assessment
        randomness independent of who shares its batch.  Deterministic
        assessors ignore it.
        """
        del rngs  # the base protocol draws no randomness per slot
        return [
            self.assess(observed, cycle, requirement, inference)
            for observed, cycle, requirement in zip(observed_matrices, cycles, requirements)
        ]


class _LooPlan(NamedTuple):
    """One slot's LOO work: its window, the held-out cells, the unsensed count."""

    slot: int
    window: np.ndarray
    cells: np.ndarray
    n_unsensed: int


@ASSESSORS.register("loo_bayesian")
class LeaveOneOutBayesianAssessor(QualityAssessor):
    """Leave-one-out Bayesian estimate of P(cycle error ≤ ε).

    Parameters
    ----------
    min_observations:
        Minimum number of sensed cells in the cycle before the assessor is
        willing to declare the quality satisfied; below this the LOO sample
        is too small to be trusted and the assessor always returns False.
    max_loo_cells:
        Cap on the number of LOO re-inferences per assessment (each one is a
        full matrix completion); when more cells are sensed a random subset
        of this size is evaluated.
    history_window:
        Number of past cycles included in the matrix handed to the inference
        algorithm.  Bounding the history keeps each assessment's cost flat
        over the campaign.
    batched:
        Solve the held-out LOO windows with one
        :meth:`InferenceAlgorithm.complete_batch` call (the default).  For
        algorithms with a vectorized solver the batched completions can
        differ from the sequential ones by the solver's documented tolerance;
        set ``batched=False`` to force the one-completion-at-a-time protocol.
    """

    def __init__(
        self,
        min_observations: int = 3,
        max_loo_cells: int = 12,
        history_window: int = 24,
        *,
        batched: bool = True,
        rng: RngLike = None,
    ) -> None:
        self.min_observations = check_positive_int(min_observations, "min_observations")
        self.max_loo_cells = check_positive_int(max_loo_cells, "max_loo_cells")
        self.history_window = check_positive_int(history_window, "history_window")
        self.batched = bool(batched)
        # `rng or default_rng(0)` would silently discard falsy seeds (0) and
        # crash on truthy ints; normalise through the seeding helpers instead.
        self._rng = as_rng(0 if rng is None else rng)

    @property
    def rng(self) -> np.random.Generator:
        """The assessor's LOO-subsampling stream.

        Public so pooled ``assess_many`` callers (the decision server, the
        lockstep runner) can thread each slot's own stream through a shared
        representative instance — per-campaign RNG partitioning.
        """
        return self._rng

    def assess(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        requirement: QualityRequirement,
        inference: InferenceAlgorithm,
    ) -> bool:
        probability = self.probability_error_below(
            observed_matrix, cycle, requirement, inference
        )
        return bool(probability >= requirement.p)

    def assess_many(
        self,
        observed_matrices: Sequence[np.ndarray],
        cycles: Sequence[int],
        requirements: Sequence[QualityRequirement],
        inference: InferenceAlgorithm,
        *,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    ) -> List[bool]:
        with phase("loo.assess"):
            probabilities = self.probabilities_error_below(
                observed_matrices, cycles, requirements, inference, rngs=rngs
            )
        return [
            bool(probability >= requirement.p)
            for probability, requirement in zip(probabilities, requirements)
        ]

    def probability_error_below(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        requirement: QualityRequirement,
        inference: InferenceAlgorithm,
    ) -> float:
        """Posterior probability that the current cycle's error is ≤ ε."""
        return self.probabilities_error_below(
            [observed_matrix], [cycle], [requirement], inference
        )[0]

    def probabilities_error_below(
        self,
        observed_matrices: Sequence[np.ndarray],
        cycles: Sequence[int],
        requirements: Sequence[QualityRequirement],
        inference: InferenceAlgorithm,
        *,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    ) -> List[float]:
        """Posterior probabilities for several slots, with pooled completions.

        All undecided slots' held-out LOO windows are collected first and
        completed in one :meth:`InferenceAlgorithm.complete_batch` call, so P
        lockstep campaign slots cost one batched solve instead of up to
        ``P · max_loo_cells`` sequential ones.

        The only randomness is the ``max_loo_cells`` subsample draw; with
        ``rngs`` each slot draws from its own stream (None entries fall back
        to this instance's stream), so a campaign's draw sequence does not
        depend on which other slots share the pooled call.
        """
        n_slots = len(observed_matrices)
        if not (len(cycles) == len(requirements) == n_slots):
            raise ValueError("observed_matrices, cycles and requirements must be index-aligned")
        if rngs is not None and len(rngs) != n_slots:
            raise ValueError(f"{n_slots} slots but {len(rngs)} rngs")
        probabilities: List[Optional[float]] = [None] * n_slots
        plans: List[_LooPlan] = []

        # Per slot and in slot order: each slot's subsample draw consumes
        # its own stream exactly once, whoever shares the call.
        for slot, (observed, cycle) in enumerate(zip(observed_matrices, cycles)):
            observed = np.asarray(observed, dtype=float)
            if not 0 <= cycle < observed.shape[1]:
                raise IndexError(
                    f"cycle {cycle} out of range for {observed.shape[1]} cycles"
                )
            window = self._window(observed, cycle)
            current = window.shape[1] - 1
            sensed = np.flatnonzero(~np.isnan(window[:, current]))
            n_cells = window.shape[0]
            if sensed.size < self.min_observations:
                probabilities[slot] = 0.0
                continue
            if sensed.size == n_cells:
                # Everything sensed: there is no inference error at all.
                probabilities[slot] = 1.0
                continue
            if sensed.size > self.max_loo_cells:
                slot_rng = self._rng
                if rngs is not None and rngs[slot] is not None:
                    slot_rng = rngs[slot]
                chosen = slot_rng.choice(sensed, size=self.max_loo_cells, replace=False)
            else:
                chosen = sensed
            if sensed.size < 2:
                # Removing the only sensed cell would leave nothing to infer
                # from; every LOO window is degenerate, so no sample exists.
                probabilities[slot] = 0.0
                continue
            plans.append(
                _LooPlan(slot, window, np.asarray(chosen, dtype=int), n_cells - sensed.size)
            )
        if not plans:
            return probabilities  # type: ignore[return-value]

        held_out, true_values = self._held_out_windows(plans)
        # Every slot's held-out windows, in slot order: a replica slot lists
        # its source's arrays again, so the completion cache still sees (and
        # counts) every window of every slot.
        held_out_pool = [matrix for windows in held_out for matrix in windows]

        with phase("loo.complete_pool"):
            completed_pool = self._complete_pool(held_out_pool, inference)

        # Read back each held-out entry in one pass over the pool.
        sizes = np.array([plan.cells.size for plan in plans])
        starts = np.cumsum(sizes) - sizes
        pool_cells = np.concatenate([plan.cells for plan in plans]).tolist()
        pool_columns = np.repeat([plan.window.shape[1] - 1 for plan in plans], sizes).tolist()
        predicted = np.array(
            [
                matrix[cell, column]
                for matrix, cell, column in zip(completed_pool, pool_cells, pool_columns)
            ],
            dtype=float,
        )
        actual = np.concatenate(true_values)

        # Continuous slots: one row-wise posterior per LOO sample size n.
        continuous: Dict[int, List[int]] = {}
        for position, plan in enumerate(plans):
            requirement = requirements[plan.slot]
            if requirement.is_classification:
                span = slice(starts[position], starts[position] + plan.cells.size)
                probabilities[plan.slot] = self._classification_posterior(
                    actual[span], predicted[span], requirement, plan.n_unsensed
                )
            else:
                continuous.setdefault(plan.cells.size, []).append(position)
        loo_errors = np.abs(predicted - actual)
        for n, positions in continuous.items():
            members = [plans[position] for position in positions]
            posteriors = self._continuous_posteriors(
                loo_errors[starts[positions][:, None] + np.arange(n)],
                np.array([requirements[plan.slot].epsilon for plan in members]),
                np.array([plan.n_unsensed for plan in members]),
            )
            for plan, posterior in zip(members, posteriors.tolist()):
                probabilities[plan.slot] = posterior
        return probabilities  # type: ignore[return-value]

    # -- round-tripping ----------------------------------------------------

    def state_dict(self) -> dict:
        """The LOO-subsampling stream position (the assessor's only state)."""
        from repro.utils.statedict import rng_state

        return {"rng": rng_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.statedict import set_rng_state

        set_rng_state(self._rng, state["rng"])

    # -- internals ---------------------------------------------------------

    def _window(self, observed_matrix: np.ndarray, cycle: int) -> np.ndarray:
        start = max(0, cycle + 1 - self.history_window)
        return observed_matrix[:, start : cycle + 1]

    @staticmethod
    def _held_out_windows(
        plans: Sequence[_LooPlan],
    ) -> Tuple[List[List[np.ndarray]], List[np.ndarray]]:
        """Each plan's K held-out windows (as views) and their true values.

        The windows of all same-shape plans come from one stack: each
        distinct window repeated K times, then one fancy-indexed NaN write
        on the (k, cell_k, current) diagonal.  A replica plan, whose window
        and held-out cells are byte-identical to an earlier plan's (as in
        replicated campaigns), gets that plan's arrays.
        """
        sources: Dict[Tuple[Tuple[int, ...], bytes, bytes], int] = {}
        source_of = [
            sources.setdefault(
                (plan.window.shape, plan.window.tobytes(), plan.cells.tobytes()), index
            )
            for index, plan in enumerate(plans)
        ]
        by_shape: Dict[Tuple[int, ...], List[int]] = {}
        for index in sources.values():
            by_shape.setdefault(plans[index].window.shape, []).append(index)
        windows: Dict[int, List[np.ndarray]] = {}
        values: Dict[int, np.ndarray] = {}
        for (_, width), members in by_shape.items():
            sizes = [plans[index].cells.size for index in members]
            rows = np.arange(sum(sizes))
            cells = np.concatenate([plans[index].cells for index in members])
            stack = np.repeat(
                np.stack([plans[index].window for index in members]), sizes, axis=0
            )
            truth = stack[rows, cells, width - 1]
            stack[rows, cells, width - 1] = np.nan
            offset = 0
            for index, size in zip(members, sizes):
                windows[index] = list(stack[offset : offset + size])
                values[index] = truth[offset : offset + size]
                offset += size
        return [windows[index] for index in source_of], [values[index] for index in source_of]

    def _complete_pool(
        self, held_out_pool: List[np.ndarray], inference: InferenceAlgorithm
    ) -> List[np.ndarray]:
        """Complete every held-out LOO window, batched when the solver can.

        ``complete_batch`` degrades to a bit-exact sequential loop for
        algorithms without a vectorized solver; ``batched=False`` forces that
        loop even for algorithms that have one.
        """
        if not held_out_pool:
            return []
        if self.batched:
            return inference.complete_batch(held_out_pool)
        return [inference.complete(held_out) for held_out in held_out_pool]

    @staticmethod
    def _continuous_posterior(
        loo_errors: np.ndarray, requirement: QualityRequirement, n_unsensed: int
    ) -> float:
        """The posterior of one slot: the one-row case of :meth:`_continuous_posteriors`."""
        return float(
            LeaveOneOutBayesianAssessor._continuous_posteriors(
                loo_errors[np.newaxis, :],
                np.array([requirement.epsilon]),
                np.array([n_unsensed]),
            )[0]
        )

    @staticmethod
    def _continuous_posteriors(
        loo_errors: np.ndarray, epsilons: np.ndarray, n_unsensed: np.ndarray
    ) -> np.ndarray:
        """Normal-approximation posteriors over the mean error of the unsensed cells.

        One row per slot: ``loo_errors`` is ``(slots, n)`` for one LOO
        sample size ``n``, with each slot's ε and unsensed-cell count.  The
        LOO errors are treated as i.i.d. samples of the per-cell absolute
        error; the cycle error (MAE over unsensed cells) is the mean of
        ``n_unsensed`` such draws, so its posterior predictive mean/standard
        error follow from the sample statistics.  With only a handful of LOO
        samples the Student-t quantile widens the uncertainty appropriately.
        Each row's bytes are those of the statistics taken over that row
        alone.
        """
        n = loo_errors.shape[1]
        means = loo_errors.mean(axis=1)
        # A single sample carries no variance information, and a vanishing
        # standard error none either: be conservative.
        posteriors = np.where(means <= epsilons, 1.0, 0.0)
        if n == 1:
            return posteriors
        stds = loo_errors.std(axis=1, ddof=1)
        standard_errors = stds / np.sqrt(n_unsensed) + stds / np.sqrt(n)
        spread = ~(standard_errors <= 1e-12)
        if not spread.any():
            return posteriors
        t_stats = (epsilons[spread] - means[spread]) / standard_errors[spread]
        # ``stats.t.cdf`` calls the same compiled t CDF.
        posteriors[spread] = kernels().stdtr(n - 1, t_stats)
        return posteriors

    @staticmethod
    def _classification_posterior(
        true_values: np.ndarray,
        predicted_values: np.ndarray,
        requirement: QualityRequirement,
        n_unsensed: int,
    ) -> float:
        """Beta–Bernoulli posterior over the misclassification probability.

        Each LOO re-inference gives a Bernoulli outcome — does the
        re-inferred value fall into a different category than the true
        value?  With a Jeffreys Beta(1/2, 1/2) prior the posterior over the
        misclassification probability θ is Beta(1/2 + misses, 1/2 + hits).
        The cycle's classification error is the *mean* of ``n_unsensed``
        Bernoulli(θ) outcomes, so the probability that it is ≤ ε is the
        Beta-Binomial probability of at most ``⌊ε·n_unsensed⌋`` misses among
        the unsensed cells, with θ integrated out over its posterior.

        The category edges come from the requirement, categorised exactly the
        way :func:`repro.inference.metrics.classification_error` categorises
        (``np.digitize`` with inclusive upper bounds) — the posterior must
        estimate the same quantity the recorded metric measures.
        """
        edges = np.asarray(requirement.category_edges(), dtype=float)
        true_category = np.digitize(true_values, edges, right=True)
        predicted_category = np.digitize(predicted_values, edges, right=True)
        misses = int(np.count_nonzero(true_category != predicted_category))
        n = true_values.size
        alpha = 0.5 + misses
        beta = 0.5 + (n - misses)
        allowed_misses = int(np.floor(requirement.epsilon * n_unsensed))
        return _betabinom_cdf(allowed_misses, n_unsensed, alpha, beta)


def _betabinom_cdf(k: int, n: int, alpha: float, beta: float) -> float:
    """P(X ≤ k) for X ~ BetaBinomial(n, alpha, beta), summed in log space.

    Each term is ``scipy.stats.betabinom``'s own log-pmf, the binomial
    coefficient written as ``-log(n + 1) - betaln(n - k + 1, k + 1)``, and
    the terms are summed and clipped the way its ``cdf`` does — the same
    bytes at a fraction of the cost, and ``scipy.stats`` never loads.
    """
    if k >= n:
        return 1.0
    betaln = kernels().betaln
    m = np.arange(k + 1, dtype=float)
    log_pmf = (
        -np.log(n + 1.0)
        - betaln(n - m + 1, m + 1)
        + betaln(m + alpha, n - m + beta)
        - betaln(alpha, beta)
    )
    return float(np.clip(np.exp(log_pmf).sum(), 0.0, 1.0))


@ASSESSORS.register("oracle")
class OracleAssessor(QualityAssessor):
    """Ground-truth quality assessment used during Q-function training.

    The paper's training stage assumes the organiser has collected the data
    of all cells for a preliminary period (footnote 2), so the inference
    error of the current cycle can be computed exactly.
    """

    def __init__(self, ground_truth: np.ndarray, history_window: int = 24) -> None:
        self.ground_truth = np.asarray(ground_truth, dtype=float)
        if self.ground_truth.ndim != 2:
            raise ValueError("ground_truth must be a cells x cycles matrix")
        self.history_window = check_positive_int(history_window, "history_window")

    def assess(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        requirement: QualityRequirement,
        inference: InferenceAlgorithm,
    ) -> bool:
        error = self.cycle_error(observed_matrix, cycle, requirement, inference)
        return bool(error <= requirement.epsilon)

    def assess_many(
        self,
        observed_matrices: Sequence[np.ndarray],
        cycles: Sequence[int],
        requirements: Sequence[QualityRequirement],
        inference: InferenceAlgorithm,
        *,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    ) -> List[bool]:
        del rngs  # the oracle draws no randomness
        errors = self.cycle_errors(observed_matrices, cycles, requirements, inference)
        return [
            bool(error <= requirement.epsilon)
            for error, requirement in zip(errors, requirements)
        ]

    def cycle_error(
        self,
        observed_matrix: np.ndarray,
        cycle: int,
        requirement: QualityRequirement,
        inference: InferenceAlgorithm,
    ) -> float:
        """Exact inference error of the current cycle over its unsensed cells."""
        return self.cycle_errors([observed_matrix], [cycle], [requirement], inference)[0]

    def cycle_errors(
        self,
        observed_matrices: Sequence[np.ndarray],
        cycles: Sequence[int],
        requirements: Sequence[QualityRequirement],
        inference: InferenceAlgorithm,
    ) -> List[float]:
        """Exact per-slot cycle errors, with the completions pooled into one batch."""
        n_slots = len(observed_matrices)
        if not (len(cycles) == len(requirements) == n_slots):
            raise ValueError("observed_matrices, cycles and requirements must be index-aligned")
        errors: List[Optional[float]] = [None] * n_slots
        pending: List[Tuple[int, np.ndarray]] = []
        windows: List[np.ndarray] = []

        for slot, (observed, cycle) in enumerate(zip(observed_matrices, cycles)):
            observed = np.asarray(observed, dtype=float)
            if observed.shape[0] != self.ground_truth.shape[0]:
                raise ValueError("observed matrix and ground truth disagree on cell count")
            if not 0 <= cycle < observed.shape[1]:
                raise IndexError(
                    f"cycle {cycle} out of range for {observed.shape[1]} cycles"
                )
            start = max(0, cycle + 1 - self.history_window)
            window = observed[:, start : cycle + 1]
            current = window.shape[1] - 1
            sensed = ~np.isnan(window[:, current])
            if sensed.all():
                # The *current column* is fully sensed, so there is nothing to
                # infer and the error is exactly 0 — no completion needed even
                # when earlier window columns still contain NaNs.
                errors[slot] = 0.0
                continue
            if not sensed.any():
                # Nothing sensed yet: the error of inferring from nothing is
                # effectively unbounded; report infinity so no requirement passes.
                errors[slot] = float("inf")
                continue
            pending.append((slot, sensed))
            windows.append(window)

        if windows:
            completed_windows = inference.complete_batch(windows)
            for (slot, sensed), completed in zip(pending, completed_windows):
                current = completed.shape[1] - 1
                errors[slot] = requirements[slot].column_error(
                    self.ground_truth[:, cycles[slot]],
                    completed[:, current],
                    exclude=sensed,
                )
        return errors  # type: ignore[return-value]
