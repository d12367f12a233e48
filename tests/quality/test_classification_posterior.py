"""The classification LOO posterior is the Beta–Binomial CDF of ``scipy.stats``.

``LeaveOneOutBayesianAssessor`` sums the Beta–Binomial pmf in log space with
``scipy.special.betaln`` instead of calling ``scipy.stats.betabinom``, so the
package never loads ``scipy.stats``.  These tests pin the closed form to
``scipy.stats.betabinom`` over every LOO sample the assessor can produce
(``max_loo_cells`` up to 12, so 1-12 held-out cells and 0-12 misses), small
to large unsensed counts, and a spread of ε.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, _betabinom_cdf

N_UNSENSED = [*range(1, 60), 100, 500, 2000]
EPSILONS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)


def grid():
    """``(allowed misses, n_unsensed, alpha, beta)`` over the posterior's domain."""
    rows = [
        (int(np.floor(epsilon * n_unsensed)), n_unsensed, 0.5 + misses, 0.5 + (n - misses))
        for n_unsensed in N_UNSENSED
        for n in range(1, 13)
        for misses in range(n + 1)
        for epsilon in EPSILONS
    ]
    return np.array(rows, dtype=float)


def test_closed_form_matches_scipy_betabinom():
    cases = grid()
    allowed, n_unsensed, alpha, beta = cases.T
    expected = stats.betabinom.cdf(allowed, n_unsensed, alpha, beta)
    got = np.array(
        [
            _betabinom_cdf(int(k), int(n), a, b)
            for k, n, a, b in zip(allowed, n_unsensed, alpha, beta)
        ]
    )
    assert len(cases) == 33480
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("k, n, expected", [(-1, 5, 0.0), (5, 5, 1.0), (9, 5, 1.0)])
def test_support_edges(k, n, expected):
    assert _betabinom_cdf(k, n, 1.5, 2.5) == expected
    assert stats.betabinom.cdf(k, n, 1.5, 2.5) == expected


def test_classification_posterior_matches_scipy_betabinom():
    """End to end through the assessor: miss counting plus the CDF."""
    rng = np.random.default_rng(2)
    requirement = QualityRequirement(epsilon=0.25, p=0.9, metric="classification")
    edges = np.asarray(requirement.category_edges(), dtype=float)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        true_values = rng.uniform(0.0, 1.2 * edges[-1], size=n)
        predicted_values = true_values * rng.uniform(0.6, 1.4, size=n)
        n_unsensed = int(rng.integers(1, 60))
        misses = int(
            np.count_nonzero(
                np.digitize(true_values, edges, right=True)
                != np.digitize(predicted_values, edges, right=True)
            )
        )
        expected = stats.betabinom(n_unsensed, 0.5 + misses, 0.5 + n - misses).cdf(
            int(np.floor(requirement.epsilon * n_unsensed))
        )
        got = LeaveOneOutBayesianAssessor._classification_posterior(
            true_values, predicted_values, requirement, n_unsensed
        )
        assert abs(got - expected) <= 1e-10
