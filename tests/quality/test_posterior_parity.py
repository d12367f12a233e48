"""The continuous LOO posterior is the Student-t CDF, byte for byte.

``LeaveOneOutBayesianAssessor`` evaluates the t CDF with
``scipy.special.stdtr``, the function ``scipy.stats.t.cdf`` calls
internally, so the package does not load ``scipy.stats`` at import time.
These tests pin that the two agree to the last bit over the degrees of
freedom the assessor can produce (``max_loo_cells`` up to 12 gives df 1-11).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special, stats

from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor

def t_grid():
    """A uniform grid, the extremes, values at and near zero, and random draws."""
    return np.concatenate(
        [
            np.linspace(-50.0, 50.0, 401),
            [-1e3, 1e3, -1e-300, 1e-300, -5e-324, 5e-324, 0.0, -0.0, 1e-12, -1e-12],
            np.random.default_rng(0).standard_normal(500) * 4.0,
        ]
    )


@pytest.mark.parametrize("df", range(1, 12))
def test_stdtr_is_t_cdf_bytewise(df):
    for t_stat in t_grid():
        expected = np.float64(stats.t.cdf(t_stat, df=df))
        assert np.float64(special.stdtr(df, t_stat)).tobytes() == expected.tobytes()


def t_cdf_posterior(loo_errors, requirement, n_unsensed):
    """The posterior as written with ``scipy.stats`` before the swap."""
    n = loo_errors.size
    mean = float(loo_errors.mean())
    std = float(loo_errors.std(ddof=1))
    standard_error = std / np.sqrt(n_unsensed) + std / np.sqrt(n)
    t_stat = (requirement.epsilon - mean) / standard_error
    return float(stats.t.cdf(t_stat, df=n - 1))


def test_continuous_posterior_matches_t_cdf():
    rng = np.random.default_rng(1)
    requirement = QualityRequirement(epsilon=0.5, p=0.9, metric="mae")
    for _ in range(300):
        n = int(rng.integers(2, 13))
        loo_errors = np.abs(rng.standard_normal(n)) * rng.uniform(0.05, 2.0)
        n_unsensed = int(rng.integers(1, 40))
        got = LeaveOneOutBayesianAssessor._continuous_posterior(
            loo_errors, requirement, n_unsensed
        )
        assert got == t_cdf_posterior(loo_errors, requirement, n_unsensed)
