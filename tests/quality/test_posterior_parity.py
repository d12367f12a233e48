"""The continuous LOO posterior is the Student-t CDF, byte for byte.

``LeaveOneOutBayesianAssessor`` evaluates the t CDF with
``scipy.special.stdtr``, the function ``scipy.stats.t.cdf`` calls
internally, so the package does not load ``scipy.stats`` at import time.
These tests pin that the two agree to the last bit over the degrees of
freedom the assessor can produce (``max_loo_cells`` up to 12 gives df 1-11),
and that the row-wise posterior of a pooled call gives every slot the bytes
of its one-row posterior.

Serving processes call the t CDF and ``betaln`` through
``repro.quality._scipy_kernels``, loaded without the ``scipy.special``
package; the last tests pin those kernels to ``scipy.special``'s bytes and
check that a failed standalone load falls back to the package.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy import special, stats

from repro.inference.base import InferenceAlgorithm
from repro.quality import _scipy_kernels
from repro.quality.epsilon_p import QualityRequirement
from repro.quality.loo_bayesian import LeaveOneOutBayesianAssessor, _betabinom_cdf

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


def one_row_posterior(loo_errors, epsilon, n_unsensed):
    """The scalar posterior the row-wise one replaced, rule for rule."""
    n = loo_errors.size
    mean = float(loo_errors.mean())
    if n == 1:
        return 1.0 if mean <= epsilon else 0.0
    std = float(loo_errors.std(ddof=1))
    standard_error = std / np.sqrt(n_unsensed) + std / np.sqrt(n)
    if standard_error <= 1e-12:
        return 1.0 if mean <= epsilon else 0.0
    return float(special.stdtr(n - 1, (epsilon - mean) / standard_error))


@pytest.mark.parametrize("n", range(1, 13))
def test_row_wise_posteriors_match_one_row(n):
    """Each row of one ``(slots, n)`` call has the bytes of that row alone:
    mixed ε and unsensed counts, constant rows (zero standard error),
    standard errors either side of 1e-12 and both signs of t."""
    rng = np.random.default_rng(100 + n)
    rows = 60
    loo_errors = np.abs(rng.standard_normal((rows, n))) * rng.uniform(0.01, 3.0, (rows, 1))
    loo_errors[::7] = rng.uniform(0.0, 1.0, (len(loo_errors[::7]), 1))  # constant rows
    # Standard errors straddling the 1e-12 cut-off.
    loo_errors[3::7] = 0.4 + rng.standard_normal((len(loo_errors[3::7]), n)) * 10.0 ** (
        rng.uniform(-14.0, -10.0, (len(loo_errors[3::7]), 1))
    )
    epsilons = rng.choice([0.05, 0.3, 0.5, 1.0, 2.5], rows)
    n_unsensed = rng.integers(1, 50, rows)
    got = LeaveOneOutBayesianAssessor._continuous_posteriors(loo_errors, epsilons, n_unsensed)
    expected = [
        one_row_posterior(row.copy(), float(epsilon), int(unsensed))
        for row, epsilon, unsensed in zip(loo_errors, epsilons, n_unsensed)
    ]
    assert got.tobytes() == np.array(expected).tobytes()
    if n > 1:
        # t of both signs occurs.
        assert ((0.0 < got) & (got < 0.5)).any() and ((0.5 < got) & (got < 1.0)).any()


class RowMeanInference(InferenceAlgorithm):
    """Fills each missing entry with its row's observed mean: deterministic
    per matrix, so a pooled call and a reference loop see the same values."""

    def _complete(self, matrix, mask):
        counts = mask.sum(axis=1, keepdims=True)
        means = np.where(mask, matrix, 0.0).sum(axis=1, keepdims=True) / np.maximum(counts, 1)
        return np.broadcast_to(means, matrix.shape).copy()


def reference_probability(observed, cycle, requirement, assessor, rng, inference):
    """One slot's LOO posterior, assembled window by window."""
    window = observed[:, max(0, cycle + 1 - assessor.history_window) : cycle + 1]
    current = window.shape[1] - 1
    sensed = np.flatnonzero(~np.isnan(window[:, current]))
    if sensed.size < assessor.min_observations:
        return 0.0
    if sensed.size == window.shape[0]:
        return 1.0
    if sensed.size > assessor.max_loo_cells:
        cells = rng.choice(sensed, size=assessor.max_loo_cells, replace=False)
    else:
        cells = sensed
    errors = []
    for cell in cells:
        held_out = window.copy()
        held_out[cell, current] = np.nan
        predicted = float(inference.complete(held_out)[cell, current])
        errors.append(abs(predicted - window[cell, current]))
    return one_row_posterior(
        np.asarray(errors), requirement.epsilon, window.shape[0] - sensed.size
    )


def test_pooled_call_with_mixed_n_and_epsilon_matches_one_row():
    """One ``probabilities_error_below`` call whose slots differ in LOO
    sample size, ε and window width — and include replicas — gives each
    slot the bytes of its own one-row posterior."""
    rng = np.random.default_rng(7)
    inference = RowMeanInference()
    field = rng.standard_normal((14, 1)) + 0.4 * rng.standard_normal((14, 30))
    slots = []
    for sensed_count in (2, 3, 5, 8, 9, 13, 14):
        for cycle in (6, 29):
            observed = np.where(rng.random(field.shape) < 0.6, field, np.nan)
            observed[:, cycle] = np.nan
            chosen = rng.choice(14, size=sensed_count, replace=False)
            observed[chosen, cycle] = field[chosen, cycle]
            slots.append((observed, cycle))
    # The same windows again: replicas, and (subsampled from their own
    # streams) same windows with other held-out cells.
    slots += slots[:4] + slots[8:10]
    requirements = [
        QualityRequirement(epsilon=float(epsilon), p=0.9, metric="mae")
        for epsilon in rng.choice([0.1, 0.4, 0.8, 2.0], len(slots))
    ]
    seeds = range(len(slots))
    assessor = LeaveOneOutBayesianAssessor(min_observations=3, max_loo_cells=8, history_window=10)
    pooled = assessor.probabilities_error_below(
        [observed for observed, _ in slots],
        [cycle for _, cycle in slots],
        requirements,
        inference,
        rngs=[np.random.default_rng(seed) for seed in seeds],
    )
    expected = [
        reference_probability(
            observed, cycle, requirement, assessor, np.random.default_rng(seed), inference
        )
        for (observed, cycle), requirement, seed in zip(slots, requirements, seeds)
    ]
    assert np.array(pooled).tobytes() == np.array(expected).tobytes()
    assert len(set(pooled)) > 4


# -- the standalone kernels -------------------------------------------------


@pytest.fixture(scope="module")
def standalone():
    """The kernels as a process without ``scipy.special`` loads them."""
    return _scipy_kernels.load_standalone()


def test_standalone_kernels_load_exactly_when_scipy_exports_them():
    """Checked against SciPy's own tables, so a SciPy that moved a kernel
    fails here instead of falling back silently."""
    from scipy.special import _special_ufuncs, _ufuncs_cxx

    exported = "_export_t_cdf_double" in getattr(_ufuncs_cxx, "__pyx_capi__", {}) and isinstance(
        getattr(_special_ufuncs, "betaln", None), np.ufunc
    )
    try:
        kernels = _scipy_kernels.load_standalone()
    except Exception:
        kernels = None
    assert (kernels is not None) == exported
    assert kernels is None or kernels.standalone


@pytest.mark.parametrize("df", range(1, 64))
def test_standalone_t_cdf_is_stdtr_bytewise(standalone, df):
    grid = t_grid()
    assert standalone.stdtr(df, grid).tobytes() == special.stdtr(df, grid).tobytes()


def betabinom_betaln_arguments():
    """Every ``betaln`` argument pair ``_betabinom_cdf`` forms for LOO sample
    sizes n ≤ 12 (any number of misses) and up to 60 unsensed cells."""
    firsts, seconds = [], []
    for n in range(1, 13):
        for misses in range(n + 1):
            alpha, beta = 0.5 + misses, 0.5 + (n - misses)
            for n_unsensed in range(1, 61):
                m = np.arange(n_unsensed, dtype=float)  # every k < n_unsensed
                firsts += [n_unsensed - m + 1, m + alpha, [alpha]]
                seconds += [m + 1, n_unsensed - m + beta, [beta]]
    pairs = np.unique(np.column_stack([np.concatenate(firsts), np.concatenate(seconds)]), axis=0)
    return pairs[:, 0], pairs[:, 1]


def test_standalone_betaln_is_special_betaln_bytewise(standalone):
    a, b = betabinom_betaln_arguments()
    assert a.size > 4_000
    assert standalone.betaln(a, b).tobytes() == special.betaln(a, b).tobytes()


def posterior_bytes():
    """Continuous and classification posteriors through whichever kernels load."""
    rng = np.random.default_rng(3)
    loo_errors = np.abs(rng.standard_normal((40, 6))) * rng.uniform(0.05, 2.0, (40, 1))
    continuous = LeaveOneOutBayesianAssessor._continuous_posteriors(
        loo_errors, rng.choice([0.3, 0.8, 1.5], 40), rng.integers(1, 50, 40)
    )
    classification = [
        _betabinom_cdf(k, n_unsensed, 0.5 + misses, 0.5 + 8 - misses)
        for k, n_unsensed, misses in [(0, 5, 0), (2, 9, 3), (4, 40, 1), (11, 60, 8)]
    ]
    return continuous.tobytes() + np.array(classification).tobytes()


def test_posteriors_are_the_same_bytes_through_standalone_kernels(monkeypatch, standalone):
    package = _scipy_kernels.Kernels(special.stdtr, special.betaln, standalone=False)
    monkeypatch.setattr(_scipy_kernels, "_KERNELS", package)
    expected = posterior_bytes()
    monkeypatch.setattr(_scipy_kernels, "_KERNELS", standalone)
    assert posterior_bytes() == expected


@pytest.mark.parametrize(
    "constant, value, error",
    [
        ("T_CDF_MODULE", "scipy.special._no_such_extension", ImportError),
        ("T_CDF_CAPSULE", "_export_no_such_capsule", KeyError),
        ("CAPSULE_NAME", b"double (double, double)", ValueError),
        ("T_CDF_PIN", (3.0, 1.0, 0.8044988905221147), ValueError),
        ("BETALN_MODULE", "scipy.special._no_such_extension", ImportError),
    ],
    ids=["missing_module", "missing_capsule", "wrong_capsule_name", "wrong_pin", "missing_betaln"],
)
def test_failed_standalone_load_falls_back_to_the_package(monkeypatch, constant, value, error):
    """A SciPy whose private layout moved costs memory, never bytes: with
    the loader made to fail, ``kernels()`` answers from ``scipy.special``."""
    expected = posterior_bytes()
    monkeypatch.setattr(_scipy_kernels, constant, value)
    with pytest.raises(error):
        _scipy_kernels.load_standalone()
    # As in a process that has not imported the package: a fresh load that
    # tries the standalone kernels first.
    monkeypatch.setattr(_scipy_kernels, "_KERNELS", None)
    monkeypatch.delitem(sys.modules, "scipy.special")
    kernels = _scipy_kernels.kernels()
    assert not kernels.standalone
    assert kernels.stdtr is special.stdtr and kernels.betaln is special.betaln
    assert posterior_bytes() == expected
