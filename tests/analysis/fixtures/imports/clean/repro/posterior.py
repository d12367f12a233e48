"""Known-clean function-level import of a function-only module (never imported)."""

from scipy import special


def cdf(x, df):
    return special.stdtr(df, x)


def betabinom_cdf(k, n, a, b):
    from scipy import stats

    return stats.betabinom(n, a, b).cdf(k)
