"""Known-clean function-level imports of function-only modules (never imported)."""


def cdf(x, df):
    from scipy import special

    return special.stdtr(df, x)


def betabinom_cdf(k, n, a, b):
    from scipy import stats

    return stats.betabinom(n, a, b).cdf(k)
