"""Known-bad function-level imports of unimported packages (never imported)."""


def t_cdf(x, df):
    from scipy import special

    return special.stdtr(df, x)


def log_beta(a, b):
    from scipy.special import betaln

    return betaln(a, b)


def betabinom_cdf(k, n, a, b):
    import scipy.stats

    return scipy.stats.betabinom(n, a, b).cdf(k)
