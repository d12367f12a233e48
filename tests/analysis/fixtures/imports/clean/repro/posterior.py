"""Known-clean function-level imports of function-only modules (never imported)."""


def solve(a, b):
    from scipy import linalg

    return linalg.solve(a, b)


def cdf(x, df):
    # repro: allow[lazy-import-hygiene] fixture: a reasoned fallback
    from scipy import special

    return special.stdtr(df, x)
