"""Known-bad module-level imports of function-only modules (never imported)."""

import scipy.stats as st
from scipy import special
from scipy import stats


def cdf(x, df):
    return stats.t.cdf(x, df) + st.norm.cdf(x) + special.stdtr(df, x)
