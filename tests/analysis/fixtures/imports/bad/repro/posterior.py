"""Known-bad module-level imports of a function-only module (never imported)."""

import scipy.stats as st
from scipy import stats


def cdf(x, df):
    return stats.t.cdf(x, df) + st.norm.cdf(x)
