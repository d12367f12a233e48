"""Shared utilities: seeding, validation helpers, and lightweight logging.

These helpers are intentionally dependency-free (NumPy only) so that every
other subpackage can rely on them without circular imports.
"""

from repro.utils.seeding import as_rng, derive_rng
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.utils.logging import get_logger

__all__ = [
    "as_rng",
    "derive_rng",
    "check_fraction",
    "check_matrix",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "get_logger",
]
