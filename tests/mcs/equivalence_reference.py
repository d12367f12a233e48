"""The pairwise pooling predicates ``repro.serve.cache.pool_key`` is held to.

Before the component key existed, pooling asked "are these two components
interchangeable?" pair by pair: the vector env compared a tuple of ALS
solver parameters, and the campaign compared every other attribute with
``_same_attributes``, skipping the solver parameters and the frozen init
seed.  Those predicates live on here, unchanged, as the reference the
``pool_key`` partition is compared against in ``test_pool_key.py``, next to
the completion cache's old ``vars()`` walk, which ``config_key`` must still
reproduce for flat components (checkpointed cache entries hold it).  One
divergence is intended: a nested object without a value-based ``__eq__``
(a committee container) only matched itself here, while ``pool_key`` keys
it by its configuration.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.inference.als import SolverStats
from repro.serve.cache import matrix_fingerprint


def same_attributes(a, b, *, skip: frozenset = frozenset()) -> bool:
    """Attribute-wise equality of two same-type component instances.

    RNG state (``numpy.random.Generator`` attributes) and
    :class:`~repro.inference.als.SolverStats` telemetry are ignored; arrays
    compare by value; everything else by ``==``.
    """
    state_a, state_b = vars(a), vars(b)
    if set(state_a) != set(state_b):
        return False
    for key, value_a in state_a.items():
        if key in skip:
            continue
        value_b = state_b[key]
        if isinstance(value_a, (np.random.Generator, SolverStats)) or isinstance(
            value_b, (np.random.Generator, SolverStats)
        ):
            continue
        if isinstance(value_a, np.ndarray) or isinstance(value_b, np.ndarray):
            if not (
                isinstance(value_a, np.ndarray)
                and isinstance(value_b, np.ndarray)
                and value_a.shape == value_b.shape
                and np.array_equal(value_a, value_b)
            ):
                return False
        elif value_a != value_b:
            return False
    return True


def solver_equivalent(a, b) -> bool:
    """The vector env's check: same type and the same ALS solver parameters."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    solver_params = ("rank", "regularization", "temporal_weight", "iterations")
    return all(
        getattr(a, name, None) == getattr(b, name, None) for name in solver_params
    )


def equivalent_inference(a, b) -> bool:
    """The campaign's check: the solver check plus every other attribute."""
    if a is b:
        return True
    if not solver_equivalent(a, b):
        return False
    skip = frozenset(("rank", "regularization", "temporal_weight", "iterations", "_init_seed"))
    return same_attributes(a, b, skip=skip)


def equivalent_assessor(a, b) -> bool:
    """Same assessor class with equal configuration (and ground truth)."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    return same_attributes(a, b)


def group_by_equivalence(items, equivalent) -> List[List]:
    """Partition ``items`` by ``equivalent`` to each group's first member."""
    groups: List[List] = []
    for item in items:
        for group in groups:
            if equivalent(group[0], item):
                group.append(item)
                break
        else:
            groups.append([item])
    return groups


def flat_fingerprint(component) -> str:
    """The completion cache's old key: type plus ``repr`` of every attribute."""
    parts = [f"{type(component).__module__}.{type(component).__qualname__}"]
    for key in sorted(vars(component)):
        value = vars(component)[key]
        if isinstance(value, (np.random.Generator, SolverStats)):
            continue
        if isinstance(value, np.ndarray):
            parts.append(f"{key}={matrix_fingerprint(value)}")
        else:
            parts.append(f"{key}={value!r}")
    return "|".join(parts)
