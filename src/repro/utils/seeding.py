"""Deterministic random-number-generator helpers.

Every stochastic component in the library (dataset generators, exploration
policies, replay-buffer sampling, weight initialization) accepts either an
integer seed, a :class:`numpy.random.Generator`, or ``None``.  The helpers in
this module normalise those inputs so that experiments are reproducible end
to end while components stay decoupled: a parent seed can be split into
independent child streams without the components knowing about each other.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def as_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, or an existing generator
        which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int, or numpy Generator, got {type(seed)!r}")


def derive_rng(seed: RngLike, stream: int) -> np.random.Generator:
    """Derive an independent child generator from ``seed`` for ``stream``.

    Deriving (rather than reusing) generators keeps unrelated components from
    consuming each other's random streams, which would otherwise make results
    depend on call order.

    The child is ``SeedSequence(seed).spawn(stream + 1)[stream]``, built
    directly from its spawn key so the cost does not grow with ``stream``.
    """
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    if isinstance(seed, np.random.Generator):
        # Seed the child from the generator's bit stream deterministically.
        seed = int(seed.integers(0, 2**63 - 1))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
