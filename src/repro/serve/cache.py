"""Completion caching: skip ALS when the same partial matrix comes back.

Matrix completion is deterministic — :class:`~repro.inference.compressive.
CompressiveSensingInference` freezes its initialisation seed — and in a
stack of one width the batched solver's per-slot result does not depend, by
a single byte, on which other matrices share the stack.  A width-padded
stack (same cell count, more cycles) may round differently, within 2e-12
relative.
A cache hit returns the bytes of the solve that filled the entry: a
recomputation in a same-width batch gives the same bytes, one in a padded
batch agrees to float rounding.  Campaigns hit the same (inference
configuration, partial matrix) pair repeatedly: the LOO assessment of a
cycle re-completes held-out variants of one window, and multi-policy
comparisons (or replicated A/B campaigns) assess *identical* partial
matrices from different campaign slots.  :class:`CompletionCache`
memoises those completions under an LRU policy and
:class:`CachingInference` wraps any :class:`~repro.inference.base.
InferenceAlgorithm` so every ``complete``/``complete_batch`` call consults
the cache first — including a within-batch deduplication pass, so a pooled
batch carrying the same matrix K times solves it once.

Keys are content fingerprints, not object identities: the matrix fingerprint
hashes the shape and the raw float64 bytes (the NaN mask is part of the
bytes, so equal masks with different observed values cannot collide), and
the inference's :func:`config_key` spells out the algorithm's type and
configuration attributes (RNG objects excluded, arrays hashed by content,
nested components by their own key).  Two differently-seeded but
equivalently-configured ALS instances still key differently (``_init_seed``
is an attribute), because their completions *are* different; only
:func:`pool_key`, which decides who may share one batched solve, drops the
seed.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.inference.als import SolverStats
from repro.inference.base import InferenceAlgorithm
from repro.utils.validation import check_positive_int

#: Cache key: (inference config key, matrix fingerprint).
CacheKey = Tuple[str, str]


@functools.lru_cache(maxsize=256)
def _shape_digest(shape: Tuple[int, ...]) -> "hashlib._Hash":
    """A digest already fed the shape's ``repr``; callers update a copy."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(shape).encode("ascii"))
    return digest


def matrix_fingerprint(matrix: np.ndarray) -> str:
    """Content fingerprint of a (possibly partial) float matrix.

    The digest covers the shape and the raw float64 bytes, so two matrices
    collide only when they are bitwise identical — same NaN pattern *and*
    same observed values.  The bytes are hashed from the C-ordered array's
    buffer, without a copy when it already is one.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    digest = _shape_digest(matrix.shape).copy()
    digest.update(matrix)
    return digest.hexdigest()


#: Each component's (config_key, pool_key), computed the first time it is
#: seen: configuration is frozen after construction.  Weak keys, so a freed
#: component's entry goes with it and a reused address inherits nothing.
_KEYS: "weakref.WeakKeyDictionary[Any, Tuple[str, str]]" = weakref.WeakKeyDictionary()


def config_key(component: Any) -> str:
    """The configuration identity of an inference algorithm or assessor.

    The type plus every instance attribute except RNG objects and
    :class:`~repro.inference.als.SolverStats` telemetry (neither changes
    what the component computes).  Arrays (KNN coordinates, oracle ground
    truth) are keyed by content, nested components (a committee and its
    members) by their own key, never by an address-bearing ``repr``.
    Instances with equal configuration therefore share cached completions,
    while any attribute difference — including a frozen initialisation
    seed — keeps them apart.
    """
    keys = _KEYS.get(component)
    if keys is not None:
        return keys[0]
    kind = f"{type(component).__module__}.{type(component).__qualname__}"
    shared = getattr(type(component), "batch_shared", ())
    parts, pooled = [kind], [kind]
    for key in sorted(vars(component)):
        value = vars(component)[key]
        if isinstance(value, (np.random.Generator, SolverStats)):
            continue
        parts.append(f"{key}={_render(value)}")
        if key not in shared:
            pooled.append(parts[-1])
    keys = ("|".join(parts), "|".join(pooled))
    _KEYS[component] = keys
    return keys[0]


def pool_key(component: Any) -> str:
    """:func:`config_key` minus the class's ``batch_shared`` attributes.

    Components with equal pool keys answer a pooled ``assess_many`` or
    ``complete_batch`` call interchangeably.  Only
    :class:`~repro.inference.compressive.CompressiveSensingInference`
    declares ``batch_shared``: its ``_init_seed``, because a batched solve
    starts every slot from the lead's factors.
    """
    config_key(component)
    return _KEYS[component][1]


def _render(value: Any) -> str:
    """One attribute value as it appears in a :func:`config_key`."""
    if isinstance(value, np.ndarray):
        return matrix_fingerprint(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(item) for item in value) + "]"
    # A bare ``InferenceAlgorithm`` repr names only the class, and the
    # default ``object`` repr is an address a freed instance hands on.
    if isinstance(value, InferenceAlgorithm) or (
        type(value).__repr__ is object.__repr__ and hasattr(value, "__dict__")
    ):
        return f"<{config_key(value)}>"
    return repr(value)


class CompletionCache:
    """An LRU cache of completed matrices keyed by content fingerprints.

    Parameters
    ----------
    capacity:
        Maximum number of completed matrices kept; the least recently *used*
        entry is evicted first.  Every ``get`` hit refreshes recency.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = check_positive_int(capacity, "capacity")
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """The cached completion for ``key`` (a defensive copy), or ``None``.

        Updates the hit/miss counters and the LRU recency.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.copy()

    def put(self, key: CacheKey, value: np.ndarray) -> None:
        """Store a completion (a defensive copy), evicting LRU entries if full."""
        self._entries[key] = np.asarray(value, dtype=float).copy()
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[CacheKey]:
        """Current keys in LRU order (oldest first); mainly for tests."""
        return list(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (NaN before any lookup)."""
        total = self.hits + self.misses
        if total == 0:
            return float("nan")
        return self.hits / total

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    # -- round-tripping ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable cache state: entries in LRU order plus the counters.

        Keys are (fingerprint, fingerprint) string tuples and values float64
        matrices, so the whole cache round-trips through JSON exactly (the
        arrays are byte-encoded by :mod:`repro.utils.statedict`); restoring
        preserves the LRU recency order, hence future eviction decisions.
        """
        from repro.utils.statedict import encode_array

        return {
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "entries": [
                [list(key), encode_array(value)]
                for key, value in self._entries.items()
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output, replacing current contents."""
        from repro.utils.statedict import decode_array

        if int(state["capacity"]) != self.capacity:  # type: ignore[arg-type]
            raise ValueError(
                f"checkpoint cache capacity {state['capacity']} does not match "
                f"this cache's capacity {self.capacity}"
            )
        self._entries = OrderedDict(
            ((str(key[0]), str(key[1])), decode_array(value))
            for key, value in state["entries"]  # type: ignore[union-attr]
        )
        self.hits = int(state["hits"])  # type: ignore[arg-type]
        self.misses = int(state["misses"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompletionCache({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


class CachingInference(InferenceAlgorithm):
    """Wrap an inference algorithm so completions go through a :class:`CompletionCache`.

    The wrapper is transparent to callers — it satisfies the
    :class:`~repro.inference.base.InferenceAlgorithm` interface, proxies
    ``supports_batch_completion`` so batching probes keep working, and
    returns what the wrapped algorithm would return: a cache hit is bitwise
    identical to a recomputation in a same-width batch, and within 2e-12
    relative of one in a width-padded batch (see the module docstring).

    ``complete_batch`` additionally deduplicates *within* the batch: a pooled
    call carrying the same partial matrix K times (replicated campaigns,
    repeated LOO windows) solves it once and fans the result out, counting
    the K−1 skipped solves as cache hits.
    """

    def __init__(self, inner: InferenceAlgorithm, cache: CompletionCache) -> None:
        if not isinstance(inner, InferenceAlgorithm):
            raise TypeError(
                f"expected an InferenceAlgorithm, got {type(inner).__name__}"
            )
        self.inner = inner
        self.cache = cache
        self.name = getattr(inner, "name", "inference")
        self._inner_key = config_key(inner)

    def _key(self, matrix: np.ndarray) -> CacheKey:
        return (self._inner_key, matrix_fingerprint(matrix))

    @property
    def supports_batch_completion(self) -> bool:
        return self.inner.supports_batch_completion

    def complete(self, matrix: np.ndarray) -> np.ndarray:
        key = self._key(matrix)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        completed = self.inner.complete(matrix)
        self.cache.put(key, completed)
        return completed

    def complete_batch(self, matrices: Sequence[np.ndarray]) -> List[np.ndarray]:
        results: List[Optional[np.ndarray]] = [None] * len(matrices)
        miss_keys: List[CacheKey] = []
        miss_indices: List[int] = []
        first_seen: Dict[CacheKey, int] = {}
        duplicates: List[Tuple[int, int]] = []  # (index, position of first miss)
        # A batch that lists the same array K times hashes it once.  The
        # memo holds each array, so no ``id`` in it is reused during the call.
        keyed: Dict[int, Tuple[np.ndarray, CacheKey]] = {}
        for index, matrix in enumerate(matrices):
            if id(matrix) not in keyed:
                keyed[id(matrix)] = (matrix, self._key(matrix))
            key = keyed[id(matrix)][1]
            if key in first_seen:
                # Same matrix earlier in this very batch: solve once, fan out.
                duplicates.append((index, first_seen[key]))
                self.cache.hits += 1
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached
                continue
            first_seen[key] = len(miss_indices)
            miss_indices.append(index)
            miss_keys.append(key)
        if miss_indices:
            completed = self.inner.complete_batch([matrices[i] for i in miss_indices])
            for key, index, result in zip(miss_keys, miss_indices, completed):
                results[index] = result
                self.cache.put(key, result)
        for index, miss_position in duplicates:
            results[index] = results[miss_indices[miss_position]].copy()
        return results  # type: ignore[return-value]

    def _complete(self, matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # Unreachable through the public interface (``complete`` is overridden),
        # but the abstract contract requires it; delegate for completeness.
        return self.inner._complete(matrix, mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CachingInference({self.inner!r})"
