"""The obs metrics core: counters, gauges, histograms in one string-keyed registry.

The serving stack's telemetry grew organically — :class:`~repro.serve.stats.
ServerStats` counters, :class:`~repro.inference.als.SolverStats`,
:meth:`~repro.learner.core.Learner.telemetry` — each speaking its own
dialect.  This module is the convergence point: a
:class:`MetricsRegistry` holds every metric under one ``repro_*`` namespace
(``repro_serve_*``, ``repro_als_*``, ``repro_learner_*``, ``repro_train_*``),
string-keyed exactly like :class:`repro.api.registry.Registry` keys
components, and the exporters in :mod:`repro.obs.export` render it as
Prometheus text exposition or a JSON snapshot.

Three metric types cover everything the stack reports:

* :class:`Counter` — a monotonically increasing total (requests served,
  cache hits).  ``set_total`` exists because most of the stack already keeps
  its own counters; adapters *mirror* those into the registry rather than
  double-count.
* :class:`Gauge` — a value that goes up and down (replay occupancy, weight
  version, steps/s).
* :class:`Histogram` — observations bucketed into **fixed** upper-bound
  edges chosen at construction (Prometheus-style cumulative buckets plus
  ``sum``/``count``).  Fixed edges keep two runs' histograms structurally
  identical regardless of what latencies they saw.

Every metric supports Prometheus-style labels, passed as keyword arguments
to ``labels(...)``; a label set is stored as a sorted tuple so iteration
order — and therefore every exported snapshot — is deterministic.

All timing that feeds these metrics routes through
:func:`repro.utils.timing.monotonic` (see :meth:`Histogram.time`), so tests
under :func:`repro.utils.timing.fake_clock` can assert histogram contents
exactly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.utils.timing import monotonic

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram edges for second-scale latencies: sub-millisecond batch
#: handlers up through multi-second full-campaign phases.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonicalise a label mapping: sorted, stringified, hashable."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(
            f"metric name must be a non-empty [a-zA-Z0-9_] string, got {name!r}"
        )
    return name


class Metric:
    """Base class: a named metric holding one series per label set."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = str(help)
        # Label-set key -> series value; insertion order is never relied on
        # (samples() sorts), so snapshots are deterministic.
        self._series: Dict[_LabelKey, object] = {}

    def _series_for(self, labels: Mapping[str, object]) -> object:
        key = _label_key(labels)
        if key not in self._series:
            self._series[key] = self._new_series()
        return self._series[key]

    def _new_series(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> Iterator[Tuple[_LabelKey, object]]:
        """``(label_key, value)`` pairs in sorted label order (deterministic)."""
        for key in sorted(self._series):
            yield key, self._series[key]

    def reset(self) -> None:
        """Drop every series — used by adapters that mirror a rolling window."""
        self._series.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(Metric):
    """A monotonically non-decreasing total."""

    type_name = "counter"

    def _new_series(self) -> List[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        cell = self._series_for(labels)
        cell[0] += float(amount)  # type: ignore[index]

    def set_total(self, total: float, **labels: object) -> None:
        """Mirror an externally kept running total (must not regress)."""
        cell = self._series_for(labels)
        if total < cell[0]:  # type: ignore[index]
            raise ValueError(
                f"counter {self.name} cannot regress from {cell[0]} to {total}"  # type: ignore[index]
            )
        cell[0] = float(total)  # type: ignore[index]

    def value(self, **labels: object) -> float:
        """The labelled series' current total (0 if never touched)."""
        return float(self._series.get(_label_key(labels), [0.0])[0])  # type: ignore[index]


class Gauge(Metric):
    """A value that can go up and down."""

    type_name = "gauge"

    def _new_series(self) -> List[float]:
        return [0.0]

    def set(self, value: float, **labels: object) -> None:
        cell = self._series_for(labels)
        cell[0] = float(value)  # type: ignore[index]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        cell = self._series_for(labels)
        cell[0] += float(amount)  # type: ignore[index]

    def value(self, **labels: object) -> float:
        return float(self._series.get(_label_key(labels), [0.0])[0])  # type: ignore[index]


class _HistogramSeries:
    """Cumulative bucket counts + sum/count for one label set."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_edges: int) -> None:
        self.counts = [0] * n_edges  # per-edge (non-cumulative) counts
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Observations bucketed into fixed upper-bound edges.

    Parameters
    ----------
    name, help:
        As for every metric.
    buckets:
        Strictly increasing finite upper bounds.  An implicit ``+Inf``
        bucket catches everything above the last edge (Prometheus
        convention).  The edges are frozen at construction — fixed edges
        are what make two runs' histograms structurally comparable.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must be strictly increasing, got {edges}")
        self.buckets = edges

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.buckets) + 1)  # +1 for the +Inf bucket

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labelled series."""
        series = self._series_for(labels)
        value = float(value)
        index = len(self.buckets)  # the +Inf bucket
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        series.counts[index] += 1  # type: ignore[union-attr]
        series.sum += value  # type: ignore[union-attr]
        series.count += 1  # type: ignore[union-attr]

    def time(self, **labels: object):
        """Context manager observing the elapsed :func:`monotonic` seconds."""
        return _HistogramTimer(self, labels)

    def series(self, **labels: object) -> Optional[_HistogramSeries]:
        """The raw series for a label set (None if never observed)."""
        return self._series.get(_label_key(labels))  # type: ignore[return-value]

    def cumulative_counts(self, **labels: object) -> List[int]:
        """Prometheus-style cumulative counts per edge (plus +Inf last)."""
        series = self.series(**labels)
        if series is None:
            return [0] * (len(self.buckets) + 1)
        out: List[int] = []
        running = 0
        for count in series.counts:
            running += count
            out.append(running)
        return out


class _HistogramTimer:
    """``with histogram.time(...):`` — observes elapsed monotonic seconds."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Mapping[str, object]) -> None:
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = monotonic()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(monotonic() - self._start, **self._labels)


class MetricsRegistry:
    """A string-keyed registry of metrics, mirroring :class:`repro.api.registry.Registry`.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the metric, later calls return the same object (and
    reject a type or help-text mismatch — one name, one meaning).  Iteration
    and every exported snapshot are in sorted-name order, so a registry's
    rendering is a pure function of its contents.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- get-or-create -----------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.type_name}, not a histogram"
                )
            if existing.buckets != tuple(float(edge) for edge in buckets):
                raise ValueError(
                    f"histogram {name!r} is already registered with edges "
                    f"{existing.buckets}; edges are fixed at first registration"
                )
            return existing
        metric = Histogram(name, help, buckets=buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls: type, name: str, help: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TypeError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.type_name}, not a {cls.type_name}"  # type: ignore[attr-defined]
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> Metric:
        """The registered metric named ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def names(self) -> Tuple[str, ...]:
        """Registered metric names, sorted."""
        return tuple(sorted(self._metrics))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._metrics)} metric(s))"
