"""repro.obs — unified metrics, request tracing, and profiling across train/serve/learn.

One package, three observational instruments:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters, gauges,
  and fixed-bucket histograms under the canonical ``repro_*`` namespaces,
  filled by the duck-typed adapters in :mod:`repro.obs.adapters`;
* :mod:`repro.obs.trace` — a :class:`Tracer` following every served request
  from submission through batch fusion to its response (a subscriber of
  the decision server's event stream), exported as Chrome trace-event JSON;
* :mod:`repro.obs.profile` — guarded :func:`phase` timers in the trainer,
  LOO, and ALS hot paths that compile to a no-op when no profiler is active.

:class:`Observability` bundles all three for
:meth:`Session.serve(obs=...) <repro.api.session.Session.serve>` /
:meth:`Session.train(obs=...) <repro.api.session.Session.train>`, and
``python -m repro.obs`` is the standalone CLI.

The package initialiser is a PEP-562 façade, like :mod:`repro.api`: it
loads only :mod:`repro.obs.profile`, whose :func:`phase` guard the trainer,
LOO and ALS hot paths import, and resolves every other export on first
access.  A process that never observes anything loads none of the metrics,
export, adapter or trace modules.

The package's contract is that it is **observational only**: it imports
nothing from the stack it watches (only :mod:`repro.utils.timing` and the
stdlib), stores no payload references, draws no RNGs, and never feeds back
into scheduling — a run with obs attached is bitwise identical to the same
run without it (asserted in ``tests/obs/``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.profile import Profiler, phase

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.obs.adapters import (
        flat_samples,
        ingest_learner,
        ingest_server_stats,
        ingest_solver_stats,
        ingest_training_report,
    )
    from repro.obs.bundle import Observability
    from repro.obs.export import (
        parse_prometheus,
        registry_from_snapshot,
        render_prometheus,
        save_snapshot,
        snapshot,
    )
    from repro.obs.metrics import (
        DEFAULT_LATENCY_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from repro.obs.trace import Tracer, validate_chrome_trace

#: Lazily resolved export -> the submodule that defines it.
_LAZY_EXPORTS = {
    "Observability": "bundle",
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "DEFAULT_LATENCY_BUCKETS": "metrics",
    "Tracer": "trace",
    "validate_chrome_trace": "trace",
    "render_prometheus": "export",
    "parse_prometheus": "export",
    "snapshot": "export",
    "save_snapshot": "export",
    "registry_from_snapshot": "export",
    "ingest_server_stats": "adapters",
    "ingest_solver_stats": "adapters",
    "ingest_learner": "adapters",
    "ingest_training_report": "adapters",
    "flat_samples": "adapters",
}

__all__ = ["Profiler", "phase", *_LAZY_EXPORTS]


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"repro.obs.{module}"), name)


def __dir__():
    return sorted(__all__)
