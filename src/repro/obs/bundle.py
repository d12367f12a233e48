"""The :class:`Observability` bundle a session carries: registry, tracer, profiler."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.adapters import (
    ingest_learner,
    ingest_server_stats,
    ingest_solver_stats,
    ingest_training_report,
)
from repro.obs.export import render_prometheus, save_snapshot, snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer


class Observability:
    """The bundle a session carries: registry + optional tracer + optional profiler.

    Parameters
    ----------
    trace:
        Whether to collect request/batch spans (a :class:`Tracer`).
    profile:
        Whether :func:`phase` timers record while the session runs (a
        :class:`Profiler`, fed into the tracer when both are enabled).
    snapshot_every:
        If > 0, :meth:`repro.api.session.Session.serve` re-ingests server
        stats into the registry every that-many cycle barriers (the stack's
        quiescent points), so long sessions expose fresh metrics mid-run
        rather than only at the end.
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        profile: bool = False,
        snapshot_every: int = 0,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.profiler: Optional[Profiler] = (
            Profiler(tracer=self.tracer) if profile else None
        )
        self.snapshot_every = int(snapshot_every)
        self.snapshots_taken = 0

    # -- ingestion ---------------------------------------------------------------

    def observe_server(self, stats: Any) -> None:
        """Mirror a :class:`ServerStats` (and its learners) into the registry."""
        ingest_server_stats(self.registry, stats)

    def observe_solver(self, solver_stats: Any, *, backend: str = "numpy") -> None:
        """Mirror a :class:`SolverStats` into the registry."""
        ingest_solver_stats(self.registry, solver_stats, backend=backend)

    def observe_learner(self, telemetry: Any, *, learner: str = "learner-0") -> None:
        """Mirror one learner telemetry snapshot into the registry."""
        ingest_learner(self.registry, telemetry, learner=learner)

    def observe_training(self, report: Any, *, run: str = "train") -> None:
        """Mirror a :class:`TrainingReport` into the registry."""
        ingest_training_report(self.registry, report, run=run)

    def on_cycle_barrier(self, server: Any) -> None:
        """The session's barrier hook: periodic registry refresh from live stats."""
        if self.snapshot_every <= 0:
            return
        self.snapshots_taken += 1
        if self.snapshots_taken % self.snapshot_every == 0:
            self.observe_server(server.stats)

    @contextmanager
    def profiling(self) -> Iterator["Observability"]:
        """Activate the profiler (if any) for the block; no-op otherwise."""
        if self.profiler is None:
            yield self
            return
        with self.profiler.activate():
            yield self

    def finalize(self) -> None:
        """Fold profiler phase totals into the registry (call once, at the end)."""
        if self.profiler is not None:
            self.profiler.ingest(self.registry)

    # -- export ------------------------------------------------------------------

    def prometheus(self) -> str:
        """The registry as Prometheus text exposition."""
        return render_prometheus(self.registry)

    def snapshot(self) -> Dict[str, Any]:
        """The registry as a JSON-able snapshot dict."""
        return snapshot(self.registry)

    def save_prometheus(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.prometheus(), encoding="utf-8")
        return path

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        return save_snapshot(self.registry, path)

    def save_trace(self, path: Union[str, Path]) -> Path:
        if self.tracer is None:
            raise ValueError("this Observability was built with trace=False")
        return self.tracer.save(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observability(metrics={len(self.registry)}, "
            f"trace={self.tracer is not None}, profile={self.profiler is not None})"
        )
