"""One benchmark process: set up a workload, run timed rounds, write a JSON report.

``perfbench/run.py`` starts this module in a fresh interpreter with BLAS
threads and ``PYTHONHASHSEED`` pinned; run that script, not this one.

The process times ``import`` of the program, sets the workload up (dataset
generation, component construction, set-up training and one short warm-up
round), then runs rounds, cycling through the workload's input variants,
until ``--seconds`` have passed and at least one round has repeated a
variant (or exactly ``--rounds`` rounds).  The reference kernel of
``perfbench/calibrate.py`` runs after set-up and after every round, outside
the timed regions, to scale their times to the reference host.  With
``--trace 1`` every public layer entry point is wrapped before set-up, and
the spans are written as a Chrome trace plus a per-layer table at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter
from typing import Dict, List

PERCENTILE_TAIL = 10


def tail_percentile(samples: List[float]) -> float:
    """The highest percentile (at most 99) with at least ten samples beyond it."""
    if len(samples) < 2 * PERCENTILE_TAIL:
        return 50.0
    return min(99.0, math.floor(100.0 * (1.0 - PERCENTILE_TAIL / len(samples))))


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (a whole number), interpolated as NumPy does by default."""
    return statistics.quantiles(samples, n=100, method="inclusive")[int(q) - 1]


def scaled_wall_s(rounds) -> float:
    """The rounds' summed wall time, in reference-host seconds."""
    return sum(r.wall_s * r.scale for r in rounds)


def end_to_end(rounds, variants: int) -> Dict[str, float]:
    """The end-to-end metrics of one worker's rounds.

    Every timing is first scaled to the reference host with its round's
    factor (``perfbench/calibrate.py``).  Throughput divides the rounds'
    summed work by their summed time.  The latency percentiles pool every
    decision of the run, so the tail percentile is chosen once, from the
    pooled sample count.  The cost and quality metrics pool the first
    pass; later rounds repeat it exactly.
    """
    first_pass = rounds[:variants]
    wall = scaled_wall_s(rounds)
    latencies = [sample * r.scale for r in rounds for sample in r.latencies_s]
    tail = tail_percentile(latencies)
    return {
        "train_steps_per_s": sum(r.steps for r in rounds) / wall,
        "campaign_cycles_per_s": sum(r.cycles for r in rounds) / wall,
        "decision_p50_ms": percentile(latencies, 50.0) * 1e3,
        "decision_p99_ms": percentile(latencies, tail) * 1e3,
        "decision_samples": len(latencies),
        "decision_tail_percentile": tail,
        "DEBUG_p99_round_median": statistics.median(
            percentile([x * r.scale for x in r.latencies_s], tail_percentile(r.latencies_s)) for r in rounds) * 1e3,
        "sensed_cells_per_cycle": statistics.mean(r.cost for r in first_pass),
        "quality_satisfied_fraction": sum(r.satisfied for r in first_pass)
        / sum(r.cycles for r in first_pass),
    }


def layer_metrics(
    tracing, recorder, totals, rounds, passes, setup_root, import_s
) -> Dict[str, float]:
    """Per-layer metrics: work and time per pass over the variants.

    Counts and seconds are totals over the measured rounds divided by the
    number of passes; batch sizes and staleness are means over rounds.
    Layer times are as measured, not scaled to the reference host.
    """
    def span(name: str, field: str) -> float:
        return sum(t.get(name, {}).get(field, 0) for t in totals) / passes

    def counter(name: str) -> float:
        return sum(r.counters.get(name, 0) for r in rounds) / passes

    def mean(name: str) -> float:
        return statistics.mean(r.counters.get(name, 0) for r in rounds)

    hits, misses = counter("serve.cache.hits"), counter("serve.cache.misses")
    waits = [wait for r in rounds for wait in r.queue_waits_s]
    setup = tracing.span_totals(recorder.spans, setup_root)
    return {
        "inference.complete_batch.calls": span("inference.complete_batch", "calls"),
        "inference.complete_batch.matrices": span("inference.complete_batch", "count"),
        "inference.complete_batch.busy_s": span("inference.complete_batch", "busy_s"),
        "inference.als.sweeps": counter("inference.als.sweeps"),
        "quality.assess_many.calls": span("quality.assess_many", "calls"),
        "quality.assess_many.requests": span("quality.assess_many", "count"),
        "quality.assess_many.self_s": span("quality.assess_many", "self_s"),
        "quality.oracle.busy_s": span("quality.oracle", "busy_s"),
        "serve.run_pending.calls": span("serve.run_pending", "calls"),
        "serve.run_pending.self_s": span("serve.run_pending", "self_s"),
        "serve.batch_size.select": mean("serve.batch_size.select"),
        "serve.batch_size.assess": mean("serve.batch_size.assess"),
        "serve.batch_size.learn": mean("serve.batch_size.learn"),
        "serve.queue_wait_ms": percentile(waits, 50.0) * 1e3 if waits else 0.0,
        "serve.cache.lookups": hits + misses,
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.self_s": span("serve.cache", "self_s"),
        "rl.select_actions.calls": span("rl.select_actions", "calls"),
        "rl.select_actions.rows": span("rl.select_actions", "count"),
        "rl.select_actions.busy_s": span("rl.select_actions", "busy_s"),
        "rl.train_loop.self_s": span("rl.train_loop", "self_s"),
        "rl.replay.busy_s": span("rl.replay", "busy_s"),
        "nn.predict.calls": span("nn.predict", "calls"),
        "nn.predict.rows": span("nn.predict", "count"),
        "nn.predict.busy_s": span("nn.predict", "busy_s"),
        "nn.train_on_batch.calls": span("nn.train_on_batch", "calls"),
        "nn.train_on_batch.busy_s": span("nn.train_on_batch", "busy_s"),
        "mcs.env_step.self_s": span("mcs.env_step", "self_s"),
        "mcs.campaign.self_s": span("mcs.campaign", "self_s"),
        "learner.ingest.calls": span("learner.ingest", "calls"),
        "learner.ingest.transitions": span("learner.ingest", "count"),
        "learner.ingest.busy_s": span("learner.ingest", "busy_s"),
        "learner.publishes": counter("learner.publishes"),
        "learner.mean_versions_behind": mean("learner.mean_versions_behind"),
        "datasets.generate_s": setup.get("datasets.generate", {}).get("busy_s", 0.0),
        "import_s": import_s,
        "unattributed_share": span(tracing.ROUND, "self_s") / span(tracing.ROUND, "busy_s"),
    }


def versions() -> Dict[str, str]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0, help="exact round count (0: timed)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--artifacts", type=Path, help="file prefix for trace artifacts")
    args = parser.parse_args(argv)

    started = perf_counter()
    from perfbench import calibrate, tracing, workloads

    import_s = perf_counter() - started

    recorder = tracing.SpanRecorder() if args.trace else None
    if recorder is not None:
        tracing.install(recorder)
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, recorder)
    setup_root = len(recorder.spans) if recorder is not None else -1
    with recorder.span(tracing.SETUP) if recorder is not None else contextlib.nullcontext():
        workload.setup()
        workload.run_round(0, warmup=True)
    report: Dict[str, object] = {"ready_monotonic": monotonic(), "import_s": import_s}
    # Outside the set-up time: the host speed right after set-up scales it.
    before = calibrate.kernel_s()
    report["setup_scale"] = calibrate.scale(before, before)
    if args.setup_only:
        args.result.write_text(json.dumps(report), encoding="utf-8")
        return 0

    rounds = []
    roots = []
    deadline = perf_counter() + args.seconds
    while True:
        round_ = workload.run_round(len(rounds) % size.variants)
        after = calibrate.kernel_s()
        round_.scale = calibrate.scale(before, after)
        before = after
        rounds.append(round_)
        roots.append(workload.round_span)
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        elif len(rounds) > size.variants and perf_counter() >= deadline:
            break
    # Per-layer work is reported per pass, over the complete passes only.
    passes = len(rounds) // size.variants
    complete = passes * size.variants

    report.update(
        rounds=len(rounds),
        variants=size.variants,
        round_walls_s=[r.wall_s for r in rounds],
        round_scales=[r.scale for r in rounds],
        scaled_wall_s=scaled_wall_s(rounds),
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        problems=sorted({problem for r in rounds for problem in r.problems}),
        outputs=[r.outputs for r in rounds],
        metrics=end_to_end(rounds, size.variants),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        als_backend=workloads.SMALL_SCALE.inference().backend,
        versions=versions(),
    )
    if recorder is not None:
        totals = [tracing.span_totals(recorder.spans, root) for root in roots[:complete]]
        report["layers"] = layer_metrics(
            tracing, recorder, totals, rounds[:complete], passes, setup_root, import_s
        )
        report["layer_table"] = tracing.layer_table(totals, passes)
        if args.artifacts is not None:
            origin = recorder.spans[0][tracing.START] if recorder.spans else 0.0
            Path(f"{args.artifacts}.trace.json").write_text(
                json.dumps(tracing.chrome_trace(recorder.spans, origin)), encoding="utf-8"
            )
        recorder.unwrap_all()
    args.result.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
