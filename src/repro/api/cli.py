"""Command-line entry point for declarative scenarios.

``python -m repro.api.cli run scenario.json`` loads a
:class:`~repro.api.specs.ScenarioSpec` from JSON, trains and evaluates it
through :class:`~repro.api.session.Session`, and prints the structured
reports.  ``--scale`` constrains the scenario's effort knobs to one of the
predefined experiment scales (tiny/small/medium/full) for quick runs —
useful to smoke-test a production-sized scenario file in seconds.

``python -m repro.api.cli validate scenario.json`` parses the file, checks
every registry key resolves and every component param is one its factory
accepts, and verifies the JSON round trip is lossless without running
anything.

``python -m repro.api.cli serve scenario.json`` trains the scenario and then
runs every slot's campaign server-backed: one
:class:`~repro.serve.server.DecisionServer` serves all slots (and optional
``--replicas`` copies of them) concurrently, printing the evaluation rows
and the server's telemetry.  ``--scale`` additionally bounds the serving
knobs — the total concurrent campaign count (``scale.serve_campaigns``),
the micro-batch size (``scale.serve_max_batch``), and, for
``served_online`` slots, the central learner's publish cadence, shared
replay capacity, and minibatch (``--learner-publish-every`` /
``--learner-replay`` / ``--learner-minibatch``, each clamped at the
scale's ``learner_*`` caps).

``python -m repro.api.cli record`` is ``serve`` with a flight recorder: the
whole session — every request, flush, response, and learner weight
publication — is written to a JSON-lines journal (plus, with
``--checkpoint-after N``, a mid-flight checkpoint after N cycles).
``python -m repro.api.cli replay journal`` re-executes a recorded journal
from scratch and exits non-zero on any divergence — the bitwise
reproducibility gate CI runs against committed golden journals.
``python -m repro.api.cli resume checkpoint`` finishes a checkpointed
session, bitwise-identically to never having stopped.

``python -m repro.api.cli components`` lists every registered component key.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from repro.api.registry import ASSESSORS, DATASETS, INFERENCE, POLICIES
from repro.api.session import Session, unaccepted_parameters
from repro.api.specs import ScenarioSpec
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.reporting import format_rows
from repro.utils.logging import enable_console_logging


def load_spec(path: Path) -> ScenarioSpec:
    """Read a scenario spec from a JSON file."""
    if not path.exists():
        raise FileNotFoundError(f"no scenario file at {path}")
    return ScenarioSpec.from_json(path.read_text(encoding="utf-8"))


def constrain_to_scale(spec: ScenarioSpec, scale: ExperimentScale) -> ScenarioSpec:
    """Cap the spec's effort knobs at the given experiment scale's values.

    The scenario's *structure* (slots, datasets, requirements) is untouched;
    only training episodes, the evaluated cycle count, ALS sweeps and the
    LOO budget are clamped — at the scenario level *and* in every slot that
    pins its own inference/assessor — mirroring what the scale means in
    :mod:`repro.experiments.config`.
    """

    def clamp_inference(component):
        if component is None or component.name != "als":
            return component
        iterations = int(component.params.get("iterations", scale.als_iterations))
        return dataclasses.replace(
            component,
            params={**component.params, "iterations": min(iterations, scale.als_iterations)},
        )

    def clamp_assessor(component):
        if component is None or component.name != "loo_bayesian":
            return component
        loo = int(component.params.get("max_loo_cells", scale.max_loo_cells))
        return dataclasses.replace(
            component,
            params={**component.params, "max_loo_cells": min(loo, scale.max_loo_cells)},
        )

    episodes = spec.training.episodes
    episodes = scale.episodes if episodes is None else min(episodes, scale.episodes)
    max_test_cycles = spec.max_test_cycles
    if scale.max_test_cycles is not None:
        max_test_cycles = (
            scale.max_test_cycles
            if max_test_cycles is None
            else min(max_test_cycles, scale.max_test_cycles)
        )
    slots = tuple(
        dataclasses.replace(
            slot,
            inference=clamp_inference(slot.inference),
            assessor=clamp_assessor(slot.assessor),
        )
        for slot in spec.slots
    )
    return spec.replace(
        training=dataclasses.replace(spec.training, episodes=episodes),
        max_test_cycles=max_test_cycles,
        inference=clamp_inference(spec.inference),
        assessor=clamp_assessor(spec.assessor),
        slots=slots,
    )


def clamp_serve_knobs(
    scale: ExperimentScale,
    *,
    n_campaigns: int,
    replicas: int,
    max_batch: int,
    max_inflight: Optional[int] = None,
) -> tuple:
    """Bound the serve subcommand's knobs at a scale's serving limits.

    ``replicas`` is clamped so the total concurrent campaign count
    (``n_campaigns × replicas``) stays within ``scale.serve_campaigns``
    (never below one replica), ``max_batch`` is capped at
    ``scale.serve_max_batch``, and ``max_inflight`` — the per-campaign
    fairness cap, ``None`` meaning uncapped — at
    ``scale.serve_max_inflight``.  Returns
    ``(replicas, max_batch, max_inflight)``.
    """
    max_replicas = max(1, scale.serve_campaigns // max(1, n_campaigns))
    if max_inflight is None:
        max_inflight = scale.serve_max_inflight
    else:
        max_inflight = max(1, min(int(max_inflight), scale.serve_max_inflight))
    return (
        min(replicas, max_replicas),
        min(max_batch, scale.serve_max_batch),
        max_inflight,
    )


def clamp_learner_knobs(
    scale: ExperimentScale,
    *,
    publish_every: Optional[int] = None,
    replay_capacity: Optional[int] = None,
    minibatch: Optional[int] = None,
) -> tuple:
    """Bound the central learner's knobs at a scale's limits.

    The serve-side twin of :func:`clamp_serve_knobs` for ``served_online``
    slots: each requested knob is capped at the scale's value (and floored
    at one); ``None`` means "use the scale's value".  Returns
    ``(publish_every, replay_capacity, minibatch)`` as concrete ints.
    """

    def bound(requested: Optional[int], limit: int) -> int:
        if requested is None:
            return limit
        return max(1, min(int(requested), limit))

    return (
        bound(publish_every, scale.learner_publish_every),
        bound(replay_capacity, scale.learner_replay_capacity),
        bound(minibatch, scale.learner_minibatch),
    )


def apply_learner_knobs(
    spec: ScenarioSpec,
    *,
    steps_per_publish: Optional[int] = None,
    replay_capacity: Optional[int] = None,
    minibatch: Optional[int] = None,
) -> ScenarioSpec:
    """Cap the learner knobs of every ``served_online`` slot in the spec.

    Each non-``None`` knob acts as a ceiling: a slot that already pins a
    smaller value keeps it, a larger pin is clamped down, and an unpinned
    knob is filled in — the same semantics :func:`constrain_to_scale` uses
    for ALS iterations and the LOO budget.  Slots with other policies are
    untouched.
    """
    knobs = {
        "steps_per_publish": steps_per_publish,
        "replay_capacity": replay_capacity,
        "minibatch": minibatch,
    }
    overrides = {key: int(value) for key, value in knobs.items() if value is not None}
    if not overrides:
        return spec

    def clamp_policy(component):
        if component.name != "served_online":
            return component
        params = dict(component.params)
        for key, ceiling in overrides.items():
            pinned = params.get(key)
            params[key] = ceiling if pinned is None else min(int(pinned), ceiling)
        return dataclasses.replace(component, params=params)

    return spec.replace(
        slots=tuple(
            dataclasses.replace(slot, policy=clamp_policy(slot.policy))
            for slot in spec.slots
        )
    )


def add_serve_arguments(target: argparse.ArgumentParser) -> None:
    """The serve-session arguments shared by ``serve``, ``record``, and
    ``python -m repro.obs``."""
    target.add_argument("scenario", type=Path, help="path to a scenario .json file")
    target.add_argument(
        "--scale",
        default=None,
        help="cap effort AND serving knobs at a predefined scale (tiny/small/medium/full)",
    )
    target.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    target.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run each slot's campaign this many times (clamped by --scale)",
    )
    target.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="decision-server micro-batch size (clamped by --scale)",
    )
    target.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-campaign cap on requests in one assembled batch "
        "(default: uncapped, or the scale's cap under --scale)",
    )
    target.add_argument(
        "--learner-publish-every",
        type=int,
        default=None,
        help="weight-publish cadence for served_online slots (clamped by --scale)",
    )
    target.add_argument(
        "--learner-replay",
        type=int,
        default=None,
        help="shared replay-buffer capacity for served_online slots (clamped by --scale)",
    )
    target.add_argument(
        "--learner-minibatch",
        type=int,
        default=None,
        help="central-learner minibatch size for served_online slots (clamped by --scale)",
    )
    add_obs_arguments(target)


def add_obs_arguments(target: argparse.ArgumentParser) -> None:
    """Observability export flags (see :mod:`repro.obs`)."""
    target.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write a Chrome trace-event JSON of the served session here "
        "(load in chrome://tracing or Perfetto)",
    )
    target.add_argument(
        "--prom",
        type=Path,
        default=None,
        help="write the final metrics registry as Prometheus text exposition here",
    )
    target.add_argument(
        "--obs-json",
        type=Path,
        default=None,
        help="write the final metrics registry as a JSON snapshot here",
    )
    target.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase timings (trainer/LOO/ALS) into the metrics "
        "registry (and the trace, with --trace)",
    )
    target.add_argument(
        "--obs-snapshot-every",
        type=int,
        default=0,
        help="refresh the metrics registry from live server stats every N "
        "cycle barriers (0 = only at the end)",
    )


def build_obs(args: argparse.Namespace):
    """An :class:`repro.obs.Observability` for the parsed obs flags (or None)."""
    wants_obs = any(
        (args.trace, args.prom, args.obs_json, args.profile, args.obs_snapshot_every)
    )
    if not wants_obs:
        return None
    from repro.obs import Observability

    return Observability(
        trace=args.trace is not None,
        profile=bool(args.profile),
        snapshot_every=int(args.obs_snapshot_every),
    )


def write_obs_outputs(obs, args: argparse.Namespace) -> None:
    """Write the requested obs exports; prints one line per file."""
    if obs is None:
        return
    if args.trace is not None:
        obs.save_trace(args.trace)
        print(f"trace ({len(obs.tracer)} spans) saved to {args.trace}")
    if args.prom is not None:
        obs.save_prometheus(args.prom)
        print(f"metrics (Prometheus text) saved to {args.prom}")
    if args.obs_json is not None:
        obs.save_snapshot(args.obs_json)
        print(f"metrics (JSON snapshot) saved to {args.obs_json}")


def run_command(args: argparse.Namespace) -> int:
    spec = load_spec(args.scenario)
    if args.scale is not None:
        spec = constrain_to_scale(spec, get_scale(args.scale))
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)

    session = Session.from_spec(spec)
    training, evaluation = session.run()
    if training.rows:
        print(format_rows(training.as_dicts(), title=f"{spec.name} — training"))
        print()
    print(format_rows(evaluation.as_dicts(), title=f"{spec.name} — evaluation"))
    if args.save is not None:
        session.save(args.save)
        print(f"\nsession saved to {args.save}")
    return 0


def _resolve_serve_spec(args: argparse.Namespace) -> tuple:
    """Shared front half of ``serve`` and ``record``: the spec + resolved knobs."""
    spec = load_spec(args.scenario)
    replicas, max_batch = args.replicas, args.max_batch
    max_inflight = args.max_inflight
    learner_knobs = (args.learner_publish_every, args.learner_replay, args.learner_minibatch)
    if args.scale is not None:
        scale = get_scale(args.scale)
        spec = constrain_to_scale(spec, scale)
        replicas, max_batch, max_inflight = clamp_serve_knobs(
            scale,
            n_campaigns=len(spec.slots),
            replicas=replicas,
            max_batch=max_batch,
            max_inflight=max_inflight,
        )
        learner_knobs = clamp_learner_knobs(
            scale,
            publish_every=learner_knobs[0],
            replay_capacity=learner_knobs[1],
            minibatch=learner_knobs[2],
        )
    spec = apply_learner_knobs(
        spec,
        steps_per_publish=learner_knobs[0],
        replay_capacity=learner_knobs[1],
        minibatch=learner_knobs[2],
    )
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)
    return spec, replicas, max_batch, max_inflight


def _print_serve_report(spec, report, stats) -> None:
    print(
        format_rows(
            report.as_dicts(),
            title=f"{spec.name} — served evaluation ({len(report.rows)} campaigns)",
        )
    )
    print()
    print(format_rows(stats.rows(), title="decision server — endpoints"))
    summary = stats.as_dict()
    hit_rate = summary["cache_hit_rate"]
    print(
        f"\ncache: {summary['cache_hits']} hits / {summary['cache_misses']} misses"
        + (f" (hit rate {hit_rate})" if hit_rate is not None else "")
    )


def serve_command(args: argparse.Namespace) -> int:
    spec, replicas, max_batch, max_inflight = _resolve_serve_spec(args)
    obs = build_obs(args)
    session = Session.from_spec(spec)
    session.train(obs=obs)
    report, stats, _ = session.serve(
        replicas=replicas, max_batch=max_batch, max_inflight=max_inflight, obs=obs
    )
    _print_serve_report(spec, report, stats)
    write_obs_outputs(obs, args)
    return 0


def record_command(args: argparse.Namespace) -> int:
    """Serve a scenario with a journal attached; write journal (and checkpoint)."""
    from repro.serve import RequestJournal

    spec, replicas, max_batch, max_inflight = _resolve_serve_spec(args)
    obs = build_obs(args)
    session = Session.from_spec(spec)
    session.train(obs=obs)
    journal = RequestJournal()
    if args.checkpoint_after is not None and args.checkpoint is None:
        print("--checkpoint-after requires --checkpoint PATH", file=sys.stderr)
        return 2
    report, stats, checkpoint = session.serve(
        replicas=replicas,
        max_batch=max_batch,
        max_inflight=max_inflight,
        journal=journal,
        checkpoint_after=args.checkpoint_after,
        obs=obs,
    )
    if checkpoint is not None:
        checkpoint.save(args.checkpoint)
        print(f"checkpoint (cycle {args.checkpoint_after}) saved to {args.checkpoint}")
    journal.save(args.journal)
    print(f"journal ({len(journal.events)} events) saved to {args.journal}")
    _print_serve_report(spec, report, stats)
    write_obs_outputs(obs, args)
    return 0


def replay_command(args: argparse.Namespace) -> int:
    """Re-execute a recorded journal; exit non-zero on any divergence."""
    from repro.serve import replay_journal

    report = replay_journal(args.journal)
    print(report.summary())
    return 0 if report.ok else 1


def resume_command(args: argparse.Namespace) -> int:
    """Finish a checkpointed serving session from where it stopped."""
    from repro.serve import ServerCheckpoint

    checkpoint = ServerCheckpoint.load(args.checkpoint)
    report, stats, _ = Session.resume_serve(checkpoint)
    spec = ScenarioSpec.from_dict(checkpoint.payload["scenario"])
    _print_serve_report(spec, report, stats)
    return 0


def validate_command(args: argparse.Namespace) -> int:
    spec = load_spec(args.scenario)
    round_tripped = ScenarioSpec.from_json(spec.to_json())
    if round_tripped != spec:
        print("JSON round trip is NOT lossless", file=sys.stderr)
        return 1
    components = [(INFERENCE, spec.inference), (ASSESSORS, spec.assessor)]
    for slot in spec.slots:
        components += [
            (DATASETS, slot.dataset),
            (POLICIES, slot.policy),
            (INFERENCE, slot.inference),
            (ASSESSORS, slot.assessor),
        ]
    for registry, component in components:
        if component is None:
            continue
        unknown = unaccepted_parameters(registry, component.name, component.params)
        if unknown:
            print(
                f"{registry.kind} {component.name!r} does not accept param(s) "
                + ", ".join(unknown),
                file=sys.stderr,
            )
            return 1
    print(f"{args.scenario}: ok ({len(spec.slots)} slot(s), seed {spec.seed})")
    return 0


def components_command(args: argparse.Namespace) -> int:
    for label, registry in (
        ("datasets", DATASETS),
        ("inference", INFERENCE),
        ("policies", POLICIES),
        ("assessors", ASSESSORS),
    ):
        print(f"{label}: {', '.join(registry.names())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api.cli",
        description="Run declarative DR-Cell scenarios",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="train + evaluate a scenario file")
    run_parser.add_argument("scenario", type=Path, help="path to a scenario .json file")
    run_parser.add_argument(
        "--scale", default=None, help="cap effort at a predefined scale (tiny/small/medium/full)"
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_parser.add_argument(
        "--save", type=Path, default=None, help="save the spec + trained agents here"
    )
    run_parser.set_defaults(func=run_command)

    serve_parser = subparsers.add_parser(
        "serve", help="train, then run every slot server-backed through one decision server"
    )
    # Note: max_wait_ticks is deliberately not exposed here — the cooperative
    # scheduler flushes everything pending once all campaigns block, so the
    # wait-based trigger only matters for externally pumped servers.
    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(func=serve_command)

    record_parser = subparsers.add_parser(
        "record",
        help="serve with a request journal attached; write the journal "
        "(and optionally a mid-flight checkpoint) for later replay",
    )
    add_serve_arguments(record_parser)
    record_parser.add_argument(
        "--journal",
        type=Path,
        required=True,
        help="write the recorded session journal (JSON lines) here",
    )
    record_parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="with --checkpoint-after: write the mid-flight checkpoint here",
    )
    record_parser.add_argument(
        "--checkpoint-after",
        type=int,
        default=None,
        help="stop after this many cycles and capture a resumable checkpoint",
    )
    record_parser.set_defaults(func=record_command)

    replay_parser = subparsers.add_parser(
        "replay",
        help="re-execute a recorded journal and fail on any divergence "
        "(bitwise reproducibility gate)",
    )
    replay_parser.add_argument("journal", type=Path, help="path to a recorded journal")
    replay_parser.set_defaults(func=replay_command)

    resume_parser = subparsers.add_parser(
        "resume", help="finish a checkpointed serving session from where it stopped"
    )
    resume_parser.add_argument(
        "checkpoint", type=Path, help="path to a `record --checkpoint` file"
    )
    resume_parser.set_defaults(func=resume_command)

    validate_parser = subparsers.add_parser(
        "validate", help="check a scenario file without running it"
    )
    validate_parser.add_argument("scenario", type=Path)
    validate_parser.set_defaults(func=validate_command)

    components_parser = subparsers.add_parser(
        "components", help="list the registered component keys"
    )
    components_parser.set_defaults(func=components_command)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    enable_console_logging()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
