"""``python -m repro.obs`` — run an observed serve session, or re-render exports.

Two subcommands:

``serve scenario.json``
    Train the scenario and serve every slot's campaign with a full
    :class:`~repro.obs.Observability` bundle attached — metrics always,
    request tracing with ``--trace out.json``, phase profiling with
    ``--profile``.  Accepts every knob of ``python -m repro.api.cli serve``.
    The final metrics registry is written with ``--prom`` / ``--obs-json``;
    when neither is given, the Prometheus text exposition prints to stdout.

``render snapshot.json``
    Re-render a saved JSON metrics snapshot (``--obs-json`` output) as
    Prometheus text — snapshots round-trip losslessly through
    :func:`~repro.obs.export.registry_from_snapshot`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from repro.api import cli as api_cli
from repro.api.session import Session
from repro.obs import Observability, registry_from_snapshot, render_prometheus


def serve_obs_command(args: argparse.Namespace) -> int:
    """Train + serve a scenario with observability attached; export the results."""
    spec, replicas, max_batch, max_inflight = api_cli._resolve_serve_spec(args)
    obs = Observability(
        trace=args.trace is not None,
        profile=bool(args.profile),
        snapshot_every=int(args.obs_snapshot_every),
    )
    session = Session.from_spec(spec)
    session.train(obs=obs)
    report, stats, _ = session.serve(
        replicas=replicas, max_batch=max_batch, max_inflight=max_inflight, obs=obs
    )
    api_cli._print_serve_report(spec, report, stats)
    api_cli.write_obs_outputs(obs, args)
    if args.prom is None and args.obs_json is None:
        print()
        print(obs.prometheus(), end="")
    return 0


def render_command(args: argparse.Namespace) -> int:
    """Re-render a saved JSON metrics snapshot as Prometheus text."""
    registry = registry_from_snapshot(
        json.loads(args.snapshot.read_text(encoding="utf-8"))
    )
    print(render_prometheus(registry), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observed serve sessions: metrics, request traces, profiles",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve_parser = subparsers.add_parser(
        "serve",
        help="train + serve a scenario with metrics/tracing/profiling attached",
    )
    api_cli.add_serve_arguments(serve_parser)
    serve_parser.set_defaults(func=serve_obs_command)

    render_parser = subparsers.add_parser(
        "render", help="re-render a saved --obs-json snapshot as Prometheus text"
    )
    render_parser.add_argument(
        "snapshot", type=Path, help="path to a JSON metrics snapshot"
    )
    render_parser.set_defaults(func=render_command)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
