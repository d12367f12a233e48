"""The repository benchmark: one command per workload, checked outputs, JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_replicated --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run.  Each workload
runs in fresh worker processes (``perfbench/worker.py``) with one BLAS thread
and ``PYTHONHASHSEED`` pinned.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
#: BLAS threads every worker is pinned to (the host has 2 cores; 1 is steadier).
BLAS_THREADS = "1"
HASH_SEED = "0"
#: Set-up samples per untraced full-size run: two set-up-only workers plus the
#: measuring one.  A smoke run takes only the measuring worker's.
SETUP_SAMPLES = 3
#: Every run must finish inside this budget, workers included.
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments, a worker died)."""


def worker_env(hash_seed: str = HASH_SEED) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_ALS_BACKEND", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE"):
        env.pop(name, None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


class Runner:
    """Starts workers one at a time and enforces the run's time budget."""

    def __init__(self, args: argparse.Namespace, out: Path, deadline: float) -> None:
        self.args = args
        self.out = out
        self.deadline = deadline
        self.spawned = 0

    def worker(
        self, *, trace: int, extra: List[str] = (), seconds: Optional[float] = None
    ) -> Tuple[dict, float]:
        """Run one worker; return its report and its monotonic start time."""
        self.spawned += 1
        result = self.out / f"{self.args.workload}-{os.getpid()}-w{self.spawned}.worker.json"
        command = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds if seconds is None else seconds),
            "--trace", str(trace),
            "--size", self.args.size,
            "--result", str(result),
            "--artifacts", str(self.out / f"{self.args.workload}-seed{self.args.seed}"),
            *extra,
        ]
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a worker")
        started = monotonic()
        try:
            completed = subprocess.run(
                command,
                cwd=ROOT,
                env=worker_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"worker exceeded the run budget: {' '.join(command)}") from error
        if completed.returncode != 0:
            raise BenchmarkError(
                f"worker exited with {completed.returncode}:\n{completed.stderr[-4000:]}"
            )
        report = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return report, started


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(report: dict) -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "pythonhashseed": HASH_SEED,
        "als_backend": report.get("als_backend"),
        "python": platform.python_version(),
        **report.get("versions", {}),
    }


def deterministic_mismatch(reports: List[dict]) -> Optional[str]:
    """The first disagreement between rounds of the same input variant, or ``None``.

    Round ``r`` of every report ran variant ``r % variants`` from freshly
    built components, so its deterministic outputs must serialise exactly
    like the first report's first pass.
    """
    variants = reports[0]["variants"]
    for number, report in enumerate(reports):
        for position, outputs in enumerate(report["outputs"]):
            expected = reports[0]["outputs"][position % variants]
            differing = sorted(
                key for key in set(outputs) | set(expected)
                if json.dumps(outputs.get(key), sort_keys=True)
                != json.dumps(expected.get(key), sort_keys=True)
            )
            if differing:
                return f"worker {number} round {position} differs in {differing}"
    return None


def metric_units(section: str) -> Dict[str, str]:
    spec = json.loads(BENCH.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run(args: argparse.Namespace) -> Tuple[dict, List[str], Dict[str, object]]:
    """Run the workload; return (result line, problems, details for the report file)."""
    out = ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, out, monotonic() + RUN_BUDGET_S)
    problems: List[str] = []
    details: Dict[str, object] = {}
    if args.trace == 0:
        setups = []
        for _ in range(SETUP_SAMPLES - 1 if args.size == "full" else 0):
            report, started = runner.worker(trace=0, extra=["--setup-only"])
            setups.append((report["ready_monotonic"] - started) * report["setup_scale"])
        measured, started = runner.worker(trace=0)
        setups.append((measured["ready_monotonic"] - started) * measured["setup_scale"])
        reports = [measured]
        values = dict(measured["metrics"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        units = metric_units("end_to_end")
        details["setup_samples_s"] = setups
    else:
        # The untraced reference runs half as long; the traced worker repeats
        # exactly its rounds, so the two do the same work.
        untraced, _ = runner.worker(trace=0, seconds=args.seconds / 2)
        traced, _ = runner.worker(trace=1, extra=["--rounds", str(untraced["rounds"])])
        reports = [untraced, traced]
        values = dict(traced["layers"])
        values["trace_overhead_ratio"] = traced["scaled_wall_s"] / untraced["scaled_wall_s"]
        units = metric_units("per_layer")
        details["layer_table"] = traced["layer_table"]
        measured = untraced
    mismatch = deterministic_mismatch(reports)
    if mismatch is not None:
        problems.append(f"deterministic outputs differ: {mismatch}")
    for report in reports:
        problems.extend(report["problems"])
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    details.update(
        environment=environment(measured),
        rounds=[report["rounds"] for report in reports],
        round_walls_s=[report["round_walls_s"] for report in reports],
        round_scales=[report["round_scales"] for report in reports],
        decision_samples=measured["metrics"]["decision_samples"],
        decision_tail_percentile=measured["metrics"]["decision_tail_percentile"],
        DEBUG_p99_round_median=measured["metrics"]["DEBUG_p99_round_median"],
        error_rate=failed / attempted if attempted else 1.0,
        problems=problems,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems, details


def summary(args: argparse.Namespace, result: dict, details: Dict[str, object]) -> str:
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    lines.append(
        f"  {'error_rate':40s} {details['error_rate']:14.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} requests failed)"
    )
    lines.append(
        f"  decision latency samples {details['decision_samples']}, "
        f"tail percentile p{details['decision_tail_percentile']:g}"
    )
    if "layer_table" in details:
        lines.append(f"  {'span':28s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} {'share':>7s}")
        for row in details["layer_table"]:
            lines.append(
                f"  {row['span']:28s} {row['calls']:9.0f} {row['busy_s']:10.4f}"
                f" {row['self_s']:10.4f} {row['share']:7.1%}"
            )
    env = details["environment"]
    lines.append("  environment " + ", ".join(f"{key}={value}" for key, value in env.items()))
    for problem in details["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few cycles per round, for the benchmark's own tests")
    parser.add_argument("--out", default="perfbench/out",
                        help="directory (relative to the checkout) for reports and traces")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    workloads = [entry["name"] for entry in json.loads(BENCH.read_text(encoding="utf-8"))["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or Path(args.out).is_absolute() or ".." in Path(args.out).parts:
        print("error: --seconds must be positive and --out relative to the checkout", file=sys.stderr)
        return 2
    try:
        result, problems, details = run(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    report = ROOT / args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"result": result, **details}, indent=2), encoding="utf-8")
    print(summary(args, result, details))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
