"""Smoke-size checks of the benchmark itself: metric names, traces, determinism, refusal.

Each test runs ``perfbench/run.py`` (or its worker) as a subprocess at the
``smoke`` size, a few campaign cycles per round.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Tuple

import pytest

from perfbench import run

BENCHMARK = json.loads(run.BENCH.read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
OUT = "perfbench/out/test"


def start(workload: str, trace: int, *, cwd: Path = run.ROOT) -> subprocess.Popen:
    """Start one smoke-size benchmark run of ``workload`` from ``cwd``."""
    return subprocess.Popen(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.1",
            "--trace", str(trace),
            "--size", "smoke",
            "--out", OUT,
        ],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(process: subprocess.Popen) -> Tuple[int, str, str]:
    try:
        stdout, stderr = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    return process.returncode, stdout, stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_benchmark_metrics(workload):
    # The untraced and the traced run are independent; run them side by side.
    processes = {trace: start(workload, trace) for trace in (0, 1)}
    finished = {trace: finish(process) for trace, process in processes.items()}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        returncode, stdout, stderr = finished[trace]
        assert returncode == 0, stdout + stderr
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float) and metric["value"] == metric["value"], name
        if section == "end_to_end":
            assert all(metric["value"] > 0 for metric in result["metrics"].values())
    check_trace_artifacts(workload)


def check_trace_artifacts(workload: str) -> None:
    """The traced run leaves a valid Chrome trace and a table whose shares add to 1."""
    from repro.obs.trace import validate_chrome_trace

    out = run.ROOT / OUT
    trace = json.loads((out / f"{workload}-seed3.trace.json").read_text(encoding="utf-8"))
    names = {event["name"] for event in validate_chrome_trace(trace) if event["ph"] == "X"}
    assert {"bench.setup", "bench.round", "datasets.generate", "inference.complete_batch"} <= names
    report = json.loads((out / f"{workload}-seed3-trace1.json").read_text(encoding="utf-8"))
    table = report["layer_table"]
    assert sum(row["share"] for row in table) == pytest.approx(1.0, abs=1e-6)
    layers = {row["layer"] for row in table}
    if workload == "learn_online":
        assert {"learner", "serve", "quality", "inference", "rl", "nn", "mcs"} <= layers
    if workload == "train":
        assert {"rl", "nn", "mcs", "inference"} <= layers and "serve" not in layers


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    results = {hash_seed: tmp_path / f"hash{hash_seed}.json" for hash_seed in ("1", "2")}
    processes = [
        subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.worker",
                "--workload", "learn_online",
                "--seed", "3",
                "--size", "smoke",
                "--rounds", "2",
                "--result", str(result),
            ],
            cwd=run.ROOT,
            env=run.worker_env(hash_seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed, result in results.items()
    ]
    for returncode, _, stderr in [finish(process) for process in processes]:
        assert returncode == 0, stderr
    first, second = (
        json.loads(result.read_text(encoding="utf-8"))["outputs"] for result in results.values()
    )
    assert first == second
    assert first[0]["transitions"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.BENCH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    returncode, stdout, _ = finish(start("train", 0, cwd=tmp_path))
    assert returncode != 0
    assert "correct" not in stdout
