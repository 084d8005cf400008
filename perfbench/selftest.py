"""Self-test of the benchmark at a quick size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is well formed and
emitted by each workload (end-to-end and per-layer, with unit and
direction), and that a corrupted served result trips the correctness
check.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import shutil
import sys
from argparse import Namespace
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import curve  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
from layers import patched  # noqa: E402

QUICK = {
    "loadcurve-2d": (run.run_curve, (
        curve.Curve(
            shape=(8, 8), policies=("limited-global", "static-block"),
            patterns=("transpose",), rates=(0.004, 0.016), windows=(10, 40, 40),
            oracle=("limited-global", "transpose", 0.016), faults=2, flits=8,
        ),
        curve.Curve(
            shape=(6, 6), policies=("global-information",), patterns=("uniform",),
            rates=(0.01,), windows=(10, 40, 40),
            oracle=("global-information", "uniform", 0.01), faults=1, flits=8,
        ),
    )),
    "faultsweep-3d": (run.run_sweep, sweep.SweepWorkload(
        name="quick-faultsweep", shape=(4, 4, 4), messages=8, faults=2,
        warm_repeats=2, replay_cells=1,
    )),
}

DIRECTIONS = ("higher", "lower")


def check_definition(definition: dict) -> list:
    problems = []
    names = set()
    for kind in ("end_to_end", "per_layer"):
        for metric in definition[kind]:
            name = metric["name"]
            if name in names:
                problems.append(f"{name}: named twice")
            names.add(name)
            if not metric.get("unit"):
                problems.append(f"{name}: no unit")
            if metric.get("better") not in DIRECTIONS:
                problems.append(f"{name}: direction {metric.get('better')!r}")
    if not any(m["name"] == "setup_s" for m in definition["end_to_end"]):
        problems.append("setup_s missing")
    workloads = {w["name"] for w in definition["workloads"]}
    if workloads != set(QUICK):
        problems.append(f"workloads {sorted(workloads)} != {sorted(QUICK)}")
    return problems


def emitted(name: str, state_dir: Path, definition: dict) -> list:
    """Every metric of both kinds comes out of a traced quick run, correct."""
    runner, workload = QUICK[name]
    args = Namespace(workload=name, seed=0, seconds=0.0, trace=1)
    outcome = runner(workload, args, ROOT, state_dir)
    problems = [f"{name}: {p}" for p in outcome.problems]
    for kind in ("end_to_end", "per_layer"):
        line = run.result_line(outcome, definition[kind])
        if not line["correct"]:
            problems.append(f"{name}/{kind}: not correct: {outcome.problems}")
        for metric in definition[kind]:
            entry = line["metrics"].get(metric["name"])
            if entry is None or entry["unit"] != metric["unit"]:
                problems.append(f"{name}: {metric['name']} not emitted with its unit")
    for metric in definition["end_to_end"]:
        if outcome.end_to_end.get(metric["name"], 0.0) <= 0.0:
            problems.append(f"{name}: end-to-end {metric['name']} is not positive")
    return problems


def corruption_detected(state_dir: Path, definition: dict) -> list:
    """Flipping one byte of a served result must fail the run."""
    runner, workload = QUICK["faultsweep-3d"]
    original = sweep.Client.run_job
    corrupted = []

    def tampered(client, spec):
        job = original(client, spec)
        if not corrupted and spec.name == workload.name:
            index = job.result.index(b'"delivery_rate": ') + len(b'"delivery_rate": ')
            job.result = job.result[:index] + b"7" + job.result[index + 1:]
            corrupted.append(job.job_id)
        return job

    args = Namespace(workload="faultsweep-3d", seed=0, seconds=0.0, trace=0)
    with patched(sweep.Client, "run_job", tampered):
        outcome = runner(workload, args, ROOT, state_dir)
    line = run.result_line(outcome, definition["end_to_end"])
    if not corrupted:
        return ["corruption: no served result was tampered with"]
    if line["correct"] or not any("differs from offline" in p for p in outcome.problems):
        return ["corruption: a corrupted served result passed the correctness check"]
    return []


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    state_dir = ROOT / ".bench_build" / "perfbench-selftest"
    problems = check_definition(definition)
    try:
        for name in QUICK:
            problems += emitted(name, state_dir, definition)
        problems += corruption_detected(state_dir, definition)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    for problem in problems:
        print("FAIL: " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
