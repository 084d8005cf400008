"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload loadcurve-2d --seed 0 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced passes alternately and prints every
per-layer metric instead.  Passes repeat until ``--seconds`` is spent (at
least one of each kind), and each metric is the median over the passes;
on the load curves, ``wall_s`` sums each load point's median.
The last line of standard output is the JSON result; the lines before it
list the metrics with unit and direction, and the host diagnostics.  The
exit code is 0 only when every operation succeeded and every correctness
check held.  See ``perfbench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

#: Default workload seed, and the seed held out for confirming later claims.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5


@dataclass
class Outcome:
    """What one workload run produced."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness check as a failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(message)


def _timed_passes(run_one: Callable[[bool], object], seconds: float, trace: bool):
    """Run passes until ``seconds`` is spent; returns (untraced, traced).

    With ``trace`` the passes alternate untraced/traced, starting untraced.
    A pass is not started when even the fastest pass so far would overrun
    the budget, but each kind runs at least once.
    """
    plain, traced = [], []
    start = perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        result = run_one(use_trace)
        (traced if use_trace else plain).append(result)
        if not plain or (trace and not traced):
            continue
        fastest = min(p.wall_s for p in plain + traced)
        if perf_counter() - start + fastest > seconds:
            return plain, traced


def _median(values) -> float:
    return float(statistics.median(values))


def _points_s(passes) -> float:
    """Host seconds of one pass over the curves, each load point at its median.

    Host interference comes in bursts that can slow part of a pass; a
    point's median over the passes leaves out the passes a burst hit.
    """
    return sum(_median(p.point_s[key] for p in passes) for key in passes[0].point_s)


def _pcs(totals: Dict[str, float]) -> Dict[str, float]:
    attempts = totals["attempts"]
    return {
        "pcs.setup_attempts": attempts,
        "pcs.delivered": totals["delivered"],
        "pcs.useful_ratio": totals["delivered"] / attempts if attempts else 0.0,
        "pcs.blocked_hops": totals["blocked_hops"],
        "pcs.timeout_releases": totals["timeout_releases"],
        "pcs.mean_reserved_links": (
            totals["link_steps"] / totals["steps"] if totals["steps"] else 0.0
        ),
    }


def _medians(layer_dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: _median(d[k] for d in layer_dicts) for k in layer_dicts[0]}


def _setup_seconds(root: Path, setup: Callable[[], None]) -> float:
    import host

    samples = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        host.import_seconds(root)
        setup()
        samples.append(perf_counter() - start)
    return _median(samples)


def run_curve(curves, args, root: Path, state_dir: Path) -> Outcome:
    import curve
    import host
    import sweep
    from checks import RepeatRecord, source_digest

    out = Outcome()

    out.end_to_end["setup_s"] = _setup_seconds(root, lambda: curve.warm_up(curves))
    points = sum(len(c.points()) for c in curves)
    policy_curves = sum(len(c.policies) for c in curves)

    def one_pass(traced: bool):
        out.attempted += points
        return curve.run_pass(curves, args.seed, traced=traced)

    plain, traced = _timed_passes(one_pass, args.seconds, args.trace)
    out.notes["pass_wall_s"] = [round(p.wall_s, 3) for p in plain + traced]
    first = plain[0]
    for other in plain[1:] + traced:
        out.check(other.rows == first.rows and other.sim == first.sim,
                  "simulated results differ between passes of one seed")
    for problem in curve.scalar_oracle_mismatches(curves, args.seed, first.rows):
        out.check(False, problem)
    sim = first.sim
    wall = _points_s(plain)
    e2e = {
        "wall_s": wall,
        # A policy's whole curve is the first result a user can plot; its
        # mean time does not depend on which policy the grid runs first.
        "first_cell_s": wall / policy_curves,
        "warm_job_s": wall / points,
        "sim_steps_per_s": sim["steps"] / wall,
        "peak_rss_mb": host.peak_rss_mb(host.child_pids()),
        "accepted_peak": sim["accepted_peak"],
        "delivery_ratio": sim["delivered_measured"] / sim["injected"],
        "mean_detours": sim["detours"] / sim["delivered"],
    }
    out.end_to_end.update(e2e)
    record = RepeatRecord(state_dir, args.workload, args.seed, source_digest(root))
    simulated = {k: e2e[k] for k in ("accepted_peak", "delivery_ratio", "mean_detours")}
    bad = record.mismatches({**simulated, **sim})
    out.check(not bad, f"simulated metrics differ from an earlier run of this seed: {bad}")
    if traced:
        layers = _medians([p.layers for p in traced])
        out.per_layer.update(layers)
        out.per_layer.update(_pcs(sim))
        out.per_layer["protocols.stabilize_steps"] = 0.0
        out.per_layer.update(dict.fromkeys(sweep.LAYER_METRICS, 0.0))
        for policy in curve.POLICIES:
            out.per_layer.setdefault(f"throughput.point_s.{policy}", 0.0)
        out.per_layer["trace.overhead_s"] = _points_s(traced) - wall
        out.notes["span_coverage"] = _median(p.coverage for p in traced)
    return out


def run_sweep(workload, args, root: Path, state_dir: Path) -> Outcome:
    import curve
    import host
    import sweep
    from checks import RepeatRecord, differing, source_digest

    out = Outcome()
    cache_dir = state_dir / f"cache-{os.getpid()}"
    services: List[sweep.Service] = []

    def set_up() -> None:
        while services:
            services.pop().stop()
        services.append(sweep.start_service(workload, cache_dir))

    try:
        out.end_to_end["setup_s"] = _setup_seconds(root, set_up)
        service = services[0]
        jobs_per_pass = workload.warm_repeats + 2

        def one_pass(traced: bool):
            out.attempted += jobs_per_pass
            return sweep.run_pass(service, workload, args.seed, traced=traced)

        plain, traced = _timed_passes(one_pass, args.seconds, args.trace)
        out.notes["pass_wall_s"] = [round(p.wall_s, 3) for p in plain + traced]
        rss = host.peak_rss_mb(host.child_pids())

        # Correctness, outside the timed region.
        cold_expected, overlap_expected = sweep.offline_results(
            workload, args.seed, state_dir / f"offline-{os.getpid()}"
        )
        cells_per_job = workload.seeds_per_job
        for p in plain + traced:
            for run in p.jobs():
                out.check(run.state == "done" and run.cells == cells_per_job,
                          f"job {run.job_id} ended {run.state!r} with {run.cells} cells")
            out.check(p.cold.result == cold_expected,
                      "served cold result differs from offline run_batch")
            out.check(p.overlap.result == overlap_expected,
                      "served overlap result differs from offline run_batch")
            for run in p.warm:
                out.check(run.result == p.cold.result, "warm result differs from cold")
        cold_cells = sweep.served_cells(plain[0].cold.result)
        oracle = sweep.scalar_oracle_metrics(workload, args.seed)
        bad = differing(oracle, cold_cells[0]["metrics"])
        out.check(not bad, f"3-D cell 0 differs from the scalar oracle in {bad}")

        cold_seeds = {c["seed"] for c in cold_cells}
        fresh = [c for c in sweep.served_cells(plain[0].overlap.result)
                 if c["seed"] not in cold_seeds]
        totals = sweep.simulated_totals(cold_cells + fresh)
        wall = _median(p.wall_s for p in plain)
        e2e = {
            "wall_s": wall,
            "first_cell_s": _median(p.cold.first_cell_s for p in plain),
            "warm_job_s": _median(r.total_s for p in plain for r in p.warm),
            "sim_steps_per_s": totals["steps"] / wall,
            "peak_rss_mb": rss,
            "accepted_peak": totals["accepted_peak"],
            "delivery_ratio": totals["delivered"] / totals["attempts"],
            "mean_detours": totals["detours"] / totals["delivered"],
        }
        out.end_to_end.update(e2e)
        record = RepeatRecord(state_dir, args.workload, args.seed, source_digest(root))
        digest = hashlib.sha256(cold_expected).hexdigest()
        bad = record.mismatches({**totals, "cold_result_sha256": digest})
        out.check(not bad, f"simulated metrics differ from an earlier run of this seed: {bad}")
        out.attempted += service.client.attempted
        out.failed += service.client.failed
        if traced:
            spans, coverage = sweep.replay_spans(workload, args.seed)
            out.per_layer.update(_medians([p.layers for p in traced]))
            out.per_layer.update(spans)
            out.per_layer.update(_pcs(totals))
            out.per_layer["protocols.stabilize_steps"] = totals["stabilize_steps"]
            for policy in curve.POLICIES:
                out.per_layer[f"throughput.point_s.{policy}"] = 0.0
            out.per_layer["trace.overhead_s"] = _median(p.wall_s for p in traced) - wall
            out.notes["span_coverage"] = coverage
    finally:
        while services:
            services.pop().stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def _workloads():
    import curve
    import sweep

    return {
        "loadcurve-2d": (run_curve, curve.LOADCURVE_2D),
        "faultsweep-3d": (run_sweep, sweep.FAULTSWEEP_3D),
    }


def result_line(outcome: Outcome, metrics: List[dict]) -> dict:
    """The final JSON object; every named metric must have been measured."""
    measured = {**outcome.end_to_end, **outcome.per_layer}
    missing = [m["name"] for m in metrics if m["name"] not in measured]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
        outcome.failed += 1
    return {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out "
        "for confirming a claim measured on other seeds)",
    )
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="host seconds of timed passes to aim for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 prints the per-layer metrics from traced passes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    definition = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import host

    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    state_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    state_dir.mkdir(parents=True, exist_ok=True)
    probe = host.HostProbe()
    run, workload = workloads[args.workload]
    try:
        outcome = run(workload, args, root, state_dir)
    except Exception:
        outcome = Outcome(failed=1, attempted=1, problems=[traceback.format_exc()])
    diagnostics = {**probe.finish(), **outcome.notes}

    metrics = definition["per_layer" if args.trace else "end_to_end"]
    line = result_line(outcome, metrics)
    for m in metrics:
        value = line["metrics"][m["name"]]["value"]
        print(f"{m['name']:<34} {value:>14.6g} {m['unit']:<14} {m['better']} is better")
    print("host: " + json.dumps(diagnostics, sort_keys=True))
    for problem in outcome.problems:
        print("FAILED: " + problem.rstrip())
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
