"""The 3-D fault-sweep workload, driven over HTTP against an in-process service.

A pass is three kinds of job, submitted one at a time from one client over
one connection at a time (closed loop, a single client):

1. a cold job — every cell computed by the sweep pool, every result written
   to the (emptied) result cache;
2. warm resubmissions of the same spec — answered from the cache;
3. an overlap job whose seeds are half the cold job's — half cache hits,
   half fresh compute plus cache writes.

Each HTTP request is one operation, and so is each job.
"""

from __future__ import annotations

import http.client
import json
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.experiments.runner as runner
import repro.routing.global_info as global_info
import repro.service.jobs as jobs
from repro.experiments import ExperimentSpec, ResultCache, run_batch
from repro.experiments.runner import run_cell
from repro.obs.profile import PhaseProfiler
from repro.service import make_service

from checks import scalar_backend
from layers import CacheTimer, CallTimer, SimulatorTap, patched, simulator_metrics, span_coverage


@dataclass(frozen=True)
class SweepWorkload:
    name: str = "faultsweep-3d"
    shape: Tuple[int, ...] = (8, 8, 8)
    scenario: str = "transpose"
    messages: int = 64
    faults: int = 16
    interval: int = 3
    lam: int = 2
    flits: int = 32
    #: Seeds per job; the overlap job shifts them by half.
    seeds_per_job: int = 8
    warm_repeats: int = 12
    workers: int = 2
    #: Cold-job cells replayed in-process under the profiler (traced runs).
    replay_cells: int = 2

    def spec(self, seed: int, *, overlap: bool = False) -> ExperimentSpec:
        first = seed * self.seeds_per_job + (self.seeds_per_job // 2 if overlap else 0)
        return ExperimentSpec(
            name=self.name,
            mode="simulate",
            mesh_shapes=(self.shape,),
            scenarios=(self.scenario,),
            traffic_sizes=(self.messages,),
            fault_counts=(self.faults,),
            fault_intervals=(self.interval,),
            lams=(self.lam,),
            contention=True,
            flits=(self.flits,),
            seeds=tuple(range(first, first + self.seeds_per_job)),
        )


FAULTSWEEP_3D = SweepWorkload()

#: The set-up job that spawns the pool (two stacked shards) before timing.
WARMUP = SweepWorkload(
    name="perfbench-warmup", shape=(4, 4, 4), messages=8, faults=2, warm_repeats=0
)


@dataclass
class JobRun:
    """One job as the client saw it."""

    job_id: str = ""
    state: str = ""
    total_s: float = 0.0  #: POST sent to the last byte of the result
    first_cell_s: float = 0.0  #: POST sent to the first streamed ``cell`` event
    submit_s: float = 0.0
    stream_s: float = 0.0
    result_s: float = 0.0
    queue_wait_s: float = 0.0
    bytes: int = 0
    cells: int = 0
    result: bytes = b""


class Client:
    """A one-connection-at-a-time HTTP client that counts its operations."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.attempted = 0
        self.failed = 0
        self.non2xx = 0

    def _open(self, method: str, path: str, body: Optional[bytes] = None):
        self.attempted += 1
        conn = http.client.HTTPConnection(self.host, self.port, timeout=150)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        if not 200 <= response.status < 300:
            self.non2xx += 1
            self.failed += 1
            conn.close()
            raise RuntimeError(f"{method} {path} -> HTTP {response.status}")
        return conn, response

    def _fetch(self, method: str, path: str, body: Optional[bytes] = None) -> bytes:
        conn, response = self._open(method, path, body)
        try:
            return response.read()
        finally:
            conn.close()

    def run_job(self, spec: ExperimentSpec) -> JobRun:
        run = JobRun()
        body = json.dumps(spec.to_dict()).encode()
        start = perf_counter()
        reply = self._fetch("POST", "/v1/jobs", body)
        run.submit_s = perf_counter() - start
        run.bytes += len(reply)
        run.job_id = json.loads(reply)["job"]["id"]

        began = perf_counter()
        conn, response = self._open("GET", f"/v1/jobs/{run.job_id}/stream")
        try:
            for line in iter(response.readline, b""):
                run.bytes += len(line)
                event = json.loads(line)
                if event["event"] == "cell":
                    if not run.cells:
                        run.first_cell_s = perf_counter() - start
                    run.cells += 1
                elif event["event"] == "end":
                    run.state = event["state"]
        finally:
            conn.close()
        run.stream_s = perf_counter() - began

        began = perf_counter()
        run.result = self._fetch("GET", f"/v1/jobs/{run.job_id}/result")
        run.result_s = perf_counter() - began
        run.total_s = perf_counter() - start
        run.bytes += len(run.result)
        return run

    def queue_wait(self, run: JobRun) -> float:
        """Created-to-started seconds the service reports for a finished job."""
        job = json.loads(self._fetch("GET", f"/v1/jobs/{run.job_id}"))["job"]
        return job["started"] - job["created"]


class Service:
    """The in-process service plus the client that drives it."""

    def __init__(self, workload: SweepWorkload, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.service = make_service(
            port=0, engine="auto", workers=workload.workers, cache_dir=str(cache_dir)
        )
        host, port = self.service.start_background()
        self.client = Client(host, port)

    def clear_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def stop(self) -> None:
        self.service.stop_background()


def start_service(workload: SweepWorkload, cache_dir: Path) -> Service:
    """Bind the service and spawn its pool with one small warm-up job."""
    service = Service(workload, cache_dir)
    warm = service.client.run_job(WARMUP.spec(0))
    if warm.state != "done":
        raise RuntimeError(f"warm-up job ended {warm.state}")
    service.clear_cache()
    return service


class BatchTap:
    """Wraps ``run_batch`` inside the job manager to keep each telemetry."""

    def __init__(self) -> None:
        self.batches: List[Tuple[float, object]] = []

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        batch = run_batch(*args, **kwargs)
        self.batches.append((perf_counter() - start, batch.telemetry))
        return batch


#: Per-layer metrics measured only on this workload (zero on the curves).
LAYER_METRICS = (
    "sweep.plan_s", "sweep.compute_s", "sweep.transfer_s", "sweep.worker_util",
    "sweep.assemble_s", "sweep.cells_computed", "sweep.cells_cached", "sweep.incidents",
    "cache.get_s", "cache.hits", "cache.misses", "cache.put_s", "cache.writes",
    "service.submit_s", "service.queue_wait_s", "service.stream_s", "service.result_s",
    "service.bytes", "service.non2xx",
)


@dataclass
class SweepPass:
    wall_s: float = 0.0
    cold: JobRun = field(default_factory=JobRun)
    warm: List[JobRun] = field(default_factory=list)
    overlap: JobRun = field(default_factory=JobRun)
    layers: Optional[Dict[str, float]] = None

    def jobs(self) -> List[JobRun]:
        return [self.cold, *self.warm, self.overlap]


def run_pass(
    service: Service, workload: SweepWorkload, seed: int, *, traced: bool
) -> SweepPass:
    """Cold job, warm resubmissions and the overlap job, timed end to end."""
    service.clear_cache()
    client = service.client
    cold_spec, overlap_spec = workload.spec(seed), workload.spec(seed, overlap=True)
    out = SweepPass()
    cache_timer, plan_timer, batch_tap = CacheTimer(), CallTimer(), BatchTap()
    with ExitStack() as hooks:
        if traced:
            hooks.enter_context(patched(jobs, "ResultCache", cache_timer))
            hooks.enter_context(patched(jobs, "run_batch", batch_tap))
            hooks.enter_context(
                patched(runner, "plan_shards", plan_timer.wrap(runner.plan_shards))
            )
        start = perf_counter()
        out.cold = client.run_job(cold_spec)
        out.warm = [client.run_job(cold_spec) for _ in range(workload.warm_repeats)]
        out.overlap = client.run_job(overlap_spec)
        out.wall_s = perf_counter() - start
    if traced:
        for run in out.jobs():
            run.queue_wait_s = client.queue_wait(run)
        out.layers = {
            **cache_timer.metrics(),
            **_sweep_metrics(batch_tap, plan_timer),
            **_service_metrics(out.jobs(), client),
        }
    return out


def _sweep_metrics(tap: BatchTap, plan: CallTimer) -> Dict[str, float]:
    computed = cached = incidents = 0
    compute = transfer = assemble = busy_capacity = 0.0
    for batch_seconds, telemetry in tap.batches:
        assemble += max(0.0, batch_seconds - telemetry.wall_seconds)
        incidents += len(telemetry.incidents)
        fresh = [s for s in telemetry.shards if s.kind != "cached"]
        cached += sum(s.cells for s in telemetry.shards if s.kind == "cached")
        computed += sum(s.cells for s in fresh)
        compute += sum(s.seconds for s in fresh)
        transfer += sum(max(0.0, s.landed_seconds - s.seconds) for s in fresh)
        if fresh:
            busy_capacity += telemetry.workers * telemetry.wall_seconds
    return {
        "sweep.plan_s": plan.seconds,
        "sweep.compute_s": compute,
        "sweep.transfer_s": transfer,
        "sweep.worker_util": compute / busy_capacity if busy_capacity else 0.0,
        "sweep.assemble_s": assemble,
        "sweep.cells_computed": float(computed),
        "sweep.cells_cached": float(cached),
        "sweep.incidents": float(incidents),
    }


def _service_metrics(runs: List[JobRun], client: Client) -> Dict[str, float]:
    return {
        "service.submit_s": sum(r.submit_s for r in runs),
        "service.queue_wait_s": sum(r.queue_wait_s for r in runs),
        "service.stream_s": sum(r.stream_s for r in runs),
        "service.result_s": sum(r.result_s for r in runs),
        "service.bytes": float(sum(r.bytes for r in runs)),
        "service.non2xx": float(client.non2xx),
    }


def replay_spans(workload: SweepWorkload, seed: int) -> Tuple[Dict[str, float], float]:
    """``sim.*`` spans of the first cold cells, replayed in-process.

    The served job computes its cells in pool workers, out of the
    profiler's reach, so the traced run re-runs the first
    ``replay_cells`` of them through ``run_cell`` with a profiler attached.
    """
    profiler = PhaseProfiler()
    planner = CallTimer()
    with patched(runner, "Simulator", SimulatorTap(profiler)), patched(
        global_info, "shortest_usable_path", planner.wrap(global_info.shortest_usable_path)
    ):
        for cell in workload.spec(seed).cells()[: workload.replay_cells]:
            run_cell(cell)
    metrics = simulator_metrics(profiler, planner.seconds)
    metrics["global_info.plan_s"] = planner.seconds
    metrics["global_info.plan_calls"] = float(planner.calls)
    return metrics, span_coverage(metrics, planner.seconds)


def offline_results(workload: SweepWorkload, seed: int, cache_dir: Path) -> Tuple[bytes, bytes]:
    """Canonical bytes of the cold and overlap jobs, computed offline.

    The cold job runs with an empty private cache, and the overlap job
    reuses that cache for its shared half.  The cache's own round trip is
    checked separately: every warm result must equal the cold one.
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    try:
        return tuple(
            (run_batch(spec, workers=workload.workers, engine="auto", cache=cache)
             .to_json() + "\n").encode()
            for spec in (workload.spec(seed), workload.spec(seed, overlap=True))
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def scalar_oracle_metrics(workload: SweepWorkload, seed: int) -> Dict[str, float]:
    """The first cold cell's metrics on the scalar reference backend."""
    with scalar_backend():
        return run_cell(workload.spec(seed).cells()[0]).metrics


def served_cells(result: bytes) -> List[dict]:
    return json.loads(result)["cells"]


def simulated_totals(cells: List[dict]) -> Dict[str, float]:
    """Simulated aggregates over a set of served cell entries."""
    messages = delivered = detours = steps = link_steps = 0.0
    blocked = timeouts = 0.0
    peak = 0.0
    worst = 0.0
    for entry in cells:
        m = entry["metrics"]
        nodes = 1
        for radix in entry["shape"]:
            nodes *= radix
        done = m["delivery_rate"] * m["messages"]
        messages += m["messages"]
        delivered += done
        detours += m["mean_detours"] * done
        steps += m["steps"]
        link_steps += m["mean_reserved_links"] * m["steps"]
        blocked += m["blocked_hops"]
        timeouts += m["timeout_releases"]
        peak = max(peak, done / (nodes * m["steps"]) if m["steps"] else 0.0)
        worst = max(worst, m["worst_steps_to_stabilize"])
    return {
        "steps": steps,
        "attempts": messages,
        "delivered": delivered,
        "detours": detours,
        "blocked_hops": blocked,
        "timeout_releases": timeouts,
        "link_steps": link_steps,
        "accepted_peak": peak,
        "stabilize_steps": worst,
    }
