"""The load-curve workload: ``run_throughput_point`` over policies x patterns x rates.

The workload is a sequence of curves (:class:`Curve`), each on its own mesh.
One pass runs every curve in grid order, in-process.  Every load point is
one operation; its host time, its ``ThroughputResult`` row and the
``SimulationStats`` of the simulator it built are kept.  The static fault
set is labelled before measuring (``run_throughput_point`` preconverges
it), and nothing goes through the sweep runner, the result cache or HTTP,
so on this workload those layers are bypassed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.routing.global_info as global_info
import repro.throughput.measure as measure
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule
from repro.mesh.topology import Mesh
from repro.obs.profile import PhaseProfiler
from repro.throughput import MeasurementWindows, run_throughput_point

from checks import differing, scalar_backend
from layers import CallTimer, SimulatorTap, patched, simulator_metrics, span_coverage

#: (policy, pattern, rate)
Point = Tuple[str, str, float]

#: Seed of the fixed fault layouts (see ``Curve.layout``).
LAYOUT_SEED = 2004

#: Every policy a curve runs (one ``throughput.point_s`` metric each).
POLICIES = ("limited-global", "static-block", "no-information", "global-information")


@dataclass(frozen=True)
class Curve:
    shape: Tuple[int, ...]
    policies: Tuple[str, ...]
    patterns: Tuple[str, ...]
    rates: Tuple[float, ...]
    windows: Tuple[int, int, int]
    #: The point re-run on the scalar backend as the correctness oracle.
    oracle: Point
    faults: int = 6
    flits: int = 16
    #: Whether the run's seed draws the offered traffic (see ``traffic_seed``).
    seeded_traffic: bool = True

    def points(self) -> List[Point]:
        return [
            (policy, pattern, rate)
            for policy in self.policies
            for pattern in self.patterns
            for rate in self.rates
        ]

    def layout(self, point: Point) -> DynamicFaultSchedule:
        """The static fault set of one load point, fixed by the workload.

        Every (pattern, rate) has its own layout, and no layout depends on
        the run's seed: the host time of a pass hinges on how the faults
        cut the mesh, so drawing layouts per seed widened the timing spread
        from seed to seed well beyond host noise.
        """
        _, pattern, rate = point
        rng = np.random.default_rng(
            [LAYOUT_SEED, self.patterns.index(pattern), self.rates.index(rate)]
        )
        return DynamicFaultSchedule.static(
            uniform_random_faults(Mesh(self.shape), self.faults, rng, margin=1)
        )

    def traffic_seed(self, point: Point, seed: int) -> int:
        """The seed of one load point's offered traffic.

        Policies share it (and the layout), so their curves stay comparable
        point for point.  A curve without ``seeded_traffic`` draws it from
        ``LAYOUT_SEED`` instead of the run's seed.
        """
        _, pattern, rate = point
        if not self.seeded_traffic:
            seed = LAYOUT_SEED
        return 1000 * seed + 100 * self.patterns.index(pattern) + self.rates.index(rate)

    def run_point(self, point: Point, seed: int):
        policy, pattern, rate = point
        warmup, measure_steps, drain = self.windows
        return run_throughput_point(
            self.shape,
            policy,
            pattern,
            rate,
            flits=self.flits,
            seed=self.traffic_seed(point, seed),
            windows=MeasurementWindows(warmup=warmup, measure=measure_steps, drain=drain),
            fault_schedule=self.layout(point),
        )


#: ``loadcurve-2d``: the three table/object-tier policies on 16x16, then the
#: global-information reference policy on 12x12 (its BFS planner is ~80x the
#: cost per point, so it gets a smaller mesh).  The
#: planner's work hinges on the offered traffic: over run seeds 0-9 its
#: calls into ``shortest_usable_path`` ranged from 8.8k to 16.5k per pass,
#: which alone spread ``wall_s`` by about a tenth.  So, like its layouts,
#: that curve's traffic is fixed by the workload, and the seed draws the
#: traffic of the 30 table and object-tier points.
LOADCURVE_2D = (
    Curve(
        shape=(16, 16),
        policies=("limited-global", "static-block", "no-information"),
        patterns=("uniform", "transpose"),
        rates=(0.001, 0.002, 0.004, 0.008, 0.016),
        # A quarter of the 100/400/400 first designed, so that a run holds
        # five to seven passes for each load point's median, not two.
        windows=(25, 100, 100),
        oracle=("limited-global", "transpose", 0.004),
    ),
    Curve(
        shape=(12, 12),
        policies=("global-information",),
        patterns=("uniform", "transpose"),
        rates=(0.002, 0.004, 0.006),
        windows=(25, 100, 100),
        oracle=("global-information", "transpose", 0.004),
        seeded_traffic=False,
    ),
)


def warm_up(curves: Sequence[Curve]) -> None:
    """Run every policy once on a tiny mesh (set-up work)."""
    for curve in curves:
        for policy in curve.policies:
            run_throughput_point(
                (6, 6), policy, "uniform", 0.02, faults=1, flits=4, seed=0,
                windows=MeasurementWindows(warmup=5, measure=20, drain=20),
            )


@dataclass
class CurvePass:
    """Everything one pass over the curves measured."""

    wall_s: float = 0.0
    #: Host seconds each policy's whole curve took.
    policy_s: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of each load point, keyed like ``rows``.
    point_s: Dict[Tuple[int, Point], float] = field(default_factory=dict)
    rows: Dict[Tuple[int, Point], Dict[str, float]] = field(default_factory=dict)
    #: Simulated totals over every point's simulator.
    sim: Dict[str, float] = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None
    coverage: float = 0.0


def _add_simulator(totals: Dict[str, float], stats) -> None:
    """Fold one point's ``SimulationStats`` into the pass totals."""
    delivered = stats.delivered_messages
    for key, value in (
        ("steps", stats.steps),
        ("attempts", len(stats.messages)),
        ("delivered", len(delivered)),
        ("detours", sum(r.detours for r in delivered)),
        ("blocked_hops", stats.total_blocked_hops),
        ("timeout_releases", stats.timeout_releases),
        ("link_steps", stats.circuit_link_steps),
    ):
        totals[key] = totals.get(key, 0.0) + value


def run_pass(curves: Sequence[Curve], seed: int, *, traced: bool) -> CurvePass:
    """One pass over every curve; ``traced`` attaches the per-layer hooks."""
    profiler = PhaseProfiler() if traced else None
    tap = SimulatorTap(profiler)
    planner = CallTimer()
    out = CurvePass()
    plan_hook = (
        patched(global_info, "shortest_usable_path",
                planner.wrap(global_info.shortest_usable_path))
        if traced
        else nullcontext()
    )
    with patched(measure, "Simulator", tap), plan_hook:
        start = perf_counter()
        for index, curve in enumerate(curves):
            for point in curve.points():
                began = perf_counter()
                result = curve.run_point(point, seed)
                seconds = perf_counter() - began
                out.policy_s[point[0]] = out.policy_s.get(point[0], 0.0) + seconds
                out.point_s[index, point] = seconds
                out.rows[index, point] = result.to_row()
                # Summarise now: keeping every simulator alive would grow
                # the heap, and with it the time and memory measured.
                _add_simulator(out.sim, tap.pop().stats)
        out.wall_s = perf_counter() - start
    # The mean of each (policy, pattern) curve's peak: over short windows
    # one curve's peak moves by a fifth from seed to seed.  Curves with
    # fixed traffic are left out, as their peaks are the same on every seed.
    peaks: Dict[Tuple[int, str, str], float] = {}
    for (index, (policy, pattern, _)), row in out.rows.items():
        if curves[index].seeded_traffic:
            key = (index, policy, pattern)
            peaks[key] = max(peaks.get(key, 0.0), row["accepted_throughput"])
    out.sim["accepted_peak"] = sum(peaks.values()) / len(peaks)
    out.sim["injected"] = sum(r["injected"] for r in out.rows.values())
    out.sim["delivered_measured"] = sum(r["delivered"] for r in out.rows.values())
    if traced:
        out.layers = simulator_metrics(profiler, planner.seconds)
        out.layers["global_info.plan_s"] = planner.seconds
        out.layers["global_info.plan_calls"] = float(planner.calls)
        for policy, seconds in out.policy_s.items():
            out.layers[f"throughput.point_s.{policy}"] = seconds
        out.coverage = span_coverage(out.layers, planner.seconds)
    return out


def scalar_oracle_mismatches(curves: Sequence[Curve], seed: int, rows) -> List[str]:
    """Each curve's oracle point on the scalar backend vs its row in ``rows``."""
    problems = []
    for index, curve in enumerate(curves):
        with scalar_backend():
            oracle = curve.run_point(curve.oracle, seed).to_row()
        bad = differing(oracle, rows[index, curve.oracle])
        if bad:
            problems.append(f"load point {curve.oracle} differs from the scalar oracle in {bad}")
    return problems
