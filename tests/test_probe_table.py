"""Parity suite for the struct-of-arrays probe engine.

The probe table (:mod:`repro.core.probe_table`) replaces per-object
:class:`~repro.core.routing.RoutingProbe` stepping with flat-column array
passes; the scalar objects remain the oracle.  This suite holds the two to
byte-identity — per-message outcomes and paths AND the aggregated
:class:`SimulationStats` summary — across every registered routing policy,
with and without circuit contention, over all four closed-batch traffic
scenarios, plus randomized configurations.  The stacked sweep engine
(``run_batch(engine="auto")``) is held to the same bar at the JSON
export level: a multi-shape, multi-policy grid must serialize identically
to the serial runner's output.

Every Algorithm-3 router runs on the table, static-block included (its
decisions read the adjacent-only view the router rebuilds on every
labeling change).  ``global-information`` plans with a BFS and constructs
with ``sim._table is None`` already; for it the comparison degenerates to
a determinism check of the object path, which keeps the matrix uniform and
guards the eligibility gate itself.
"""

import numpy as np
import pytest

from repro.backend import VECTOR, resolve_backend
from repro.experiments import ExperimentSpec, run_batch
from repro.experiments.runner import _build_simulate_sim
from repro.routing import available_routers

POLICIES = available_routers()
SCENARIOS = ("random", "hotspot", "transpose", "bursty")


def _cell(policy, scenario, contention, *, shape=(6, 6), faults=2,
          messages=10, seed=3, flits=16, interval=6):
    spec = ExperimentSpec(
        name="probe-parity",
        mode="simulate",
        mesh_shapes=(shape,),
        policies=(policy,),
        scenarios=(scenario,),
        fault_counts=(faults,),
        fault_intervals=(interval,),
        lams=(2,),
        traffic_sizes=(messages,),
        seeds=(seed,),
        contention=contention,
        flits=(flits,),
    )
    (cell,) = spec.cells()
    return cell


def _fingerprint(stats):
    """SimulationStats summary plus per-message outcome/path."""
    return (
        stats.summary(),
        [
            (m.message.source, m.message.destination, m.result.outcome,
             tuple(m.result.path), m.result.hops,
             m.result.blocked_hops, m.result.setup_retries)
            for m in stats.messages
        ],
    )


def _run(cell, table):
    sim = _build_simulate_sim(cell)
    if not table:
        sim._table = None  # force the scalar per-object oracle path
    return sim.run().stats


class TestProbeTableScalarParity:
    @pytest.mark.parametrize("contention", (False, True),
                             ids=("uncontended", "contended"))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_parity_policy_scenario_contention(self, policy, scenario, contention):
        cell = _cell(policy, scenario, contention)
        assert _fingerprint(_run(cell, True)) == _fingerprint(_run(cell, False))

    def test_parity_randomized_configurations(self):
        """Randomly drawn grid points, fixed stream so failures reproduce."""
        rng = np.random.default_rng(20260807)
        for _ in range(8):
            cell = _cell(
                policy=POLICIES[rng.integers(len(POLICIES))],
                scenario=SCENARIOS[rng.integers(len(SCENARIOS))],
                contention=bool(rng.integers(2)),
                shape=(int(rng.integers(5, 9)),) * 2,
                faults=int(rng.integers(0, 4)),
                messages=int(rng.integers(4, 16)),
                seed=int(rng.integers(1 << 16)),
                flits=int(rng.integers(4, 48)),
            )
            assert _fingerprint(_run(cell, True)) == _fingerprint(_run(cell, False)), cell

    @pytest.mark.parametrize("shape", ((8, 8), (4, 4, 4)))
    def test_parity_static_block_dynamic_faults_contended(self, shape):
        """Faults land while static-block probes are in flight: each
        labeling change rebuilds the adjacent-only view, and the table's
        decision tables must follow every rebuild."""
        cell = _cell("static-block", "random", True, shape=shape, faults=4,
                     messages=24, seed=5, interval=2)
        table_stats = _run(cell, True)
        assert len(table_stats.convergence) == 4  # every fault fired mid-run
        assert _fingerprint(table_stats) == _fingerprint(_run(cell, False))

    @pytest.mark.parametrize("policy", ("limited-global", "static-block"))
    def test_table_engaged_for_algorithm_policies(self, policy):
        """The matrix above only means something if eligible cells really
        run on the table: guard the eligibility gate in both directions.
        Under the scalar backend no cell is eligible — the table requires
        the vector decision engine."""
        eligible = _build_simulate_sim(_cell(policy, "random", True))._table
        if resolve_backend() == VECTOR:
            assert eligible is not None
        else:
            assert eligible is None

    def test_table_not_engaged_for_global_information(self):
        cell = _cell("global-information", "random", True)
        assert _build_simulate_sim(cell)._table is None


class TestStackedSweepParity:
    def test_parity_stacked_json_matches_serial(self):
        """Multi-shape, multi-policy grid: stacked JSON == serial JSON.

        The grid deliberately mixes two mesh shapes (two stacked groups),
        static-block cells stacked beside the limited-global family, a
        probe-table-ineligible policy (per-cell serial fallback inside the
        stacked runner) and contended circuit setup.
        """
        spec = ExperimentSpec(
            name="stacked-parity",
            mode="simulate",
            mesh_shapes=((6, 6), (8, 8)),
            policies=("limited-global", "no-information", "static-block",
                      "global-information"),
            scenarios=("transpose",),
            fault_counts=(2,),
            fault_intervals=(5,),
            lams=(2,),
            traffic_sizes=(8,),
            seeds=(0, 1),
            contention=True,
            flits=(16,),
        )
        serial = run_batch(spec, engine="serial")
        stacked = run_batch(spec, engine="auto")
        assert stacked.to_json() == serial.to_json()

    def test_parity_stacked_uncontended(self):
        spec = ExperimentSpec(
            name="stacked-parity-nc",
            mode="simulate",
            mesh_shapes=((7, 7),),
            policies=("limited-global", "boundary-only"),
            scenarios=("random",),
            fault_counts=(3,),
            fault_intervals=(4,),
            lams=(1,),
            traffic_sizes=(10,),
            seeds=(0, 1, 2),
        )
        assert (
            run_batch(spec, engine="auto").to_json()
            == run_batch(spec, engine="serial").to_json()
        )
