"""Global-information routing: the idealized baseline, offline and online.

Every node is assumed to know the entire fault configuration at all times,
so the router can always follow a shortest path in the fault-free subgraph.
This is the ideal the traditional "routing table at every node" approach
strives for; the paper's model trades a small number of extra detours for
not having to maintain that table.  The router avoids whole *blocks*
(faulty + disabled nodes), which is what a block-based global scheme would
do and is the fair comparison for the limited-global model.

Offline and online share one planner: the :class:`GlobalPathProbe`
advances one hop per step along the currently shortest path, replanning
whenever the labeling changes — or, under contention, whenever a reserved
circuit fences off the planned link.  Offline,
:meth:`GlobalInfoRouter.route` steps the same probe to completion against
a static labeling.  A probe with no usable path left because of *faults*
reports the destination unreachable; one fenced in only by *reservations*
waits for a circuit to release.

Every plan comes from :func:`shortest_usable_path`, a breadth-first search
over the mesh's flat node indices.  The probe looks it up through this
module's namespace on each replan, so wrapping the module attribute (as
the benchmark's planning timer does) sees every call.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.block_construction import LabelingState
from repro.core.routing import (
    LinkBlocked,
    RouteOutcome,
    RouteResult,
    probe_step_limit,
)
from repro.core.state import InformationState
from repro.mesh.topology import Mesh
from repro.routing.registry import Router, SimulationInfo

Coord = Tuple[int, ...]


def shortest_usable_path(
    mesh: Mesh,
    blocked: Set[Coord],
    source: Coord,
    destination: Coord,
    *,
    link_blocked: Optional[LinkBlocked] = None,
) -> Optional[List[Coord]]:
    """BFS shortest path avoiding ``blocked`` nodes (and reserved links).

    The search runs on the mesh's flat index space
    (:attr:`Mesh.index_graph`): one ``bytearray`` marks the blocked and
    already-discovered nodes and a ``parent`` list indexed by node records
    the search tree, so only the returned path is turned back into
    coordinates.  ``blocked`` holds mesh nodes; ``link_blocked`` is called
    with coordinate tuples from the mesh's coordinate table.

    Deterministic: neighbors are expanded in :attr:`Mesh.directions` order
    (the order of :meth:`Mesh.neighbors`), a node's parent is fixed when it
    is first discovered, and the search stops as soon as it discovers the
    destination, so repeated calls against the same configuration pick the
    same path.
    """
    if source in blocked or destination in blocked:
        return None
    if source == destination:
        return [source]
    coords, adjacency = mesh.index_graph
    src = mesh.index_of(source)
    dst = mesh.index_of(destination)
    shape = mesh.shape
    marked = bytearray(len(coords))
    for node in blocked:
        index = 0
        for c, s in zip(node, shape):
            index = index * s + c
        marked[index] = 1
    marked[src] = 1
    parent = [-1] * len(coords)
    frontier = deque([src])
    pop, push = frontier.popleft, frontier.append
    while frontier:
        node = pop()
        here = coords[node]
        for neighbor in adjacency[node]:
            if marked[neighbor]:
                continue
            if link_blocked is not None and link_blocked(here, coords[neighbor]):
                continue
            parent[neighbor] = node
            if neighbor == dst:
                path = [destination]
                while neighbor != src:
                    neighbor = parent[neighbor]
                    path.append(coords[neighbor])
                path.reverse()
                return path
            marked[neighbor] = 1
            push(neighbor)
    return None


class GlobalPathProbe:
    """One-hop-per-step follower of the globally-known shortest path.

    Contention-free against a static labeling the plan is computed once at
    the first step and then followed hop by hop, so the route is the BFS
    shortest path around the blocks.  The plan is recomputed from the
    probe's current node whenever the labeling mutates or a reserved
    circuit blocks the planned link; a global router never backtracks, so its held circuit is
    simply its path so far.

    Under contention a probe can be *fenced in*: no usable direction left
    because every one is reserved by another circuit.  It then waits in
    place — still holding its own reserved links, so two mutually fenced-in
    probes form a deadlock cycle that probe lifetimes alone would break.
    The timeout-and-release policy bounds that wait: after ``wait_timeout``
    consecutive fenced-in steps the probe releases its whole partial
    circuit, retreats to its source and retries (counted in
    ``timeout_releases``, which the simulator folds into
    :class:`~repro.simulator.stats.SimulationStats`).
    """

    def __init__(
        self,
        mesh: Mesh,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        wait_timeout: Optional[int] = None,
    ) -> None:
        self.mesh = mesh
        self.source = mesh.validate(source)
        self.destination = mesh.validate(destination)
        #: Consecutive fenced-in steps tolerated before the probe releases
        #: its held links and restarts from the source.
        self.wait_timeout = (
            wait_timeout if wait_timeout is not None else 2 * mesh.diameter + 4
        )
        if self.wait_timeout < 1:
            raise ValueError("wait_timeout must be at least 1")
        self.path: List[Coord] = [self.source]
        self.forward_hops = 0
        self.backtrack_hops = 0
        self.blocked_hops = 0
        self.setup_retries = 0
        #: Times the probe timed out fenced in and released its circuit.
        self.timeout_releases = 0
        self._waits_in_place = 0
        self.outcome: Optional[RouteOutcome] = None
        if self.source == self.destination:
            self.outcome = RouteOutcome.DELIVERED
        #: Remaining nodes to visit (current node excluded); ``None`` forces
        #: a replan at the next step.
        self._plan: Optional[List[Coord]] = None
        self._plan_mutations: Optional[int] = None

    @property
    def current(self) -> Coord:
        """Node currently holding the probe."""
        return self.path[-1]

    @property
    def done(self) -> bool:
        """True when the probe reached a terminal outcome."""
        return self.outcome is not None

    @property
    def circuit_stack(self) -> Sequence[Coord]:
        """The held circuit: the whole path (global probes never backtrack)."""
        return self.path

    def step(
        self,
        info: SimulationInfo,
        *,
        link_blocked: Optional[LinkBlocked] = None,
        decision_cache: object = None,
    ) -> Optional[RouteOutcome]:
        """Advance one hop along the current plan, replanning as needed.

        ``decision_cache`` is accepted for interface uniformity with the
        Algorithm-3 probes and ignored: the global probe plans with a BFS,
        not with per-node direction classification.
        """
        if self.done:
            return self.outcome
        labeling = info.labeling
        current = self.path[-1]
        if self._plan is None or self._plan_mutations != labeling.mutations:
            if not self._replan(labeling, current, link_blocked):
                if self.outcome is None:
                    self._fenced_in_wait()
                return self.outcome
        assert self._plan is not None
        nxt = self._plan[0]
        if link_blocked is not None and link_blocked(current, nxt):
            # A circuit grabbed the planned link since the last replan.
            self.blocked_hops += 1
            if not self._replan(labeling, current, link_blocked):
                if self.outcome is None:
                    self._fenced_in_wait()
                return self.outcome
            nxt = self._plan[0]
        self._plan.pop(0)
        self.path.append(nxt)
        self.forward_hops += 1
        self._waits_in_place = 0
        if nxt == self.destination:
            self.outcome = RouteOutcome.DELIVERED
        return self.outcome

    def _fenced_in_wait(self) -> None:
        """One fenced-in step: wait, and time out by releasing the circuit.

        A probe that has waited ``wait_timeout`` consecutive steps while
        holding links gives them all up and retreats to its source, breaking
        any reservation deadlock cycle it participates in.  (At the source
        there is nothing to release, so the probe just keeps waiting.)
        """
        self._waits_in_place += 1
        if self._waits_in_place < self.wait_timeout or len(self.path) < 2:
            return
        self.backtrack_hops += len(self.path) - 1
        self.path = [self.source]
        self.timeout_releases += 1
        self._waits_in_place = 0
        self._plan = None
        self._plan_mutations = None

    def _replan(
        self,
        labeling: LabelingState,
        current: Coord,
        link_blocked: Optional[LinkBlocked],
    ) -> bool:
        """Recompute the plan from ``current``; False when no hop is possible.

        Unreachable because of faults is terminal; fenced in only by
        reservations means wait (count a setup retry, keep no plan so the
        next step replans again).
        """
        blocked = labeling.block_nodes
        plan = shortest_usable_path(
            self.mesh, blocked, current, self.destination, link_blocked=link_blocked
        )
        if plan is not None:
            self._plan = plan[1:]
            self._plan_mutations = labeling.mutations
            return True
        if link_blocked is not None and (
            shortest_usable_path(self.mesh, blocked, current, self.destination)
            is not None
        ):
            self.setup_retries += 1
            self._plan = None
            return False
        self.outcome = RouteOutcome.UNREACHABLE
        return False

    def result(self) -> RouteResult:
        """Snapshot of the probe's statistics (terminal or not)."""
        outcome = self.outcome or RouteOutcome.EXHAUSTED
        return RouteResult(
            outcome=outcome,
            path=list(self.path),
            source=self.source,
            destination=self.destination,
            min_distance=self.mesh.distance(self.source, self.destination),
            forward_hops=self.forward_hops,
            backtrack_hops=self.backtrack_hops,
            blocked_hops=self.blocked_hops,
            setup_retries=self.setup_retries,
        )


class GlobalInfoRouter(Router):
    """Registry adapter for global-information routing (offline + online)."""

    name = "global-information"

    def route(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        max_steps: Optional[int] = None,
    ) -> RouteResult:
        probe = self.probe(mesh, source, destination)
        info = InformationState(mesh=mesh, labeling=labeling)
        limit = max_steps if max_steps is not None else probe_step_limit(mesh)
        for _ in range(limit):
            if probe.step(info) is not None:
                break
        return probe.result()

    def probe(
        self, mesh: Mesh, source: Sequence[int], destination: Sequence[int]
    ) -> GlobalPathProbe:
        return GlobalPathProbe(mesh, source, destination)
