"""The global-information planner: parity with the coordinate BFS, and its hook.

:func:`repro.routing.global_info.shortest_usable_path` searches the mesh's
flat index space.  The coordinate-tuple BFS it replaced is kept here as the
oracle: the two must return equal paths (or both ``None``) on every input,
because every global-information result in the repo is a function of which
shortest path the planner picks.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, strategies as st

import repro.routing.global_info as global_info
from repro.core.block_construction import LabelingState
from repro.core.routing import LinkBlocked, RouteOutcome
from repro.mesh.topology import Coord, Mesh
from repro.routing import resolve_router
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage


def reference_shortest_usable_path(
    mesh: Mesh,
    blocked: Set[Coord],
    source: Coord,
    destination: Coord,
    *,
    link_blocked: Optional[LinkBlocked] = None,
) -> Optional[List[Coord]]:
    """BFS shortest path avoiding ``blocked`` nodes (and reserved links).

    Deterministic: neighbors are expanded in :meth:`Mesh.neighbors` order,
    so repeated calls against the same configuration pick the same path.
    """
    if source in blocked or destination in blocked:
        return None
    if source == destination:
        return [source]
    parents: Dict[Coord, Coord] = {}
    seen: Set[Coord] = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in mesh.neighbors(node):
            if neighbor in seen or neighbor in blocked:
                continue
            if link_blocked is not None and link_blocked(node, neighbor):
                continue
            parents[neighbor] = node
            if neighbor == destination:
                path = [neighbor]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            seen.add(neighbor)
            frontier.append(neighbor)
    return None


MESHES = [
    Mesh((5, 5)),
    Mesh((7, 3)),
    Mesh((3, 3, 3)),
    Mesh((4, 3, 2)),
    Mesh((2, 3, 2, 3)),
    Mesh((3, 3, 3, 3)),
]


def directed_links(mesh: Mesh):
    return [(u, v) for u in mesh.nodes() for v in mesh.neighbors(u)]


@st.composite
def planner_inputs(draw):
    """A mesh, a blocked set, endpoints and an optional link predicate."""
    mesh = draw(st.sampled_from(MESHES))
    coords = mesh.index_graph[0]
    node = st.sampled_from(coords)
    blocked = set(draw(st.sets(node, max_size=mesh.size // 3)))
    source = draw(node)
    destination = draw(st.one_of(node, st.just(source)))
    if draw(st.booleans()):
        # Fence the destination in: every neighbor blocked.
        blocked.update(mesh.neighbors(destination))
    if draw(st.integers(0, 9)) == 0:
        blocked.add(draw(st.sampled_from([source, destination])))
    kind = draw(st.sampled_from(["none", "undirected", "directed"]))
    link_blocked = None
    if kind != "none":
        links = directed_links(mesh)
        held = draw(st.sets(st.sampled_from(links), max_size=len(links) // 2))
        if kind == "undirected":
            slots = {mesh.link_index(u, v) for u, v in held}

            def link_blocked(u, v):
                return mesh.link_index(u, v) in slots

        else:

            def link_blocked(u, v):
                return (u, v) in held

    return mesh, blocked, source, destination, link_blocked


class TestPlannerParity:
    @given(planner_inputs())
    def test_matches_coordinate_bfs(self, case):
        mesh, blocked, source, destination, link_blocked = case
        expected = reference_shortest_usable_path(
            mesh, blocked, source, destination, link_blocked=link_blocked
        )
        got = global_info.shortest_usable_path(
            mesh, blocked, source, destination, link_blocked=link_blocked
        )
        assert got == expected
        if got is not None:
            assert all(type(node) is tuple for node in got)

    @pytest.mark.parametrize("mesh", MESHES, ids=str)
    def test_edge_cases(self, mesh):
        nodes = list(mesh.nodes())
        source, destination = nodes[1], nodes[-2]
        fence = set(mesh.neighbors(destination))
        cases = [
            ({source}, source, destination),  # blocked source
            ({destination}, source, destination),  # blocked destination
            (set(), source, source),  # zero-length route
            (fence, source, destination),  # destination cut off
            (set(), source, destination),
        ]
        for blocked, s, d in cases:
            expected = reference_shortest_usable_path(mesh, blocked, s, d)
            assert global_info.shortest_usable_path(mesh, blocked, s, d) == expected
        assert global_info.shortest_usable_path(mesh, fence, source, destination) is None

    def test_link_predicate_sees_mesh_coordinates(self):
        mesh = Mesh((4, 4, 3))
        calls = []

        def link_blocked(u, v):
            calls.append((u, v))
            return False

        path = global_info.shortest_usable_path(
            mesh, set(), (0, 0, 0), (3, 3, 2), link_blocked=link_blocked
        )
        assert path is not None and len(path) == mesh.diameter + 1
        assert calls
        for u, v in calls:
            assert type(u) is tuple and type(v) is tuple
            assert v in mesh.neighbors(u)


class TestIndexGraph:
    @pytest.mark.parametrize("mesh", [Mesh((6,))] + MESHES, ids=str)
    def test_neighbor_lists_match_mesh_neighbors(self, mesh):
        coords, neighbors = mesh.index_graph
        assert len(coords) == len(neighbors) == mesh.size
        for index, coord in enumerate(coords):
            assert coord == mesh.coord_of(index)
            assert list(neighbors[index]) == [
                mesh.index_of(c) for c in mesh.neighbors(coord)
            ]

    def test_memoized(self):
        mesh = Mesh((5, 4))
        assert mesh.index_graph is mesh.index_graph
        assert mesh.index_graph[0][7] is mesh.coord_of(7)


class _CountingPlanner:
    """Wraps the planner the way the benchmark's planning timer does."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.inner(*args, **kwargs)


class TestPlannerHook:
    """Every replan must reach the planner through the module attribute.

    The benchmark times global-information planning by replacing
    ``repro.routing.global_info.shortest_usable_path``; a probe holding a
    direct reference would silently bypass the timer.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        planner = _CountingPlanner(global_info.shortest_usable_path)
        monkeypatch.setattr(global_info, "shortest_usable_path", planner)
        replans = []
        inner_replan = global_info.GlobalPathProbe._replan

        def replan(probe, *args, **kwargs):
            before = planner.calls
            result = inner_replan(probe, *args, **kwargs)
            replans.append(planner.calls - before)
            return result

        monkeypatch.setattr(global_info.GlobalPathProbe, "_replan", replan)
        return planner, replans

    def test_contended_simulation(self, counted):
        planner, replans = counted
        mesh = Mesh.cube(8, 2)
        traffic = [
            # Two long transfers into the corner hold both of (0,0)'s links,
            TrafficMessage(source=(3, 0), destination=(0, 0), start_time=0, flits=800),
            TrafficMessage(source=(0, 3), destination=(0, 0), start_time=0, flits=800),
            # so a probe leaving the corner mid-hold is fenced in,
            TrafficMessage(source=(0, 0), destination=(3, 3), start_time=4, flits=8),
            # and one crossing their circuits must plan around them.
            TrafficMessage(source=(1, 0), destination=(1, 5), start_time=5, flits=8),
        ]
        config = SimulationConfig(
            contention=True, router="global-information", max_probe_lifetime=500
        )
        stats = Simulator(mesh, traffic=traffic, config=config).run().stats
        assert stats.delivery_rate == 1.0
        assert stats.total_setup_retries > 0  # some replans found the probe fenced in
        assert replans and all(calls >= 1 for calls in replans)
        assert 2 in replans  # a fenced-in replan also checks fault reachability
        assert planner.calls == sum(replans)

    def test_offline_route(self, counted):
        planner, replans = counted
        mesh = Mesh.cube(6, 2)
        labeling = LabelingState(mesh)
        labeling.make_faulty((2, 2))
        result = resolve_router("global-information").route(
            mesh, labeling, (0, 2), (5, 2)
        )
        assert result.outcome is RouteOutcome.DELIVERED
        assert replans == [1]
        assert planner.calls == 1
