"""Congestion workloads for the PCS circuit phase.

The paper's evaluation routes sparse random traffic, where concurrent path
setups rarely meet; these generators deliberately create *contended*
configurations so the simulator's circuit phase (live link reservations,
walk-around, setup retries) has something to measure:

* **hotspot** — a fraction of all messages target one node, so circuits
  funnel into the same few links around it;
* **transpose** — the classic adversarial permutation ``(u_1, ..., u_n) →
  (u_n, ..., u_1)``: every message crosses the mesh diagonal;
* **bursty** — messages arrive in synchronized bursts instead of a smooth
  trickle, so each burst's setups race for the same links at once.

Every builder returns a :class:`~repro.workloads.scenarios.DynamicRoutingScenario`
(optionally with dynamic faults layered on top) and is deterministic in its
``seed``.  :func:`simulate_scenario` names these families plus the sparse
``random`` one, and is how ``repro-mesh simulate`` and simulate-mode sweep
cells build their runs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injection import dynamic_schedule, uniform_random_faults
from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage
from repro.workloads.scenarios import DynamicRoutingScenario, random_dynamic_scenario
from repro.workloads.traffic import random_pairs, to_traffic, transpose_pairs

Coord = Tuple[int, ...]
Pair = Tuple[Coord, Coord]


def hotspot_pairs(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    *,
    hotspot: Optional[Sequence[int]] = None,
    fraction: float = 0.5,
    min_distance: int = 1,
    exclude: Optional[Iterable[Sequence[int]]] = None,
) -> List[Pair]:
    """``count`` pairs of which roughly ``fraction`` target the hotspot node.

    The hotspot defaults to the mesh centre.  Hotspot messages use random
    far-enough sources; the remainder is uniform random traffic, so the
    contention concentrates on the links around the hotspot.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    hot = mesh.validate(hotspot) if hotspot is not None else tuple(
        s // 2 for s in mesh.shape
    )
    excluded = {tuple(e) for e in (exclude or [])}
    excluded.discard(hot)
    hot_count = round(count * fraction)
    candidates = [
        node
        for node in mesh.nodes()
        if node not in excluded
        and node != hot
        and mesh.distance(node, hot) >= min_distance
    ]
    if hot_count and not candidates:
        raise ValueError(
            f"no usable hotspot sources at distance >= {min_distance} from {hot}"
        )
    pairs: List[Pair] = [
        (candidates[int(i)], hot)
        for i in rng.integers(0, len(candidates), size=hot_count)
    ]
    pairs += random_pairs(
        mesh, count - len(pairs), rng, min_distance=min_distance, exclude=excluded
    )
    return pairs


def hotspot_scenario(
    *,
    shape: Sequence[int] = (10, 10),
    messages: int = 24,
    hotspot: Optional[Sequence[int]] = None,
    fraction: float = 0.5,
    dynamic_faults: int = 0,
    interval: int = 10,
    spacing: int = 1,
    flits: int = 64,
    seed: int = 0,
) -> DynamicRoutingScenario:
    """Hotspot traffic (plus optional dynamic faults) on a rectangular mesh."""
    rng = np.random.default_rng(seed)
    mesh = Mesh(tuple(shape))
    fault_nodes = uniform_random_faults(mesh, dynamic_faults, rng, margin=1)
    schedule = dynamic_schedule(fault_nodes, start_time=2, interval=interval)
    pairs = hotspot_pairs(
        mesh,
        messages,
        rng,
        hotspot=hotspot,
        fraction=fraction,
        min_distance=max(1, mesh.diameter // 3),
        exclude=fault_nodes,
    )
    traffic = to_traffic(pairs, start_time=0, spacing=spacing, tag="hotspot", flits=flits)
    return DynamicRoutingScenario(
        name=f"hotspot-{mesh.n_dims}d-m{messages}",
        mesh=mesh,
        schedule=schedule,
        traffic=tuple(traffic),
    )


def transpose_scenario(
    *,
    radix: int = 8,
    n_dims: int = 2,
    limit: Optional[int] = None,
    dynamic_faults: int = 0,
    interval: int = 10,
    spacing: int = 0,
    flits: int = 64,
    seed: int = 0,
) -> DynamicRoutingScenario:
    """Transpose-permutation traffic: every node sends across the diagonal.

    With ``spacing=0`` all messages are injected at step 0 — the maximally
    contended variant; ``limit`` caps the number of pairs for small runs.
    """
    rng = np.random.default_rng(seed)
    mesh = Mesh.cube(radix, n_dims)
    fault_nodes = uniform_random_faults(mesh, dynamic_faults, rng, margin=1)
    schedule = dynamic_schedule(fault_nodes, start_time=2, interval=interval)
    pairs = [
        (s, d)
        for s, d in transpose_pairs(mesh, limit=limit)
        if s not in set(fault_nodes) and d not in set(fault_nodes)
    ]
    traffic = to_traffic(pairs, start_time=0, spacing=spacing, tag="transpose", flits=flits)
    return DynamicRoutingScenario(
        name=f"transpose-{n_dims}d-k{radix}",
        mesh=mesh,
        schedule=schedule,
        traffic=tuple(traffic),
    )


def bursty_scenario(
    *,
    shape: Sequence[int] = (10, 10),
    bursts: int = 4,
    burst_size: int = 6,
    burst_interval: int = 12,
    dynamic_faults: int = 0,
    interval: int = 10,
    flits: int = 64,
    seed: int = 0,
) -> DynamicRoutingScenario:
    """Bursty arrivals: ``bursts`` waves of ``burst_size`` simultaneous setups.

    All messages of one burst start at the same step, so their probes race
    for links; successive bursts are ``burst_interval`` steps apart, which
    also interacts with circuit hold times (a long-held circuit from one
    burst can still fence in the next).
    """
    if bursts < 1 or burst_size < 1:
        raise ValueError("bursts and burst_size must be at least 1")
    rng = np.random.default_rng(seed)
    mesh = Mesh(tuple(shape))
    fault_nodes = uniform_random_faults(mesh, dynamic_faults, rng, margin=1)
    schedule = dynamic_schedule(fault_nodes, start_time=2, interval=interval)
    messages: List[TrafficMessage] = []
    for burst in range(bursts):
        pairs = random_pairs(
            mesh,
            burst_size,
            rng,
            min_distance=max(1, mesh.diameter // 2),
            exclude=fault_nodes,
        )
        messages += to_traffic(
            pairs,
            start_time=burst * burst_interval,
            spacing=0,
            tag=f"burst-{burst}",
            flits=flits,
        )
    return DynamicRoutingScenario(
        name=f"bursty-{mesh.n_dims}d-b{bursts}x{burst_size}",
        mesh=mesh,
        schedule=schedule,
        traffic=tuple(messages),
    )


def simulate_scenario(
    family: str,
    *,
    shape: Sequence[int],
    messages: int,
    dynamic_faults: int,
    interval: int,
    flits: int,
    seed: int,
) -> DynamicRoutingScenario:
    """One closed-batch run of traffic ``family`` on a ``shape`` mesh.

    ``family`` is ``"random"``, ``"hotspot"``, ``"transpose"`` (cubic
    meshes only) or ``"bursty"``; ``messages`` sizes the batch (the
    transpose pair cap, or about six-message bursts).
    """
    if family == "hotspot":
        return hotspot_scenario(
            shape=shape,
            messages=messages,
            dynamic_faults=dynamic_faults,
            interval=interval,
            flits=flits,
            seed=seed,
        )
    if family == "transpose":
        if len(set(shape)) != 1:
            raise ValueError(
                f"transpose traffic requires a uniform (cubic) mesh, got {tuple(shape)}"
            )
        return transpose_scenario(
            radix=shape[0],
            n_dims=len(shape),
            limit=messages,
            dynamic_faults=dynamic_faults,
            interval=interval,
            flits=flits,
            seed=seed,
        )
    if family == "bursty":
        return bursty_scenario(
            shape=shape,
            bursts=max(1, messages // 6),
            burst_size=min(6, messages),
            dynamic_faults=dynamic_faults,
            interval=interval,
            flits=flits,
            seed=seed,
        )
    if family == "random":
        return random_dynamic_scenario(
            shape=shape,
            dynamic_faults=dynamic_faults,
            interval=interval,
            messages=messages,
            flits=flits,
            seed=seed,
        )
    raise ValueError(f"unknown simulate scenario {family!r}")
