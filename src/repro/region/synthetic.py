"""Seeded generator of Azure-like regional fiber maps.

Real region fiber maps are proprietary (the paper's own figures are mock-ups
"that resemble but do not represent Microsoft Azure's network maps"). This
module generates synthetic metro fiber plants with the same character:

* a backbone of fiber huts spread over a few tens of kilometres,
* a duct graph following street-level routing (lengths inflated by a route
  factor over the crow-flies distance),
* enough path diversity that duct cuts leave alternatives (the generator
  repairs the backbone to at least 3-edge-connectivity so that plans
  tolerating 2 cuts exist).

Everything is driven by an explicit :class:`random.Random` seed so ensembles
are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.exceptions import RegionError
from repro.region.fibermap import FiberMap
from repro.region.geometry import Point


@dataclass(frozen=True)
class SyntheticMapConfig:
    """Knobs for the synthetic fiber-map generator.

    ``extent_km``
        Side of the square service region. Azure regions span "tens of
        kilometres"; the ensemble uses 25-50 km.
    ``grid_step_km``
        Spacing of the underlying hut lattice before jitter.
    ``jitter_km``
        Maximum displacement applied to each hut off the lattice.
    ``diagonal_probability``
        Probability of adding each lattice diagonal duct (extra diversity).
    ``skip_probability``
        Probability of *dropping* a lattice duct (maps are not full grids).
    ``route_factor_range``
        Duct fiber length = Euclidean distance x Uniform(range). Street
        routing makes fiber runs longer than geodesics.
    ``min_edge_connectivity``
        The backbone is repaired (shortest missing ducts added) until the
        hut graph is at least this edge-connected.
    """

    extent_km: float = 40.0
    grid_step_km: float = 10.0
    jitter_km: float = 2.5
    diagonal_probability: float = 0.45
    skip_probability: float = 0.10
    route_factor_range: tuple[float, float] = (1.15, 1.45)
    min_edge_connectivity: int = 3

    def __post_init__(self) -> None:
        if self.extent_km <= 0 or self.grid_step_km <= 0:
            raise RegionError("extent and grid step must be positive")
        if self.grid_step_km > self.extent_km:
            raise RegionError("grid step larger than extent")
        lo, hi = self.route_factor_range
        if not (1.0 <= lo <= hi):
            raise RegionError("route factors must be >= 1 and ordered")
        if not (0.0 <= self.diagonal_probability <= 1.0):
            raise RegionError("diagonal_probability must be in [0, 1]")
        if not (0.0 <= self.skip_probability < 1.0):
            raise RegionError("skip_probability must be in [0, 1)")
        if self.min_edge_connectivity < 1:
            raise RegionError("min_edge_connectivity must be >= 1")


def generate_fiber_map(
    seed: int, config: SyntheticMapConfig | None = None
) -> FiberMap:
    """Generate a hut-only fiber map; DCs are added later by placement.

    The construction: jittered lattice of huts; lattice-neighbour ducts with
    occasional skips; random diagonals; route-factor-inflated lengths; then a
    connectivity repair pass.
    """
    config = config or SyntheticMapConfig()
    rng = random.Random(seed)
    fmap = FiberMap()

    steps = max(2, int(round(config.extent_km / config.grid_step_km)))
    coords: dict[tuple[int, int], str] = {}
    for i in range(steps + 1):
        for j in range(steps + 1):
            name = f"H{i}{chr(ord('a') + j)}"
            x = i * config.grid_step_km + rng.uniform(-config.jitter_km, config.jitter_km)
            y = j * config.grid_step_km + rng.uniform(-config.jitter_km, config.jitter_km)
            x = min(max(x, 0.0), config.extent_km)
            y = min(max(y, 0.0), config.extent_km)
            fmap.add_hut(name, x, y)
            coords[(i, j)] = name

    def route_factor() -> float:
        lo, hi = config.route_factor_range
        return rng.uniform(lo, hi)

    def add(u: str, v: str) -> None:
        if not fmap.has_duct(u, v):
            length = fmap.position(u).distance_to(fmap.position(v)) * route_factor()
            fmap.add_duct(u, v, length_km=max(length, 0.25))

    for (i, j), name in coords.items():
        if (i + 1, j) in coords and rng.random() >= config.skip_probability:
            add(name, coords[(i + 1, j)])
        if (i, j + 1) in coords and rng.random() >= config.skip_probability:
            add(name, coords[(i, j + 1)])
        if (i + 1, j + 1) in coords and rng.random() < config.diagonal_probability:
            add(name, coords[(i + 1, j + 1)])
        if (i + 1, j - 1) in coords and rng.random() < config.diagonal_probability:
            add(name, coords[(i + 1, j - 1)])

    _repair_connectivity(fmap, config, rng)
    return fmap


def _repair_connectivity(
    fmap: FiberMap, config: SyntheticMapConfig, rng: random.Random
) -> None:
    """Add shortest missing ducts until the hut backbone is robust enough."""
    # First make it connected at all.
    while len(components := _components(fmap)) > 1:
        best: tuple[float, str, str] | None = None
        for ca, cb in itertools.combinations(map(sorted, components), 2):
            for u in ca:
                pu = fmap.position(u)
                for v in cb:
                    d = pu.distance_to(fmap.position(v))
                    if best is None or d < best[0]:
                        best = (d, u, v)
        assert best is not None
        _, u, v = best
        fmap.add_duct(u, v, length_km=max(best[0] * 1.3, 0.25))

    # Then raise edge connectivity by linking the least-connected nodes to a
    # nearby non-neighbour.
    target = config.min_edge_connectivity
    guard = 0
    while not _is_k_edge_connected(fmap, target):
        guard += 1
        if guard > 200:
            raise RegionError("connectivity repair did not converge")
        nodes = fmap.nodes
        weakest = min(nodes, key=lambda n: (len(fmap.neighbors(n)), n))
        candidates = [
            n for n in nodes if n != weakest and not fmap.has_duct(weakest, n)
        ]
        if not candidates:
            raise RegionError("cannot repair connectivity: graph is complete")
        pw = fmap.position(weakest)
        nearest = min(
            candidates, key=lambda n: (pw.distance_to(fmap.position(n)), n)
        )
        length = pw.distance_to(fmap.position(nearest)) * 1.3
        fmap.add_duct(weakest, nearest, length_km=max(length, 0.25))


def _components(fmap: FiberMap) -> list[set[str]]:
    """The map's connected components in ``nx.connected_components``'
    order: one search from each node not yet reached, in insertion order.
    The repair above breaks distance ties by that order."""
    reached: set[str] = set()
    components = []
    for start in fmap:
        if start in reached:
            continue
        component = {start}
        stack = [start]
        while stack:
            for nbr in fmap.neighbors(stack.pop()):
                if nbr not in component:
                    component.add(nbr)
                    stack.append(nbr)
        reached |= component
        components.append(component)
    return components


def _is_k_edge_connected(fmap: FiberMap, k: int) -> bool:
    """Whether no ``k - 1`` duct cuts can disconnect the map.

    The edge connectivity is the least, over every other node, of the
    number of duct-disjoint paths between it and one fixed node (every
    minimum cut separates the fixed node from some node). So this finds
    up to ``k`` unit augmenting paths from the first node to each other
    node and stops at the first that has fewer; a node of degree below
    ``k`` answers at once.
    """
    nodes = list(fmap)
    if any(len(fmap.neighbors(n)) < k for n in nodes):
        return False
    source = nodes[0]
    for sink in nodes[1:]:
        # flow[u, v] is the flow from u to v, -flow[v, u]; a duct carries
        # at most one unit either way, so u -> v has room while it is < 1.
        flow: dict[tuple[str, str], int] = {}
        for _ in range(k):
            parent = {source: source}
            queue = [source]
            for node in queue:
                if node == sink:
                    break
                for nbr in fmap.neighbors(node):
                    if nbr not in parent and flow.get((node, nbr), 0) < 1:
                        parent[nbr] = node
                        queue.append(nbr)
            if sink not in parent:
                return False
            node = sink
            while node != source:
                prev = parent[node]
                flow[prev, node] = flow.get((prev, node), 0) + 1
                flow[node, prev] = flow.get((node, prev), 0) - 1
                node = prev
    return True


def attach_dc(
    fmap: FiberMap,
    name: str,
    location: Point,
    rng: random.Random,
    attach_count: int = 3,
    stub_route_factor: float = 1.3,
) -> None:
    """Add DC ``name`` at ``location``, ducted to its nearest huts.

    Each DC gets ``attach_count`` access ducts (to distinct huts) so that
    2-cut failure tolerance remains achievable at the access.
    """
    huts = fmap.huts
    if len(huts) < attach_count:
        raise RegionError(
            f"need at least {attach_count} huts to attach a DC, have {len(huts)}"
        )
    fmap.add_dc(name, location.x, location.y)
    ranked = sorted(huts, key=lambda h: (location.distance_to(fmap.position(h)), h))
    for hut in ranked[:attach_count]:
        geo = location.distance_to(fmap.position(hut))
        jitter = rng.uniform(0.95, 1.1)
        fmap.add_duct(name, hut, length_km=max(geo * stub_route_factor * jitter, 0.2))
