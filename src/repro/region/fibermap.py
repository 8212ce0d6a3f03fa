"""Fiber maps and region specifications (§2 of the paper).

A :class:`FiberMap` is the graph of DC sites, fiber huts, and fiber ducts
available in a region. Duct capacity (how many fibers to lease in each duct)
is an *output* of planning, not part of the map: per industry practice each
duct contains hundreds of fibers, of which only a fraction is lit.

A :class:`RegionSpec` bundles the map with the planner's other inputs: per-DC
network capacities (in fibers), the DWDM channel plan, and the operational
constraints (OC1-OC4).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.geometry import Point
from repro.units import (
    GBPS_PER_WAVELENGTH_400ZR,
    MAX_SPAN_KM,
    SLA_MAX_FIBER_KM,
)

#: A duct is identified by its endpoint pair in canonical (sorted) order.
Duct = tuple[str, str]


def duct_key(u: str, v: str) -> Duct:
    """Canonical identifier for the duct between nodes ``u`` and ``v``."""
    if u == v:
        raise RegionError(f"duct endpoints must differ, got {u!r} twice")
    return (u, v) if u <= v else (v, u)


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical identifier for an unordered DC pair."""
    if a == b:
        raise RegionError(f"DC pair endpoints must differ, got {a!r} twice")
    return (a, b) if a <= b else (b, a)


class NodeKind(enum.Enum):
    """The two node types of a fiber map (§2: DCs and fiber huts)."""

    DC = "dc"
    HUT = "hut"


#: One duct as an end node lists it: (other end, length_km, duct key).
_Edge = tuple[str, float, Duct]


class FiberMap:
    """The region's available fiber plant: DCs, huts, and ducts.

    An undirected graph in plain dicts: nodes carry a ``kind`` and planar
    ``(x, y)`` coordinates in km, ducts their fiber ``length_km``. Each
    node lists its ducts in the order they were added, and that order is
    the tie-break contract of every shortest path (see :meth:`dijkstra`).
    Adding, removing and copying keep the orders networkx's ``Graph``
    does, so plans are the same bytes as when the map was one.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, tuple[NodeKind, float, float]] = {}
        self._adj: dict[str, list[_Edge]] = {}
        #: Duct -> length, in the order the ducts were added: every node's
        #: list above is in this order too.
        self._ducts: dict[Duct, float] = {}

    # -- construction -------------------------------------------------------

    def add_hut(self, name: str, x: float, y: float) -> None:
        """Add a fiber hut (intermediate switching/amplification site)."""
        self._add_node(name, NodeKind.HUT, x, y)

    def add_dc(self, name: str, x: float, y: float) -> None:
        """Add a data center site."""
        self._add_node(name, NodeKind.DC, x, y)

    def _add_node(self, name: str, kind: NodeKind, x: float, y: float) -> None:
        if name in self._nodes:
            raise RegionError(f"node {name!r} already exists")
        self._nodes[name] = (kind, float(x), float(y))
        self._adj[name] = []

    def add_duct(self, u: str, v: str, length_km: float | None = None) -> Duct:
        """Add a fiber duct between two existing nodes.

        ``length_km`` defaults to the Euclidean distance between the nodes
        (i.e. a route factor of 1); synthetic maps generally pass an inflated
        length to model street-level routing.
        """
        for n in (u, v):
            if n not in self._nodes:
                raise RegionError(f"cannot add duct: unknown node {n!r}")
        key = duct_key(u, v)
        if key in self._ducts:
            raise RegionError(f"duct {key} already exists")
        if length_km is None:
            length_km = self.position(u).distance_to(self.position(v))
        if length_km <= 0:
            raise RegionError(f"duct {key} must have positive length")
        self._link(u, v, float(length_km), key)
        return key

    def _link(self, u: str, v: str, length_km: float, key: Duct) -> None:
        self._ducts[key] = length_km
        self._adj[u].append((v, length_km, key))
        self._adj[v].append((u, length_km, key))

    def remove_duct(self, u: str, v: str) -> None:
        """Remove a duct (used when pruning spans beyond TC1 reach)."""
        if not self.has_duct(u, v):
            raise RegionError(f"no duct between {u!r} and {v!r}")
        del self._ducts[duct_key(u, v)]
        self._adj[u] = [edge for edge in self._adj[u] if edge[0] != v]
        self._adj[v] = [edge for edge in self._adj[v] if edge[0] != u]

    def remove_node(self, name: str) -> None:
        """Remove a node and every duct incident to it.

        Used when a DC (or hut) site leaves the region entirely — e.g. a
        ``dc_detached`` delta; its tie-in ducts go with it.
        """
        if name not in self._nodes:
            raise RegionError(f"cannot remove unknown node {name!r}")
        del self._nodes[name]
        for v, _, key in self._adj.pop(name):
            del self._ducts[key]
            self._adj[v] = [edge for edge in self._adj[v] if edge[0] != name]

    def copy(self) -> "FiberMap":
        """An independent copy of this map, built as ``nx.Graph.copy()``
        builds one: the nodes in order, then each node's ducts in its own
        order, a duct placed at the first of its two visits. A node can
        list its neighbours in another order than here (after B-C then
        A-B, B lists C, A; its copy lists A, C), and the copy's order is
        the one its shortest paths follow.
        """
        clone = FiberMap()
        clone._nodes = dict(self._nodes)
        clone._adj = {name: [] for name in self._nodes}
        for u, edges in self._adj.items():
            for v, length_km, key in edges:
                if key not in clone._ducts:
                    clone._link(u, v, length_km, key)
        return clone

    # -- inspection ----------------------------------------------------------

    @property
    def dcs(self) -> list[str]:
        """Names of all DC nodes, sorted."""
        return sorted(n for n, d in self._nodes.items() if d[0] is NodeKind.DC)

    @property
    def huts(self) -> list[str]:
        """Names of all hut nodes, sorted."""
        return sorted(n for n, d in self._nodes.items() if d[0] is NodeKind.HUT)

    @property
    def nodes(self) -> list[str]:
        """All node names, sorted."""
        return sorted(self._nodes)

    @property
    def ducts(self) -> list[Duct]:
        """All duct keys, sorted."""
        return sorted(self._ducts)

    def kind(self, name: str) -> NodeKind:
        """The :class:`NodeKind` of node ``name``."""
        return self._node(name)[0]

    def position(self, name: str) -> Point:
        """Planar position of node ``name``."""
        _, x, y = self._node(name)
        return Point(x, y)

    def _node(self, name: str) -> tuple[NodeKind, float, float]:
        try:
            return self._nodes[name]
        except KeyError:
            raise RegionError(f"unknown node {name!r}") from None

    def neighbors(self, name: str) -> list[str]:
        """The nodes ducted to ``name``, in the order its ducts were added."""
        self._node(name)
        return [v for v, _, _ in self._adj[name]]

    def duct_length(self, u: str, v: str) -> float:
        """Fiber length of the duct between ``u`` and ``v`` in km."""
        length = self._ducts.get((u, v) if u <= v else (v, u))
        if length is None:
            raise RegionError(f"no duct between {u!r} and {v!r}")
        return length

    def has_duct(self, u: str, v: str) -> bool:
        """Whether a duct exists between ``u`` and ``v``."""
        return ((u, v) if u <= v else (v, u)) in self._ducts

    def dc_pairs(self) -> list[tuple[str, str]]:
        """All unordered DC pairs, canonically ordered."""
        return [pair_key(a, b) for a, b in itertools.combinations(self.dcs, 2)]

    # -- paths ----------------------------------------------------------------

    def dijkstra(
        self,
        source: str,
        targets: Iterable[str] = (),
        cut: Collection[Duct] = (),
    ) -> tuple[dict[str, float], dict[str, str], bool]:
        """Dijkstra from ``source`` without the ``cut`` ducts (canonical
        keys), stopped once every node in ``targets`` has settled; with no
        targets, every reachable node settles. Returns the settled nodes'
        distances, in settle order, every reached node's predecessor, and
        whether the search met a tie: a relaxation whose distance exactly
        equalled the node's tentative one.

        The tie-breaks are networkx's (``single_source_dijkstra``):
        neighbours relax in adjacency order, heap entries are ``(dist,
        push_counter, node)``, a predecessor is replaced only on a strict
        improvement, and distances are summed as ``dist + length_km``. A
        settled node's distance and predecessor never change again, so
        stopping early returns the same routes to the targets as a full
        search. A search without a tie found, for every settled node, the
        one route of least length; Algorithm 1's enumeration reuses such
        routes in failure scenarios that leave them intact (see
        :mod:`repro.core.topology`). Raises :class:`RegionError` for an
        unknown ``source``.
        """
        adjacency = self._adj
        if source not in adjacency:
            raise RegionError(f"unknown node {source!r}")
        dist: dict[str, float] = {}
        seen: dict[str, float] = {source: 0}
        pred: dict[str, str] = {}
        fringe: list[tuple[float, int, str]] = [(0, 0, source)]
        pushes = 1
        tied = False
        waiting = set(targets)
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            if v in waiting:
                waiting.remove(v)
                if not waiting:
                    break
            for u, length_km, duct in adjacency[v]:
                if u in dist or duct in cut:
                    continue
                du = d + length_km
                if u not in seen or du < seen[u]:
                    seen[u] = du
                    pred[u] = v
                    heappush(fringe, (du, pushes, u))
                    pushes += 1
                # Exact on purpose: a tie is an equal sum, nothing looser.
                elif du == seen[u]:  # repro: noqa-R003
                    tied = True
        return dist, pred, tied

    def shortest_path(
        self, a: str, b: str, exclude_ducts: Iterable[Duct] = ()
    ) -> tuple[float, list[str]]:
        """Shortest fiber path from ``a`` to ``b``, optionally under failures.

        Returns ``(length_km, node_list)``. Raises
        :class:`InfeasibleRegionError` if the cut leaves them disconnected
        and :class:`RegionError` for an unknown node.
        """
        self._node(b)
        cut = _canonical(exclude_ducts)
        dist, pred, _ = self.dijkstra(a, (b,), cut)
        if b not in dist:
            raise InfeasibleRegionError(
                f"no fiber path from {a!r} to {b!r} with ducts {sorted(cut)} cut",
                pair=pair_key(a, b),
            )
        return dist[b], _route(pred, a, b)

    def fiber_distance(self, a: str, b: str) -> float:
        """Shortest-path fiber distance between two nodes, km."""
        return self.shortest_path(a, b)[0]

    def shortest_paths_from(
        self, source: str, exclude_ducts: Iterable[Duct] = ()
    ) -> tuple[dict[str, float], dict[str, list[str]]]:
        """Dijkstra distances and paths from ``source`` to every node."""
        dist, pred, _ = self.dijkstra(source, (), _canonical(exclude_ducts))
        return dist, {node: _route(pred, source, node) for node in dist}

    def subgraph_without(self, failed_ducts: Iterable[Duct]) -> Any:
        """A ``networkx.Graph`` copy of the map with ``failed_ducts`` removed.

        A "fiber cut" in the paper is a duct destruction: all fibers in the
        duct are lost at once (OC4), so removal is at duct granularity.

        Only the tests' reference searches and the benchmark suite's
        bypass deltas use it; nothing in the package does. Every node
        lists its neighbours in this map's own order, because the ducts
        are added in the order this map gained them.
        """
        import networkx as nx

        excluded = _canonical(failed_ducts)
        graph = nx.Graph()
        for name, (kind, x, y) in self._nodes.items():
            graph.add_node(name, kind=kind, x=x, y=y)
        graph.add_edges_from(
            (u, v, {"length_km": length_km})
            for (u, v), length_km in self._ducts.items()
            if (u, v) not in excluded
        )
        return graph

    def path_length(self, path: Sequence[str]) -> float:
        """Total fiber length of an explicit node path, km."""
        if len(path) < 2:
            return 0.0
        return sum(self.duct_length(u, v) for u, v in zip(path, path[1:]))

    def path_ducts(self, path: Sequence[str]) -> list[Duct]:
        """The ducts traversed by an explicit node path."""
        return [duct_key(u, v) for u, v in zip(path, path[1:])]

    # -- misc ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        """Node names in the order they were added (not sorted)."""
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"FiberMap(dcs={len(self.dcs)}, huts={len(self.huts)}, "
            f"ducts={len(self._ducts)})"
        )


def _canonical(ducts: Iterable[Duct]) -> set[Duct]:
    return {duct_key(u, v) for u, v in ducts}


def _route(pred: Mapping[str, str], source: str, target: str) -> list[str]:
    """The ``source`` -> ``target`` path a predecessor map holds."""
    route = [target]
    while route[-1] != source:
        route.append(pred[route[-1]])
    route.reverse()
    return route


@dataclass(frozen=True)
class OperationalConstraints:
    """The operational constraints OC1-OC4 of §3.1.

    ``sla_fiber_km``
        OC1: maximum DC-DC fiber distance implied by the latency SLA.
    ``failure_tolerance``
        OC4: number of simultaneous duct cuts that must be tolerated while
        OC1-OC3 continue to hold.
    ``require_shortest_path``
        OC3: route every DC pair over its shortest available physical path.
    ``max_span_km``
        TC1 (kept here because it prunes the input graph): longest duct that
        can be operated point-to-point without in-line amplification.
    """

    sla_fiber_km: float = SLA_MAX_FIBER_KM
    failure_tolerance: int = 2
    require_shortest_path: bool = True
    max_span_km: float = MAX_SPAN_KM

    def __post_init__(self) -> None:
        if self.sla_fiber_km <= 0:
            raise RegionError("SLA fiber distance must be positive")
        if self.failure_tolerance < 0:
            raise RegionError("failure tolerance must be non-negative")
        if self.max_span_km <= 0:
            raise RegionError("max span must be positive")


@dataclass(frozen=True)
class RegionSpec:
    """Everything the network designer is handed (§2): the three inputs.

    ``fiber_map``
        DC sites, fiber huts, and available ducts.
    ``dc_fibers``
        Per-DC network capacity expressed in fibers: capacity B Gbps
        translates to B / (C * lambda) fibers (§2).
    ``wavelengths_per_fiber``
        DWDM channel count per fiber (lambda; 40-64 in the paper).
    ``gbps_per_wavelength``
        Line rate per wavelength (C; 400 for 400ZR).
    ``constraints``
        Operational constraints OC1-OC4.
    """

    fiber_map: FiberMap
    dc_fibers: Mapping[str, int]
    wavelengths_per_fiber: int = 40
    gbps_per_wavelength: float = GBPS_PER_WAVELENGTH_400ZR
    constraints: OperationalConstraints = field(default_factory=OperationalConstraints)

    def __post_init__(self) -> None:
        dcs = set(self.fiber_map.dcs)
        declared = set(self.dc_fibers)
        if declared != dcs:
            missing = dcs - declared
            extra = declared - dcs
            raise RegionError(
                "dc_fibers must cover exactly the map's DCs; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        for dc, fibers in self.dc_fibers.items():
            if not isinstance(fibers, int) or fibers <= 0:
                raise RegionError(f"DC {dc!r} capacity must be a positive int")
        if self.wavelengths_per_fiber <= 0:
            raise RegionError("wavelengths_per_fiber must be positive")
        if self.gbps_per_wavelength <= 0:
            raise RegionError("gbps_per_wavelength must be positive")

    @property
    def dcs(self) -> list[str]:
        """Names of the region's DCs, sorted."""
        return self.fiber_map.dcs

    def fibers(self, dc: str) -> int:
        """Capacity of ``dc`` in fibers."""
        try:
            return self.dc_fibers[dc]
        except KeyError:
            raise RegionError(f"unknown DC {dc!r}") from None

    def capacity_gbps(self, dc: str) -> float:
        """Capacity of ``dc`` in Gbps."""
        return self.fibers(dc) * self.wavelengths_per_fiber * self.gbps_per_wavelength

    def transceivers(self, dc: str) -> int:
        """Electrical ports / transceivers P = B / C required at ``dc`` (§2)."""
        return self.fibers(dc) * self.wavelengths_per_fiber

    def total_fibers(self) -> int:
        """Sum of all DC capacities in fibers."""
        return sum(self.dc_fibers.values())

    def pair_demand_fibers(self, a: str, b: str) -> int:
        """Worst-case hose demand of a DC pair: min of the two capacities."""
        return min(self.fibers(a), self.fibers(b))

    def iter_pairs(self) -> Iterator[tuple[str, str]]:
        """Iterate canonical DC pairs."""
        return iter(self.fiber_map.dc_pairs())
