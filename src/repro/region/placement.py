"""Randomized DC placement on a fiber map (the §6.1 procedure).

The paper evaluates on 10 real fiber maps with a randomized placement of
n in {5, 10, 15, 20} DCs: "the first DC is placed uniformly at random in the
service area, and each successive DC is placed randomly (in the more
restricted service area given reach from already placed DCs) with probability
of a candidate location being inversely proportional to its distance from the
nearest already placed DC."

This module reimplements that procedure on synthetic maps. Candidate
locations are a sampling grid over the region; reach is measured as *fiber*
distance through the map (candidate stubs to its nearest huts, then shortest
path), exactly as a deployment team would measure it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import RegionError
from repro.region.fibermap import FiberMap
from repro.region.geometry import Point, grid_points
from repro.region.synthetic import attach_dc
from repro.units import SLA_MAX_FIBER_KM


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for randomized DC placement.

    ``sla_fiber_km``
        Maximum fiber distance allowed between any two DCs (OC1).
    ``attach_count``
        Access ducts built from each new DC to its nearest huts.
    ``stub_route_factor``
        Street-routing inflation for the access stubs.
    ``candidate_spacing_km``
        Sampling grid pitch for candidate sites.
    ``min_separation_km``
        Never place two DCs closer than this (sites are distinct facilities).
    """

    sla_fiber_km: float = SLA_MAX_FIBER_KM
    attach_count: int = 3
    stub_route_factor: float = 1.3
    candidate_spacing_km: float = 2.0
    min_separation_km: float = 2.0


def candidate_stub_distances(
    fmap: FiberMap,
    candidates: Sequence[Point],
    attach_count: int,
    stub_route_factor: float,
) -> list[list[tuple[str, float]]]:
    """For each candidate, its ``attach_count`` nearest huts and stub lengths."""
    huts = fmap.huts
    if not huts:
        raise RegionError("fiber map has no huts")
    out: list[list[tuple[str, float]]] = []
    positions = {h: fmap.position(h) for h in huts}
    for point in candidates:
        ranked = sorted(huts, key=lambda h: (point.distance_to(positions[h]), h))
        chosen = ranked[: min(attach_count, len(ranked))]
        out.append(
            [(h, point.distance_to(positions[h]) * stub_route_factor) for h in chosen]
        )
    return out


def candidate_fiber_distance(
    stubs: Sequence[tuple[str, float]], dist_from_target: Mapping[str, float]
) -> float:
    """Fiber distance from a candidate to a target node.

    ``stubs`` is the candidate's (hut, stub_km) attachment list and
    ``dist_from_target`` the Dijkstra distance map rooted at the target.
    Unreachable huts are skipped; returns ``inf`` if none is reachable.
    """
    best = float("inf")
    for hut, stub_km in stubs:
        through = dist_from_target.get(hut)
        if through is not None:
            best = min(best, stub_km + through)
    return best


def node_distance_maps(
    fmap: FiberMap, targets: Sequence[str]
) -> dict[str, dict[str, float]]:
    """Dijkstra distance maps rooted at each target node."""
    return {target: fmap.dijkstra(target)[0] for target in targets}


def place_dcs(
    fmap: FiberMap,
    count: int,
    seed: int,
    config: PlacementConfig | None = None,
    extent_km: float | None = None,
) -> list[str]:
    """Place ``count`` DCs on ``fmap`` per the §6.1 procedure. Mutates the map.

    Returns the new DC names (``DC1`` .. ``DCn``). Raises
    :class:`RegionError` if the feasible area empties before ``count`` DCs
    are placed (the caller should retry with another seed or a larger map).
    """
    config = config or PlacementConfig()
    if count < 1:
        raise RegionError("must place at least one DC")
    rng = random.Random(seed)

    if extent_km is None:
        xs = [fmap.position(n).x for n in fmap.nodes]
        ys = [fmap.position(n).y for n in fmap.nodes]
        extent_km = max(max(xs) - min(xs), max(ys) - min(ys))
    candidates = grid_points(extent_km, config.candidate_spacing_km)
    stubs = candidate_stub_distances(
        fmap, candidates, config.attach_count, config.stub_route_factor
    )

    placed: list[str] = []
    placed_points: list[Point] = []
    dist_maps: dict[str, dict[str, float]] = {}
    available = list(range(len(candidates)))

    for index in range(count):
        feasible: list[int] = []
        weights: list[float] = []
        for ci in available:
            point = candidates[ci]
            if placed_points:
                nearest_geo = min(point.distance_to(p) for p in placed_points)
                if nearest_geo < config.min_separation_km:
                    continue
                reach_ok = all(
                    candidate_fiber_distance(stubs[ci], dist_maps[dc])
                    <= config.sla_fiber_km
                    for dc in placed
                )
                if not reach_ok:
                    continue
                weights.append(1.0 / max(nearest_geo, 1e-3))
            else:
                weights.append(1.0)
            feasible.append(ci)

        if not feasible:
            raise RegionError(
                f"no feasible candidate for DC {index + 1} of {count} "
                f"(seed {seed}); feasible area exhausted"
            )
        chosen = rng.choices(feasible, weights=weights[: len(feasible)], k=1)[0]
        point = candidates[chosen]
        name = f"DC{index + 1}"
        attach_dc(
            fmap,
            name,
            point,
            rng,
            attach_count=config.attach_count,
            stub_route_factor=config.stub_route_factor,
        )
        placed.append(name)
        placed_points.append(point)
        dist_maps[name] = fmap.dijkstra(name)[0]
        available.remove(chosen)

    return placed


def choose_hubs(
    fmap: FiberMap, separation_km: tuple[float, float], seed: int = 0
) -> tuple[str, str]:
    """Pick two huts to act as the centralized design's hubs.

    Hubs are chosen near the region's centre (to maximize the service area,
    §2.2) with a mutual geographic separation inside ``separation_km``.
    The paper contrasts nearby hubs (4-7 km) with spread hubs (20-24 km).
    """
    lo, hi = separation_km
    if lo < 0 or hi < lo:
        raise RegionError("separation range must be ordered and non-negative")
    huts = fmap.huts
    if len(huts) < 2:
        raise RegionError("need at least two huts to choose hubs")
    xs = [fmap.position(h).x for h in huts]
    ys = [fmap.position(h).y for h in huts]
    centre = Point((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0)

    best: tuple[float, str, str] | None = None
    for i, h1 in enumerate(huts):
        p1 = fmap.position(h1)
        for h2 in huts[i + 1 :]:
            p2 = fmap.position(h2)
            sep = p1.distance_to(p2)
            if not (lo <= sep <= hi):
                continue
            centrality = p1.distance_to(centre) + p2.distance_to(centre)
            if best is None or centrality < best[0]:
                best = (centrality, h1, h2)
    if best is None:
        raise RegionError(
            f"no hut pair with separation in [{lo}, {hi}] km exists on this map"
        )
    return best[1], best[2]
