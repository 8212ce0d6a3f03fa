"""Siting-flexibility analysis (§2.2, Figs 4-6).

Where can the *next* DC go? Under the centralized design a new DC must sit
within ``SLA/2`` km of fiber from *each* hub (so any DC-hub-DC path meets the
SLA); under the distributed design it must sit within ``SLA`` km of fiber
from *each existing DC*. The permissible area is estimated by sampling a
candidate grid over the region and measuring fiber reach through the map,
"the same criteria as cloud operation teams follow".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import RegionError
from repro.region.fibermap import FiberMap
from repro.region.geometry import Point, area_from_mask, grid_points
from repro.region.placement import (
    candidate_fiber_distance,
    candidate_stub_distances,
    node_distance_maps,
)
from repro.units import SLA_MAX_FIBER_KM

#: Default half-width of the candidate window beyond the hut backbone: one
#: "fiber-reach" scale (~SLA/2 of geographic distance once street routing is
#: accounted for), so neither criterion is artificially clipped.
DEFAULT_SITING_MARGIN_KM = 65.0


@dataclass(frozen=True)
class ServiceArea:
    """A sampled permissible-siting region.

    ``area_km2`` is the Riemann estimate over the candidate grid;
    ``mask[i]`` says whether ``points[i]`` is permissible.
    """

    points: tuple[Point, ...]
    mask: tuple[bool, ...]
    area_km2: float


def _sample(
    fmap: FiberMap,
    targets: Sequence[str],
    limit_km: float,
    extent_km: float,
    spacing_km: float,
    attach_count: int,
    stub_route_factor: float,
    margin_km: float,
) -> ServiceArea:
    if limit_km <= 0:
        raise RegionError("reach limit must be positive")
    if not targets:
        raise RegionError("service area needs at least one target node")
    if margin_km < 0:
        raise RegionError("margin must be non-negative")
    # Candidate sites extend beyond the built-up backbone: new DCs are
    # routinely sited on the outskirts (Fig 5's shaded areas), reaching the
    # fiber plant over an access stub to the nearest huts.
    window = extent_km + 2.0 * margin_km
    points = grid_points(window, spacing_km, origin=Point(-margin_km, -margin_km))
    stubs = candidate_stub_distances(fmap, points, attach_count, stub_route_factor)
    dist_maps = node_distance_maps(fmap, targets)
    mask = []
    for stub in stubs:
        ok = all(
            candidate_fiber_distance(stub, dist_maps[t]) <= limit_km for t in targets
        )
        mask.append(ok)
    return ServiceArea(
        points=tuple(points),
        mask=tuple(mask),
        area_km2=area_from_mask(mask, window),
    )


def centralized_service_area(
    fmap: FiberMap,
    hubs: Sequence[str],
    extent_km: float,
    sla_fiber_km: float = SLA_MAX_FIBER_KM,
    spacing_km: float = 2.0,
    attach_count: int = 3,
    stub_route_factor: float = 1.3,
    margin_km: float | None = None,
) -> ServiceArea:
    """Permissible area for a new DC under the centralized design.

    Every DC must be within ``sla/2`` km of fiber from each hub, so that any
    DC-hub-DC path stays within the SLA (§2.2: "the 120 km limit restricts
    each DC-hub connection to at most 60 km of fiber").

    ``margin_km`` widens the candidate window beyond the hut backbone
    (defaults to :data:`DEFAULT_SITING_MARGIN_KM`).
    """
    return _sample(
        fmap,
        list(hubs),
        sla_fiber_km / 2.0,
        extent_km,
        spacing_km,
        attach_count,
        stub_route_factor,
        DEFAULT_SITING_MARGIN_KM if margin_km is None else margin_km,
    )


def distributed_service_area(
    fmap: FiberMap,
    extent_km: float,
    dcs: Sequence[str] | None = None,
    sla_fiber_km: float = SLA_MAX_FIBER_KM,
    spacing_km: float = 2.0,
    attach_count: int = 3,
    stub_route_factor: float = 1.3,
    margin_km: float | None = None,
) -> ServiceArea:
    """Permissible area for a new DC under the distributed design.

    The new DC must be within ``sla`` km of fiber of every *existing DC*;
    hubs play no role.
    """
    targets = list(dcs) if dcs is not None else fmap.dcs
    return _sample(
        fmap,
        targets,
        sla_fiber_km,
        extent_km,
        spacing_km,
        attach_count,
        stub_route_factor,
        DEFAULT_SITING_MARGIN_KM if margin_km is None else margin_km,
    )


def render_service_area(
    area: ServiceArea, existing: Sequence[Point] = ()
) -> str:
    """ASCII rendering of a sampled service area (the Fig 5 visual).

    ``#`` marks permissible candidate sites, ``.`` impermissible ones, and
    ``D`` the positions in ``existing`` (snapped to the nearest sample).
    Rows print north-to-south.
    """
    if not area.points:
        raise RegionError("cannot render an empty service area")
    xs = sorted({p.x for p in area.points})
    ys = sorted({p.y for p in area.points})
    col = {x: i for i, x in enumerate(xs)}
    row = {y: i for i, y in enumerate(ys)}
    grid = [["." for _ in xs] for _ in ys]
    for point, ok in zip(area.points, area.mask):
        if ok:
            grid[row[point.y]][col[point.x]] = "#"
    for marker in existing:
        cx = min(xs, key=lambda x: abs(x - marker.x))
        cy = min(ys, key=lambda y: abs(y - marker.y))
        grid[row[cy]][col[cx]] = "D"
    return "\n".join("".join(r) for r in reversed(grid))

