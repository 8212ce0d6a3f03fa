"""Semi-distributed (availability-zone) designs (Fig 1(e), footnote 2).

Between hub-and-spoke and full mesh sits the AZ-style design: DCs cluster
into groups, each group interconnects through a group-local hub, and group
hubs connect to each other. The paper notes (footnote 2) that
"inter-connecting DCs within Availability Zones may alleviate some of this
latency inflation of centralized topologies", and AWS "broadly uses this
approach".

This module builds such designs on a fiber map: geographic clustering of
DCs into zones, per-zone hub selection (the hut minimizing worst spoke
distance), and the resulting latency and provisioning picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cost.estimator import Inventory
from repro.exceptions import RegionError
from repro.region.fibermap import Duct, RegionSpec, duct_key
from repro.units import rtt_ms


@dataclass(frozen=True)
class Zone:
    """One availability zone: its DCs and the hub hut serving them."""

    name: str
    dcs: tuple[str, ...]
    hub: str


@dataclass(frozen=True)
class SemiDistributedDesign:
    """An AZ-style region: per-zone hubs, hub-to-hub core."""

    region: RegionSpec
    zones: tuple[Zone, ...]

    #: Registry identifier (the class satisfies :class:`repro.designs.Design`).
    name = "semidistributed"

    def plan(self, region: RegionSpec) -> Inventory:
        """The unified :class:`~repro.designs.Design` entry point.

        Re-binds this design's zones to ``region`` (the zones must still
        partition the region's DCs) and returns the inventory.
        """
        from dataclasses import replace

        design = self if region is self.region else replace(self, region=region)
        return design.inventory()

    def __post_init__(self) -> None:
        covered = [dc for z in self.zones for dc in z.dcs]
        if sorted(covered) != self.region.dcs:
            raise RegionError("zones must partition the region's DCs exactly")

    # -- routing -----------------------------------------------------------------

    def zone_of(self, dc: str) -> Zone:
        """The zone hosting ``dc``."""
        for zone in self.zones:
            if dc in zone.dcs:
                return zone
        raise RegionError(f"DC {dc!r} not in any zone")

    def pair_distance_km(self, a: str, b: str) -> float:
        """Fiber distance: via the shared zone hub, or hub-to-hub."""
        fmap = self.region.fiber_map
        za, zb = self.zone_of(a), self.zone_of(b)
        if za.name == zb.name:
            return fmap.fiber_distance(a, za.hub) + fmap.fiber_distance(za.hub, b)
        return (
            fmap.fiber_distance(a, za.hub)
            + fmap.fiber_distance(za.hub, zb.hub)
            + fmap.fiber_distance(zb.hub, b)
        )

    def pair_rtt_ms(self, a: str, b: str) -> float:
        """Round-trip latency between two DCs."""
        return rtt_ms(self.pair_distance_km(a, b))

    def max_pair_distance_km(self) -> float:
        """Worst DC-DC fiber distance (the SLA-relevant figure)."""
        return max(
            self.pair_distance_km(a, b) for a, b in self.region.iter_pairs()
        )

    def meets_sla(self) -> bool:
        """Whether every pair distance fits the latency SLA."""
        return (
            self.max_pair_distance_km()
            <= self.region.constraints.sla_fiber_km + 1e-9
        )

    # -- provisioning --------------------------------------------------------------

    def duct_capacity(self) -> dict[Duct, int]:
        """Fiber-pairs per duct: full capacity per spoke; hose cross-zone
        capacity on hub-hub routes (§2: the Fig 1(e) arithmetic)."""
        fmap = self.region.fiber_map
        out: dict[Duct, int] = {}

        def add_path(u: str, v: str, fibers: int) -> None:
            _, path = fmap.shortest_path(u, v)
            for x, y in zip(path, path[1:]):
                key = duct_key(x, y)
                out[key] = out.get(key, 0) + fibers

        for zone in self.zones:
            for dc in zone.dcs:
                add_path(dc, zone.hub, self.region.fibers(dc))
        for i, za in enumerate(self.zones):
            cap_a = sum(self.region.fibers(dc) for dc in za.dcs)
            for zb in self.zones[i + 1 :]:
                cap_b = sum(self.region.fibers(dc) for dc in zb.dcs)
                add_path(za.hub, zb.hub, min(cap_a, cap_b))
        return out

    def inventory(self) -> Inventory:
        """EPS equipment for the AZ design (transceivers at every spoke and
        hub-trunk termination)."""
        lam = self.region.wavelengths_per_fiber
        spoke_pairs = sum(self.region.fibers(dc) for dc in self.region.dcs)
        trunk_pairs = 0
        for i, za in enumerate(self.zones):
            cap_a = sum(self.region.fibers(dc) for dc in za.dcs)
            for zb in self.zones[i + 1 :]:
                cap_b = sum(self.region.fibers(dc) for dc in zb.dcs)
                trunk_pairs += min(cap_a, cap_b)
        dc_transceivers = spoke_pairs * lam
        innetwork = spoke_pairs * lam + 2 * trunk_pairs * lam
        return Inventory(
            dc_transceivers=dc_transceivers,
            dc_electrical_ports=dc_transceivers,
            innetwork_transceivers=innetwork,
            innetwork_electrical_ports=innetwork,
            amplifiers=2 * (spoke_pairs + trunk_pairs),
            fiber_pair_spans=sum(self.duct_capacity().values()),
        )


def cluster_zones(
    region: RegionSpec, zone_count: int, seed: int = 0
) -> SemiDistributedDesign:
    """Geographic k-clustering of DCs into zones with per-zone hub huts.

    Deterministic Lloyd-style clustering on DC coordinates (farthest-point
    initialization), then each zone's hub is the hut minimizing the worst
    spoke fiber distance.
    """
    dcs = region.dcs
    if not (1 <= zone_count <= len(dcs)):
        raise RegionError(f"zone count must be in 1..{len(dcs)}")
    fmap = region.fiber_map
    positions = {dc: fmap.position(dc) for dc in dcs}

    # Farthest-point initialization (deterministic).
    centers = [min(dcs)]
    while len(centers) < zone_count:
        farthest = max(
            (dc for dc in dcs if dc not in centers),
            key=lambda dc: (
                min(positions[dc].distance_to(positions[c]) for c in centers),
                dc,
            ),
        )
        centers.append(farthest)

    # Lloyd iterations on membership (positions stay at member centroids).
    members = {c: [c] for c in centers}
    for _ in range(8):
        new_members: dict[str, list[str]] = {c: [] for c in centers}
        centroids = {
            c: (
                sum(positions[m].x for m in ms) / len(ms),
                sum(positions[m].y for m in ms) / len(ms),
            )
            for c, ms in members.items()
            if ms
        }
        for dc in dcs:
            best = min(
                centroids,
                key=lambda c: (
                    (positions[dc].x - centroids[c][0]) ** 2
                    + (positions[dc].y - centroids[c][1]) ** 2,
                    c,
                ),
            )
            new_members[best].append(dc)
        if all(sorted(new_members[c]) == sorted(members[c]) for c in centers):
            break
        members = {c: ms for c, ms in new_members.items() if ms}
        centers = sorted(members)

    zones = []
    for i, center in enumerate(sorted(members)):
        zone_dcs = tuple(sorted(members[center]))
        hub = _best_hub(region, zone_dcs)
        zones.append(Zone(name=f"AZ{i + 1}", dcs=zone_dcs, hub=hub))
    return SemiDistributedDesign(region=region, zones=tuple(zones))


def _best_hub(region: RegionSpec, zone_dcs: Sequence[str]) -> str:
    """The hut minimizing the worst spoke fiber distance for a zone."""
    fmap = region.fiber_map
    dist_maps = {dc: fmap.dijkstra(dc)[0] for dc in zone_dcs}
    best_hub, best_score = None, None
    for hut in fmap.huts:
        worst = 0.0
        reachable = True
        for dc in zone_dcs:
            d = dist_maps[dc].get(hut)
            if d is None:
                reachable = False
                break
            worst = max(worst, d)
        if not reachable:
            continue
        if best_score is None or (worst, hut) < (best_score, best_hub):
            best_hub, best_score = hut, worst
    if best_hub is None:
        raise RegionError(f"no hut reaches all of zone {list(zone_dcs)}")
    return best_hub
