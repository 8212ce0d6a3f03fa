"""The centralized hub-and-spoke design (§2, Fig 1(c)).

Every DC connects its full capacity to one or two hub huts, which provide a
non-blocking "big switch" abstraction. This is the design Azure uses today
and the reference point for the paper's latency (Fig 3), siting-flexibility
(Figs 4-6), and cost comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.estimator import Inventory
from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.fibermap import Duct, RegionSpec, duct_key
from repro.units import rtt_ms


@dataclass(frozen=True)
class CentralizedDesign:
    """A hub-and-spoke realization of a region.

    ``hubs``
        One or two hut names. Two hubs (the operational norm) give failure
        resilience; each DC connects full capacity to *each* hub. Cost
        accounting can optionally consider only the primary hub to match
        the §2.4 port model's single-hub arithmetic.
    """

    region: RegionSpec
    hubs: tuple[str, ...]

    #: Registry identifier (the class satisfies :class:`repro.designs.Design`).
    name = "centralized"

    def plan(self, region: RegionSpec) -> Inventory:
        """The unified :class:`~repro.designs.Design` entry point.

        Re-binds this design's hubs to ``region`` and returns the
        resulting equipment inventory.
        """
        from dataclasses import replace

        design = self if region is self.region else replace(self, region=region)
        return design.inventory()

    def __post_init__(self) -> None:
        if not (1 <= len(self.hubs) <= 2):
            raise RegionError("centralized designs use one or two hubs")
        fmap = self.region.fiber_map
        for hub in self.hubs:
            if hub not in fmap:
                raise RegionError(f"hub {hub!r} is not on the fiber map")

    # -- routing -----------------------------------------------------------------

    def spoke_paths(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(dc, hub) -> shortest path for every DC-hub spoke."""
        fmap = self.region.fiber_map
        out: dict[tuple[str, str], tuple[str, ...]] = {}
        dcs = self.region.dcs
        for hub in self.hubs:
            lengths, pred = fmap.dijkstra(hub, dcs)
            for dc in dcs:
                if dc not in lengths:
                    raise InfeasibleRegionError(
                        f"DC {dc} cannot reach hub {hub}", pair=(dc, hub)
                    )
                route = [dc]
                while route[-1] != hub:
                    route.append(pred[route[-1]])
                out[(dc, hub)] = tuple(route)
        return out

    def spoke_length_km(self, dc: str, hub: str) -> float:
        """Fiber distance of one DC-hub spoke."""
        return self.region.fiber_map.fiber_distance(dc, hub)

    def pair_distance_km(self, a: str, b: str) -> float:
        """DC-hub-DC fiber distance, via the better hub."""
        return min(
            self.spoke_length_km(a, hub) + self.spoke_length_km(hub, b)
            for hub in self.hubs
        )

    def pair_rtt_ms(self, a: str, b: str) -> float:
        """Round-trip propagation latency via the better hub."""
        return rtt_ms(self.pair_distance_km(a, b))

    def max_pair_distance_km(self) -> float:
        """The worst DC-hub-DC fiber distance (the SLA-relevant figure)."""
        return max(
            self.pair_distance_km(a, b) for a, b in self.region.iter_pairs()
        )

    def meets_sla(self) -> bool:
        """Whether every DC-hub-DC distance fits the latency SLA (OC1)."""
        return (
            self.max_pair_distance_km()
            <= self.region.constraints.sla_fiber_km + 1e-9
        )

    # -- provisioning ----------------------------------------------------------------

    def duct_capacity(self, redundant: bool = True) -> dict[Duct, int]:
        """Leased fiber-pairs per duct: each DC's full capacity per spoke.

        With ``redundant`` (default), capacity is provisioned to both hubs.
        """
        hubs = self.hubs if redundant else self.hubs[:1]
        paths = self.spoke_paths()
        out: dict[Duct, int] = {}
        for hub in hubs:
            for dc in self.region.dcs:
                fibers = self.region.fibers(dc)
                path = paths[(dc, hub)]
                for u, v in zip(path, path[1:]):
                    key = duct_key(u, v)
                    out[key] = out.get(key, 0) + fibers
        return out

    def inventory(self, redundant: bool = False) -> Inventory:
        """EPS equipment for the hub-and-spoke design.

        Default ``redundant=False`` reproduces the §2.4 single-hub port
        arithmetic (2 N P ports); pass ``True`` for the dual-hub deployment.
        """
        lam = self.region.wavelengths_per_fiber
        duct_caps = self.duct_capacity(redundant)
        fiber_pair_spans = sum(duct_caps.values())
        hub_count = len(self.hubs) if redundant else 1

        # Spokes are point-to-point optical links (Fig 8): transceivers sit
        # only at the DC and the hub, however many ducts the spoke crosses.
        spoke_pairs = hub_count * sum(
            self.region.fibers(dc) for dc in self.region.dcs
        )
        dc_transceivers = spoke_pairs * lam  # DC end of each spoke
        hub_transceivers = spoke_pairs * lam  # hub end (the "big switch")
        return Inventory(
            dc_transceivers=dc_transceivers,
            dc_electrical_ports=dc_transceivers,
            innetwork_transceivers=hub_transceivers,
            innetwork_electrical_ports=hub_transceivers,
            amplifiers=2 * spoke_pairs,
            fiber_pair_spans=fiber_pair_spans,
        )
