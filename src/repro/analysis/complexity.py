"""Management-complexity accounting (§2.3 Outcome #3, §6.1).

Beyond dollars, the paper argues designs differ in what must be *managed*:
equipment sites, ports, and device classes. Iris "reduces network
complexity by reducing the total number of ports, electrical or optical,
that need to be managed" while still requiring "management of in-network
equipment across multiple sites, instead of just two hubs" for distributed
topologies. This module quantifies those statements for a planned region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import IrisPlan
from repro.designs.eps import eps_inventory
from repro.region.fibermap import NodeKind


@dataclass(frozen=True)
class ComplexitySummary:
    """What one design asks operators to manage."""

    design: str
    equipment_sites: int
    in_network_sites: int  # sites that are not DCs
    managed_ports: int
    in_network_ports: int
    device_classes: int


def iris_complexity(plan: IrisPlan) -> ComplexitySummary:
    """Iris: OSSes at used nodes, amplifiers, transceivers at DCs only."""
    region = plan.region
    used = plan.topology.used_nodes()
    in_network_sites = {
        n for n in used if region.fiber_map.kind(n) is NodeKind.HUT
    }
    inv = plan.inventory()
    # Device classes: OSS, amplifier, transceiver, channel emulator.
    return ComplexitySummary(
        design="iris",
        equipment_sites=len(used),
        in_network_sites=len(in_network_sites),
        managed_ports=inv.total_ports,
        in_network_ports=inv.in_network_ports,
        device_classes=4,
    )


def eps_complexity(plan: IrisPlan) -> ComplexitySummary:
    """EPS: electrical switches wherever a segment terminates."""
    region = plan.region
    inv = eps_inventory(region, plan.topology)
    # Termination sites: DCs plus every hut where a segment ends (the
    # degree!=2 nodes of the used topology).
    degree: dict[str, int] = {}
    for (u, v), cap in plan.topology.edge_capacity.items():
        if cap > 0:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    dcs = set(region.fiber_map.dcs)
    switching = {n for n, d in degree.items() if n in dcs or d != 2}
    in_network = {
        n for n in switching if region.fiber_map.kind(n) is NodeKind.HUT
    }
    # Device classes: electrical switch, transceiver, amplifier.
    return ComplexitySummary(
        design="eps",
        equipment_sites=len(switching),
        in_network_sites=len(in_network),
        managed_ports=inv.total_ports,
        in_network_ports=inv.in_network_ports,
        device_classes=3,
    )


def port_reduction_factor(plan: IrisPlan) -> float:
    """§3: Iris reduces in-network ports "by an order of magnitude"."""
    eps = eps_complexity(plan)
    iris = iris_complexity(plan)
    if iris.in_network_ports == 0:
        return float("inf")
    return eps.in_network_ports / iris.in_network_ports
