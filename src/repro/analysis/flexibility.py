"""Fig 6: siting-area increase of the distributed approach.

For each region in an ensemble, the permissible area for the next DC under
the distributed criterion (within SLA fiber reach of every existing DC)
divided by the area under the centralized criterion (within SLA/2 of both
hubs). The paper reports 2-5x across 33 regions, shrinking (but staying
>= 2x) as regions hold more DCs.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.engine import get_backend, map_in_chunks, worker_safe
from repro.exceptions import ReproError
from repro.region.catalog import RegionInstance
from repro.region.siting import (
    centralized_service_area,
    distributed_service_area,
)


@worker_safe
def _instance_gains(
    spacing_km: float, chunk: list[RegionInstance]
) -> list[tuple[str, float]]:
    """Worker: one (name, gain) per instance (module-level for pickling)."""
    out: list[tuple[str, float]] = []
    for instance in chunk:
        region = instance.spec
        distributed = distributed_service_area(
            region.fiber_map,
            instance.extent_km,
            sla_fiber_km=region.constraints.sla_fiber_km,
            spacing_km=spacing_km,
        )
        centralized = centralized_service_area(
            region.fiber_map,
            instance.hubs,
            instance.extent_km,
            sla_fiber_km=region.constraints.sla_fiber_km,
            spacing_km=spacing_km,
        )
        if centralized.area_km2 <= 0:
            gain = float("inf")
        else:
            gain = distributed.area_km2 / centralized.area_km2
        out.append((instance.name, gain))
    return out


def flexibility_gains(
    instances: Sequence[RegionInstance],
    spacing_km: float = 2.5,
    jobs: int | None = 1,
) -> list[tuple[str, float]]:
    """(region name, area gain) per region, in ensemble order.

    ``jobs`` fans the per-region service-area rasterization out over
    worker processes; output order is ensemble order either way.
    """
    if not instances:
        raise ReproError("empty ensemble")
    with get_backend(jobs) as backend:
        return map_in_chunks(
            backend, _instance_gains, spacing_km, list(instances)
        )
