"""Deterministic region ensembles standing in for the paper's datasets.

The paper evaluates on proprietary data: 10 real fiber maps (§6.1), Azure DC
locations across 22 regions (Fig 3) and 33 regions (Fig 6). This catalog
regenerates equivalently-shaped synthetic ensembles from fixed seeds so every
analysis and benchmark is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import RegionError
from repro.region.fibermap import FiberMap, OperationalConstraints, RegionSpec
from repro.region.placement import PlacementConfig, choose_hubs, place_dcs
from repro.region.synthetic import SyntheticMapConfig, generate_fiber_map

#: Seed namespace so different ensembles never overlap.
_MAP_SEED_BASE = 52_000
_PLACEMENT_SEED_BASE = 97_000


@dataclass(frozen=True)
class RegionInstance:
    """A fully-instantiated synthetic region: map + DCs + candidate hubs."""

    name: str
    spec: RegionSpec
    extent_km: float
    hubs: tuple[str, str]


def _map_config(rng: random.Random, size_hint: str = "medium") -> SyntheticMapConfig:
    """Sample a map configuration in the regime the paper describes."""
    if size_hint == "small":
        extent = rng.uniform(25.0, 32.0)
        step = rng.uniform(7.0, 9.0)
    elif size_hint == "medium":
        extent = rng.uniform(30.0, 42.0)
        step = rng.uniform(8.0, 11.0)
    elif size_hint == "large":
        extent = rng.uniform(40.0, 52.0)
        step = rng.uniform(10.0, 13.0)
    else:
        raise RegionError(f"unknown size hint {size_hint!r}")
    return SyntheticMapConfig(
        extent_km=extent,
        grid_step_km=step,
        jitter_km=step * 0.22,
        diagonal_probability=rng.uniform(0.35, 0.55),
        skip_probability=rng.uniform(0.05, 0.15),
    )


def fiber_map_ensemble(
    count: int = 10, seed: int = 2020
) -> list[tuple[FiberMap, float]]:
    """The "10 real region fiber maps" stand-in: ``count`` synthetic maps.

    Returns (map, extent_km) pairs; maps contain only huts and ducts.
    """
    if count < 1:
        raise RegionError("ensemble needs at least one map")
    return [_ensemble_map(i, seed) for i in range(count)]


def _ensemble_map(index: int, seed: int) -> tuple[FiberMap, float]:
    """Map ``index`` of the ensemble seeded ``seed``, with its extent.

    Its seed and size hint depend on ``index`` alone, so one map can be
    generated without the ones before it.
    """
    map_seed = _MAP_SEED_BASE + seed * 1_000 + index
    hints = ("small", "medium", "large")
    config = _map_config(random.Random(map_seed), hints[index % len(hints)])
    return generate_fiber_map(seed=map_seed, config=config), config.extent_km


def make_region(
    map_index: int = 0,
    n_dcs: int = 5,
    dc_fibers: int = 8,
    wavelengths_per_fiber: int = 40,
    failure_tolerance: int = 2,
    seed: int = 2020,
    placement_seed: int | None = None,
    max_attempts: int = 8,
) -> RegionInstance:
    """Instantiate one region: pick map ``map_index``, place ``n_dcs`` DCs.

    Placement occasionally paints itself into a corner (the feasible area
    empties); the procedure retries with follow-on seeds up to
    ``max_attempts`` times, which mirrors how the randomized evaluation
    would simply resample.
    """
    if map_index < 0:
        raise RegionError(f"map index must be non-negative, got {map_index}")
    base_map, extent = _ensemble_map(map_index, seed)
    if placement_seed is None:
        placement_seed = _PLACEMENT_SEED_BASE + map_index * 101 + n_dcs

    last_error: Exception | None = None
    for attempt in range(max_attempts):
        fmap = base_map.copy()
        try:
            dcs = place_dcs(
                fmap,
                n_dcs,
                seed=placement_seed + attempt,
                config=PlacementConfig(),
                extent_km=extent,
            )
        except RegionError as exc:
            last_error = exc
            continue
        spec = RegionSpec(
            fiber_map=fmap,
            dc_fibers={dc: dc_fibers for dc in dcs},
            wavelengths_per_fiber=wavelengths_per_fiber,
            constraints=OperationalConstraints(failure_tolerance=failure_tolerance),
        )
        hubs = choose_hubs(fmap, separation_km=(3.0, 12.0))
        return RegionInstance(
            name=f"region-m{map_index}-n{n_dcs}",
            spec=spec,
            extent_km=extent,
            hubs=hubs,
        )
    raise RegionError(
        f"could not place {n_dcs} DCs on map {map_index} "
        f"after {max_attempts} attempts"
    ) from last_error


def region_ensemble(
    count: int = 22,
    n_dcs_range: tuple[int, int] = (5, 15),
    dc_fibers: int = 8,
    seed: int = 2020,
) -> list[RegionInstance]:
    """An ensemble of fully-placed regions (stands in for Fig 3's 22 and
    Fig 6's 33 Azure regions). DC counts cycle through ``n_dcs_range``.
    """
    lo, hi = n_dcs_range
    if not (1 <= lo <= hi):
        raise RegionError("n_dcs_range must be ordered and positive")
    out = []
    for i in range(count):
        n_dcs = lo + (i % (hi - lo + 1))
        instance = make_region(
            map_index=i % 10,
            n_dcs=n_dcs,
            dc_fibers=dc_fibers,
            seed=seed,
            placement_seed=_PLACEMENT_SEED_BASE + 7_777 + i * 31,
        )
        out.append(
            RegionInstance(
                name=f"region-{i:02d}-n{n_dcs}",
                spec=instance.spec,
                extent_km=instance.extent_km,
                hubs=instance.hubs,
            )
        )
    return out
