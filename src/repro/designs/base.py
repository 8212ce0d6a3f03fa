"""The unified Design API: one entry point over every region designer.

Historically each baseline had its own calling convention — hub-and-spoke
wanted hubs, the AZ design wanted zones, EPS wanted a pre-planned topology,
hybrid wanted a full Iris plan. The :class:`Design` protocol unifies them:
a design has a ``name`` and turns a region into an equipment
:class:`~repro.cost.estimator.Inventory` via ``plan(region)``. The registry
(:func:`get_design`) resolves designs by kind::

    from repro.designs import get_design
    inventory = get_design("eps").plan(region)
    inventory = get_design("centralized", hubs=("T00", "T42")).plan(region)

The concrete designer classes here are thin, picklable adapters that fill
in sensible defaults (auto-selected hubs, zone clustering, serial planning)
and delegate to the underlying modules; the original free functions and
classes remain available for callers that need full control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.cost.estimator import Inventory
from repro.exceptions import ReproError
from repro.region.fibermap import RegionSpec

if TYPE_CHECKING:
    from repro.store import PlanStore


@runtime_checkable
class Design(Protocol):
    """Anything that can turn a region into an equipment inventory.

    ``name``
        Stable registry identifier (``"iris"``, ``"eps"``, ...).
    ``plan(region)``
        Design the region and return its :class:`Inventory`.
    """

    name: str

    def plan(self, region: RegionSpec) -> Inventory: ...


_REGISTRY: dict[str, Callable[..., Design]] = {}


def register_design(kind: str) -> Callable:
    """Class decorator: register a designer factory under ``kind``."""

    def decorate(factory: Callable[..., Design]) -> Callable[..., Design]:
        if kind in _REGISTRY:
            raise ReproError(f"design kind {kind!r} already registered")
        _REGISTRY[kind] = factory
        return factory

    return decorate


def get_design(kind: str, **options) -> Design:
    """A designer of the given ``kind``, configured with ``options``.

    ``options`` are forwarded to the designer's constructor (e.g.
    ``hubs=`` for ``"centralized"``, ``zone_count=`` for
    ``"semidistributed"``, ``jobs=`` and ``store=`` for the
    planner-backed kinds).
    """
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        raise ReproError(
            f"unknown design kind {kind!r}; available: "
            f"{', '.join(available_designs())}"
        ) from None
    return factory(**options)


def available_designs() -> list[str]:
    """All registered design kinds, sorted."""
    return sorted(_REGISTRY)


def _default_hubs(region: RegionSpec) -> tuple[str, ...]:
    """The hut minimizing the worst DC spoke distance (the §2.4 hub)."""
    from repro.designs.semidistributed import _best_hub

    return (_best_hub(region, region.dcs),)


@register_design("iris")
@dataclass(frozen=True)
class IrisDesign:
    """The paper's all-optical fiber-switched design (§4), fully planned.

    An optional ``store`` checkpoints the underlying Iris plan in a
    :class:`~repro.store.PlanStore`, so replanning the same region is a
    load instead of a recompute (see :mod:`repro.store`).
    """

    jobs: int | None = 1
    store: "PlanStore | None" = None

    name = "iris"

    def plan(self, region: RegionSpec) -> Inventory:
        from repro.core.planner import _plan_region

        return _plan_region(region, jobs=self.jobs, store=self.store).inventory()


@register_design("eps")
@dataclass(frozen=True)
class EPSDesign:
    """The electrical packet-switched realization of Algorithm 1 (§4.2).

    EPS shares Algorithm 1 with Iris but realizes it electrically, so the
    cacheable artifact is the bare topology: with a ``store``, the planned
    :class:`~repro.core.plan.TopologyPlan` is keyed under
    ``design="eps"`` and loaded back bit-identically on later runs.
    """

    jobs: int | None = 1
    store: "PlanStore | None" = None

    name = "eps"

    def plan(self, region: RegionSpec) -> Inventory:
        from repro.core.topology import plan_topology
        from repro.designs.eps import eps_inventory

        if self.store is None:
            return eps_inventory(region, plan_topology(region, jobs=self.jobs))

        from repro.serialize import topology_from_dict, topology_to_dict
        from repro.store import plan_key

        key = plan_key(design="eps", region=region)
        cached = self.store.get(key)
        if cached is not None:
            try:
                return eps_inventory(region, topology_from_dict(cached))
            except ReproError:
                pass  # stale payload: fall through and replan
        topology = plan_topology(region, jobs=self.jobs)
        self.store.put(key, topology_to_dict(topology), kind="topology")
        return eps_inventory(region, topology)


@register_design("hybrid")
@dataclass(frozen=True)
class HybridDesign:
    """Iris with wavelength-switched residual combining (Appendix B)."""

    jobs: int | None = 1
    max_combine: int = 4
    store: "PlanStore | None" = None

    name = "hybrid"

    def plan(self, region: RegionSpec) -> Inventory:
        from repro.core.planner import _plan_region
        from repro.designs.hybrid import hybridize

        plan = _plan_region(region, jobs=self.jobs, store=self.store)
        return hybridize(plan, max_combine=self.max_combine).inventory()


@register_design("centralized")
@dataclass(frozen=True)
class CentralizedDesigner:
    """Hub-and-spoke (§2, Fig 1(c)) with auto-selected hubs by default.

    ``hubs=None`` picks the hut minimizing the worst DC spoke distance;
    ``redundant`` mirrors :meth:`CentralizedDesign.inventory`'s single- vs
    dual-hub accounting.
    """

    hubs: tuple[str, ...] | None = None
    redundant: bool = False

    name = "centralized"

    def plan(self, region: RegionSpec) -> Inventory:
        from repro.designs.centralized import CentralizedDesign

        hubs = tuple(self.hubs) if self.hubs else _default_hubs(region)
        return CentralizedDesign(region, hubs).inventory(
            redundant=self.redundant
        )


@register_design("semidistributed")
@dataclass(frozen=True)
class SemiDistributedDesigner:
    """The AZ-style design (Fig 1(e)): clustered zones with per-zone hubs."""

    zone_count: int = 2
    seed: int = 0

    name = "semidistributed"

    def plan(self, region: RegionSpec) -> Inventory:
        from repro.designs.semidistributed import cluster_zones

        return cluster_zones(region, self.zone_count, self.seed).inventory()
