"""repro.api: the consolidated planning surface.

One facade over the three workflows the repo supports — planning a region,
sweeping the Fig 12 design space, and running the flow-level simulation —
with every execution option gathered into a single keyword-only
:class:`PlannerConfig` instead of loose keyword arguments scattered across
entry points::

    from repro.api import PlannerConfig, plan, sweep, simulate

    result = plan(region, config=PlannerConfig(jobs=4))
    records = sweep(points, config=PlannerConfig(jobs=4, store=store))
    outcome = simulate()  # paper-default scenario

The historical entry points :func:`repro.core.planner.plan_region` and
:func:`repro.analysis.designspace.run_sweep` take only their domain
arguments (the region; the points, prices and failure tolerance). Their
former loose keywords map onto ``PlannerConfig`` fields:

===========================  =============================
former loose keyword         ``PlannerConfig`` field
===========================  =============================
``jobs=4``                   ``jobs=4``
``store=PlanStore(...)``     ``store=PlanStore(...)``
``prune_enumeration=False``  ``prune_enumeration=False``
``validate=False``           ``validate=False``
(not previously exposed)     ``trace=True``
===========================  =============================

Since 1.11 ``jobs`` alone picks serial or the process pool, and the hose
cache bound is a fixed module constant: the former backend and hose-cache
fields, and their environment fallbacks, are gone.

The module imports lazily: ``import repro`` pulls in :class:`PlannerConfig`
without loading the planner, simulator, or sweep machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.analysis.designspace import SweepPoint, SweepRecord
    from repro.core.plan import IrisPlan
    from repro.cost.pricebook import PriceBook
    from repro.designs.robust import TrafficEnsembleSpec
    from repro.obs import SpanRecord
    from repro.region.fibermap import RegionSpec
    from repro.simulation.scenarios import ScenarioConfig, ScenarioResult
    from repro.store import PlanStore

__all__ = [
    "PlannerConfig",
    "apply_delta",
    "last_trace",
    "plan",
    "simulate",
    "sweep",
]


@dataclass(frozen=True, kw_only=True)
class PlannerConfig:
    """Every execution option of the planning surface, in one place.

    All fields are keyword-only and the instance is immutable, so a config
    can be built once and shared across :func:`plan` and :func:`sweep`
    calls (it carries no per-run state).

    ``jobs``
        Worker count for scenario/grid-point parallelism: ``1`` (default)
        stays serial and never spawns a pool, ``N > 1`` uses ``N``
        processes, ``0`` uses every CPU. Results are bit-identical across
        values.
    ``store``
        Optional :class:`repro.store.PlanStore` checkpointing planning
        products; ``jobs`` is an execution detail and never part of
        store keys.
    ``prune_enumeration``
        Use the exact pruned failure enumeration (default). Brute force
        is exponentially slower and only useful to validate the pruning.
    ``validate``
        Check every scenario path against TC1-TC4/OC1 after planning.
    ``trace``
        Run :func:`plan` under :func:`repro.obs.tracing` and keep the
        finished span tree retrievable via :func:`last_trace`. Only
        :func:`plan` honors this; :func:`sweep` ignores it (worker
        shards are merged by the planner itself).
    ``traffic``
        A :class:`repro.designs.robust.TrafficEnsembleSpec` configuring
        the TM ensemble for ``design="robust"`` (default spec when
        ``None``). Ignored by every other design; unlike ``jobs``, the
        ensemble *is* plan content, so it participates in store keys via
        its digest.
    """

    jobs: int | None = 1
    store: "PlanStore | None" = None
    prune_enumeration: bool = True
    validate: bool = True
    trace: bool = False
    traffic: "TrafficEnsembleSpec | None" = None


_DEFAULT_CONFIG = PlannerConfig()

# Single-slot holder for the most recent trace captured by ``plan(...,
# config=PlannerConfig(trace=True))``; a mutable container rather than a
# rebound module global so readers always see the latest record.
_LAST_TRACE: list = [None]


def last_trace() -> "SpanRecord | None":
    """The span tree of the most recent traced :func:`plan` call, if any."""
    return _LAST_TRACE[0]


def plan(
    region: "RegionSpec",
    *,
    design: str = "iris",
    config: PlannerConfig | None = None,
    **design_options: Any,
) -> Any:
    """Plan ``region`` under ``design`` with the given ``config``.

    For the default ``design="iris"`` this returns the full
    :class:`~repro.core.plan.IrisPlan` (call ``.inventory()`` for the
    equipment view). Any other registered design kind goes through
    :func:`repro.designs.get_design` and returns its
    :class:`~repro.cost.estimator.Inventory`; extra ``design_options``
    (e.g. ``hubs=`` for ``"centralized"``) are forwarded to the designer.
    """
    config = config or _DEFAULT_CONFIG
    if config.trace:
        from repro import obs

        with obs.tracing("repro.api.plan") as tracer:
            result = _plan(region, design, config, design_options)
        _LAST_TRACE[0] = tracer.record()
        return result
    return _plan(region, design, config, design_options)


def _plan(
    region: "RegionSpec",
    design: str,
    config: PlannerConfig,
    design_options: dict[str, Any],
) -> Any:
    if design == "iris" and not design_options:
        from repro.core.planner import _plan_region

        return _plan_region(
            region,
            prune_enumeration=config.prune_enumeration,
            validate=config.validate,
            jobs=config.jobs,
            store=config.store,
        )

    if design == "robust" and not design_options:
        # Like iris, the robust design returns the full IrisPlan from the
        # facade (the registry adapter returns only the Inventory).
        from repro.designs.robust import plan_robust

        return plan_robust(
            region,
            traffic=config.traffic,
            prune_enumeration=config.prune_enumeration,
            validate=config.validate,
            jobs=config.jobs,
            store=config.store,
        )

    from repro.designs.base import get_design

    options = dict(design_options)
    if design in ("iris", "eps", "hybrid", "robust"):
        options.setdefault("jobs", config.jobs)
        options.setdefault("store", config.store)
    if design == "robust" and config.traffic is not None:
        options.setdefault("traffic", config.traffic)
    return get_design(design, **options).plan(region)


def apply_delta(
    plan: "IrisPlan",
    delta: Any,
    *,
    config: PlannerConfig | None = None,
    verify: bool = False,
) -> "IrisPlan":
    """Replan ``plan``'s region under a :class:`repro.region.RegionDelta`.

    The facade over :func:`repro.service.apply_delta`: the result is
    byte-identical (``plan_to_json`` equality) to a cold replan of the
    mutated region, but untouched scenarios, hose flows, and — when the
    topology is unchanged — the whole optical realization are reused
    from ``plan``. ``config`` supplies the execution options exactly as
    for :func:`plan`; ``verify=True`` additionally runs the cold replan
    and raises on any divergence (for tests and drills).
    """
    config = config or _DEFAULT_CONFIG
    from repro.service.replan import apply_delta as _apply_delta

    return _apply_delta(
        plan,
        delta,
        jobs=config.jobs,
        prune_enumeration=config.prune_enumeration,
        validate=config.validate,
        verify=verify,
    )


def sweep(
    points: "Iterable[SweepPoint]",
    *,
    prices: "PriceBook | None" = None,
    failure_tolerance: int = 2,
    config: PlannerConfig | None = None,
) -> "list[SweepRecord]":
    """Plan and price the Fig 12 design-space grid (see
    :func:`repro.analysis.designspace._run_sweep` for semantics).

    ``config`` supplies the execution options (``jobs``, ``store``); the
    domain arguments stay positional on this facade because they are
    inputs, not execution details.
    """
    config = config or _DEFAULT_CONFIG
    from repro.analysis.designspace import _run_sweep

    return _run_sweep(
        points,
        prices=prices,
        failure_tolerance=failure_tolerance,
        jobs=config.jobs,
        store=config.store,
    )


def simulate(
    scenario: "ScenarioConfig | None" = None,
) -> "ScenarioResult":
    """Run one paired Iris/EPS flow-level scenario (Fig 17/18).

    ``scenario`` is a :class:`repro.simulation.scenarios.ScenarioConfig`
    (paper defaults when ``None``). The simulator takes no execution
    options, so :class:`PlannerConfig` does not apply here; the facade
    exists so all three workflows are importable from one module.
    """
    from repro.simulation.scenarios import ScenarioConfig, run_comparison

    return run_comparison(scenario if scenario is not None else ScenarioConfig())
