"""repro: reproduction of the SIGCOMM 2020 Iris regional DCI architecture.

The package implements the full system from "Beyond the mega-data center:
networking multi-data center regions" (Dukic et al., SIGCOMM 2020):

* :mod:`repro.region` — regional fiber-map substrate (synthetic Azure-like
  regions, DC placement, siting-flexibility analysis).
* :mod:`repro.optics` — physical-layer substrate (link budgets, cascaded
  amplifier OSNR, DP-16QAM BER, C-band spectrum management).
* :mod:`repro.core` — the Iris planner (Algorithm 1 topology & capacity,
  Algorithm 2 amplifier placement, cut-through links, residual fibers).
* :mod:`repro.designs` — baselines: electrical packet switching, the analytic
  port model, centralized/distributed designers, hybrid wavelength switching.
* :mod:`repro.cost` — the §3.3 cost model and itemized network cost estimator.
* :mod:`repro.control` — the Iris control plane over simulated devices.
* :mod:`repro.testbed` — emulation of the paper's optical testbed (§6.2).
* :mod:`repro.simulation` — the flow-level simulator used in §6.3.
* :mod:`repro.analysis` — the per-figure analyses of the evaluation.
* :mod:`repro.obs` — structured observability: hierarchical spans,
  counters, and exporters threaded through the planner, engine, simulator,
  and control plane (off by default; see ``obs.tracing``).
* :mod:`repro.service` — the planner service: ``iris serve`` daemon with
  single-flight request coalescing, cache-aside over :mod:`repro.store`,
  and incremental replanning under :class:`repro.region.RegionDelta`
  (byte-identical to a cold replan, typically ~an order of magnitude
  faster).
"""

from repro import api, obs
from repro.api import PlannerConfig, plan, simulate, sweep
from repro.region.fibermap import (
    FiberMap,
    NodeKind,
    OperationalConstraints,
    RegionSpec,
    duct_key,
)
from repro.core.engine import PlanTimings
from repro.core.planner import IrisPlanner, plan_region
from repro.cost.pricebook import PriceBook
from repro.cost.estimator import estimate_cost
from repro.designs.base import Design, available_designs, get_design
from repro.obs import SpanRecord, profile_plan

__version__ = "1.14.0"

__all__ = [
    "api",
    "obs",
    "PlannerConfig",
    "plan",
    "simulate",
    "sweep",
    "SpanRecord",
    "profile_plan",
    "FiberMap",
    "NodeKind",
    "OperationalConstraints",
    "RegionSpec",
    "duct_key",
    "IrisPlanner",
    "PlanTimings",
    "plan_region",
    "Design",
    "get_design",
    "available_designs",
    "PriceBook",
    "estimate_cost",
    "__version__",
]
