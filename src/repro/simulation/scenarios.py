"""Iris-vs-EPS simulation scenarios (§6.3, Figs 17-18).

One scenario fixes a region model (n DCs of equal capacity), a workload, a
utilization, a traffic-change regime, and a reconfiguration interval. The
same flow trace (identical seed) runs over two fabrics:

* **EPS baseline** — flows constrained only by the hose (per-DC egress and
  ingress capacity); the fabric is non-blocking and needs no circuits.
* **Iris** — additionally constrained per pair by its circuit capacity
  (whole fibers). At every traffic change the controller re-allocates
  fibers proportionally to the new matrix (at least one fiber per pair —
  the residual); pairs whose allocation changes run on their surviving
  fibers (min of old and new) for the 70 ms switch time.

The metric is the ratio of 99th-percentile FCTs (Iris / EPS).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.exceptions import SimulationError
from repro.simulation.flowsim import FluidSimulator, FlowRecord
from repro.simulation.metrics import SlowdownSummary, slowdown_summary
from repro.simulation.traffic import (
    TrafficMatrix,
    heavy_tailed_matrix,
    perturb_matrix,
)
from repro.simulation.workloads import WORKLOADS, FlowSizeDistribution
from repro.units import TWO_HUT_SWITCH_TIME_S

Pair = tuple[str, str]


@dataclass(frozen=True)
class ScenarioConfig:
    """One Fig 17/18 operating point.

    ``max_change``
        Per-step bound on each pair's traffic change (0.5 = 50%), or
        ``None`` for unbounded changes (hot/cold pair swaps).
    ``headroom_fibers``
        Extra fibers allocated per pair beyond the demand ceiling,
        reflecting the paper's "substantial capacity over-provisioning".
    ``traffic_backend``
        ``"poisson"`` (the original per-pair Poisson arrivals) or
        ``"flowgen"`` (the flow-centric generator in
        :mod:`repro.simulation.trafficgen`, composing flow-size,
        interarrival-shape, and pair-locality draws). The default keeps
        the historical flow trace byte-identical.
    ``interarrival``
        Named interarrival shape for the ``flowgen`` backend
        (``poisson``/``smooth``/``bursty``); ignored by the Poisson
        backend.
    """

    n_dcs: int = 6
    dc_capacity_bps: float = 4e9
    fibers_per_dc: int = 8
    utilization: float = 0.4
    workload: str = "web1"
    duration_s: float = 20.0
    change_interval_s: float = 5.0
    max_change: float | None = 0.5
    switch_time_s: float = TWO_HUT_SWITCH_TIME_S
    headroom_fibers: int = 2
    flow_cap_fraction: float = 0.05
    seed: int = 1
    traffic_backend: str = "poisson"
    interarrival: str = "bursty"

    def __post_init__(self) -> None:
        if self.n_dcs < 2:
            raise SimulationError("need at least two DCs")
        if not (0.0 < self.utilization <= 1.0):
            raise SimulationError("utilization must be in (0, 1]")
        if self.workload not in WORKLOADS:
            raise SimulationError(f"unknown workload {self.workload!r}")
        if self.duration_s <= 0 or self.change_interval_s <= 0:
            raise SimulationError("durations must be positive")
        if self.fibers_per_dc < 1:
            raise SimulationError("need at least one fiber per DC")
        if self.traffic_backend not in ("poisson", "flowgen"):
            raise SimulationError(
                f"unknown traffic backend {self.traffic_backend!r}"
            )
        # The interarrival catalogue lives in trafficgen; import lazily so
        # the default Poisson path never touches it.
        if self.traffic_backend == "flowgen":
            from repro.simulation.trafficgen import INTERARRIVALS

            if self.interarrival not in INTERARRIVALS:
                raise SimulationError(
                    f"unknown interarrival shape {self.interarrival!r}"
                )

    @property
    def dcs(self) -> list[str]:
        """The model region's DC names."""
        return [f"DC{i + 1}" for i in range(self.n_dcs)]

    @property
    def fiber_bps(self) -> float:
        """Capacity of one fiber circuit."""
        return self.dc_capacity_bps / self.fibers_per_dc

    @property
    def flow_cap_bps(self) -> float:
        """Per-flow rate limit (the sending server's share of DC capacity).

        Flow rates in a DCI are server-limited, not circuit-limited:
        circuits carry aggregates of many flows. This keeps both fabrics
        serving uncongested flows at the same rate, as in the paper, so
        the comparison isolates reconfiguration effects.
        """
        return self.dc_capacity_bps * self.flow_cap_fraction

    @property
    def distribution(self) -> FlowSizeDistribution:
        """The configured flow-size distribution."""
        return WORKLOADS[self.workload]


@dataclass(frozen=True)
class ScenarioResult:
    """Paired simulation outcome."""

    config: ScenarioConfig
    summary: SlowdownSummary
    reconfigurations: int
    fibers_moved: int
    iris_records: tuple[FlowRecord, ...] = field(repr=False, default=())
    eps_records: tuple[FlowRecord, ...] = field(repr=False, default=())


def pair_loads_bps(
    tm: TrafficMatrix, config: ScenarioConfig
) -> dict[Pair, float]:
    """Offered load per pair, scaled so the busiest DC runs at the target
    utilization of its capacity."""
    busiest = max(tm.dc_load_share(dc) for dc in config.dcs)
    if busiest <= 0:
        raise SimulationError("degenerate traffic matrix")
    scale = config.utilization * config.dc_capacity_bps / busiest
    return {pair: w * scale for pair, w in tm.weights.items()}


def allocate_fibers(
    loads_bps: Mapping[Pair, float], config: ScenarioConfig
) -> dict[Pair, int]:
    """Whole-fiber circuit allocation for a traffic matrix.

    Every pair keeps at least one fiber (the residual guarantees this is
    provisionable); loaded pairs get their ceiling plus headroom.
    """
    allocation: dict[Pair, int] = {}
    for pair, load in loads_bps.items():
        base = math.ceil(load / config.fiber_bps) if load > 0 else 0
        allocation[pair] = max(1, base + (config.headroom_fibers if load > 0 else 0))
    return allocation


def _generate_flows_poisson(
    timeline: list[tuple[float, TrafficMatrix]],
    config: ScenarioConfig,
    rng: random.Random,
) -> list[tuple[float, str, str, int]]:
    """Poisson arrivals per pair following the piecewise-constant TM."""
    dist = config.distribution
    mean_bits = dist.mean_bytes() * 8.0
    flows: list[tuple[float, str, str, int]] = []
    for (t0, tm), (t1, _) in zip(timeline, timeline[1:] + [(config.duration_s, None)]):
        loads = pair_loads_bps(tm, config)
        for pair, load in loads.items():
            rate = load / mean_bits  # flows per second
            if rate <= 0:
                continue
            t = t0
            while True:
                t += rng.expovariate(rate)
                if t >= t1:
                    break
                size_bits = dist.sample(rng) * 8
                flows.append((t, pair[0], pair[1], size_bits))
    flows.sort(key=lambda f: f[0])
    return flows


def _generate_flows_flowgen(
    timeline: list[tuple[float, TrafficMatrix]],
    config: ScenarioConfig,
) -> list[tuple[float, str, str, int]]:
    """Flow-centric arrivals (size x interarrival x locality composition)."""
    from repro.simulation.trafficgen import generate_timeline_flows

    offered = [
        sum(pair_loads_bps(tm, config).values()) for _, tm in timeline
    ]
    return generate_timeline_flows(
        timeline,
        duration_s=config.duration_s,
        offered_bps_per_tm=offered,
        sizes=config.distribution,
        gaps=config.interarrival,
        seed=config.seed,
    )


def _generate_flows(
    timeline: list[tuple[float, TrafficMatrix]],
    config: ScenarioConfig,
    rng: random.Random,
) -> list[tuple[float, str, str, int]]:
    """Dispatch on ``config.traffic_backend``.

    The ``poisson`` branch consumes ``rng`` exactly as it always has, so
    historical flow traces (and their golden pins) are untouched; the
    ``flowgen`` branch derives its own substreams from ``config.seed``
    and leaves ``rng`` unconsumed.
    """
    if config.traffic_backend == "flowgen":
        return _generate_flows_flowgen(timeline, config)
    return _generate_flows_poisson(timeline, config, rng)


def _build_timeline(
    config: ScenarioConfig, tm_rng: random.Random
) -> list[tuple[float, TrafficMatrix]]:
    """Traffic-matrix timeline: change every interval."""
    timeline: list[tuple[float, TrafficMatrix]] = []
    tm = heavy_tailed_matrix(config.dcs, tm_rng)
    t = 0.0
    while t < config.duration_s:
        timeline.append((t, tm))
        tm = perturb_matrix(tm, tm_rng, config.max_change)
        t += config.change_interval_s
    return timeline


def run_comparison(config: ScenarioConfig) -> ScenarioResult:
    """Run one paired Iris/EPS scenario and summarize slowdowns."""
    tm_rng = random.Random(config.seed * 7919 + 1)
    flow_rng = random.Random(config.seed * 104729 + 2)

    timeline = _build_timeline(config, tm_rng)
    flows = _generate_flows(timeline, config, flow_rng)
    if not flows:
        raise SimulationError("scenario generated no flows; raise utilization")

    dc_caps = {dc: config.dc_capacity_bps for dc in config.dcs}

    # EPS: hose constraints only (plus the server-side flow cap).
    eps = FluidSimulator(
        egress_bps=dc_caps, flow_cap_bps=config.flow_cap_bps
    ).run(flows)

    # Iris: per-pair circuits, re-allocated at every change.
    first_alloc = allocate_fibers(pair_loads_bps(timeline[0][1], config), config)
    pair_caps = {p: n * config.fiber_bps for p, n in first_alloc.items()}
    capacity_events: list[tuple[float, dict[Pair, float]]] = []
    reconfigs = 0
    fibers_moved = 0
    current = first_alloc
    for t0, tm_k in timeline[1:]:
        new_alloc = allocate_fibers(pair_loads_bps(tm_k, config), config)
        changed = {
            p: (current.get(p, 0), new_alloc.get(p, 0))
            for p in sorted(set(current) | set(new_alloc))
            if current.get(p, 0) != new_alloc.get(p, 0)
        }
        if changed:
            reconfigs += 1
            fibers_moved += sum(abs(a - b) for a, b in changed.values())
            # During the switch, a changed pair runs on its surviving fibers.
            dark = {
                p: min(a, b) * config.fiber_bps for p, (a, b) in changed.items()
            }
            after = {p: b * config.fiber_bps for p, (_, b) in changed.items()}
            capacity_events.append((t0, dark))
            capacity_events.append((t0 + config.switch_time_s, after))
        current = new_alloc

    iris = FluidSimulator(
        egress_bps=dc_caps,
        pair_caps_bps=pair_caps,
        capacity_events=capacity_events,
        flow_cap_bps=config.flow_cap_bps,
    ).run(flows)

    return ScenarioResult(
        config=config,
        summary=slowdown_summary(iris, eps),
        reconfigurations=reconfigs,
        fibers_moved=fibers_moved,
        iris_records=tuple(iris),
        eps_records=tuple(eps),
    )


def run_robust_comparison(
    config: ScenarioConfig, ensemble: Sequence[TrafficMatrix]
) -> ScenarioResult:
    """Run a METTEOR-style *robust-static* variant of the scenario.

    The fabric is provisioned once for the whole ensemble — every pair
    gets the maximum circuit allocation any ensemble member demands — and
    then never reconfigured: no capacity events, no switch-time dark
    periods. The flow trace is identical to :func:`run_comparison` for
    the same config, so the FCT comparison isolates the robust topology's
    value (over-provisioned circuits vs. reconfiguration churn).
    """
    if not ensemble:
        raise SimulationError("robust comparison needs a non-empty ensemble")
    tm_rng = random.Random(config.seed * 7919 + 1)
    flow_rng = random.Random(config.seed * 104729 + 2)

    timeline = _build_timeline(config, tm_rng)
    flows = _generate_flows(timeline, config, flow_rng)
    if not flows:
        raise SimulationError("scenario generated no flows; raise utilization")

    dc_caps = {dc: config.dc_capacity_bps for dc in config.dcs}
    eps = FluidSimulator(
        egress_bps=dc_caps, flow_cap_bps=config.flow_cap_bps
    ).run(flows)

    # Robust allocation: per-pair max over the ensemble's demands.
    robust_alloc: dict[Pair, int] = {}
    for tm in ensemble:
        for pair, n in allocate_fibers(pair_loads_bps(tm, config), config).items():
            robust_alloc[pair] = max(robust_alloc.get(pair, 0), n)
    pair_caps = {p: n * config.fiber_bps for p, n in robust_alloc.items()}

    robust = FluidSimulator(
        egress_bps=dc_caps,
        pair_caps_bps=pair_caps,
        flow_cap_bps=config.flow_cap_bps,
    ).run(flows)

    return ScenarioResult(
        config=config,
        summary=slowdown_summary(robust, eps),
        reconfigurations=0,
        fibers_moved=0,
        iris_records=tuple(robust),
        eps_records=tuple(eps),
    )


def repeat_comparison(
    base: ScenarioConfig, seeds: list[int]
) -> list[ScenarioResult]:
    """Run the same operating point across seeds (variance estimation).

    The paper reports results "collected over multiple day-long runs"; at
    reduced scale, seed repetition is the analogous robustness check.
    """
    if not seeds:
        raise SimulationError("need at least one seed")
    return [run_comparison(replace(base, seed=seed)) for seed in seeds]
