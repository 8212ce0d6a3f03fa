"""Metric definitions and the statistics the suite reports and compares.

Pure standard library: the CLI process imports this without importing
``repro``, and ``test_suite.py`` checks the rules on synthetic samples.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Every workload, in the order ``run`` executes them.
WORKLOADS = ("golden5", "grid10", "scale15", "service_mix")

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the parent's median by which an end-to-end
    metric may worsen before ``compare`` calls it a regression; per-layer
    metrics have none. ``workloads`` lists where the metric is measured;
    the metrics measured on every workload are the ones ``BENCHMARK.json``
    declares.
    """

    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None
    workloads: tuple[str, ...] = WORKLOADS

    @property
    def common(self) -> bool:
        """Measured on every workload (and so listed in BENCHMARK.json)."""
        return self.workloads == WORKLOADS


_SERVICE = ("service_mix",)

# Each bound is at least three times the widest ten-seed spread. It is
# also at least twice the widest IQR in calibration.json, except where
# that exceeds 0.25, the most BENCHMARK.json allows: there the bound is
# 0.25. service_mix sets the shared ones.
END_TO_END = (
    Metric("setup_s", "s", bound=0.25),
    Metric("latency_s", "s", bound=0.25),
    Metric("throughput_per_s", "1/s", better="higher", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.10),
    Metric("plan_s_p75", "s", bound=0.15, workloads=("golden5",)),
    Metric("request_s_p50", "s", bound=0.45, workloads=_SERVICE),
    Metric("request_s_p90", "s", bound=0.35, workloads=_SERVICE),
    Metric("store_s_p50", "s", bound=0.55, workloads=_SERVICE),
    Metric("patched_s_p50", "s", bound=0.40, workloads=_SERVICE),
    Metric("cold_s_p50", "s", bound=0.25, workloads=_SERVICE),
)

#: The per-layer metric where more is better; elsewhere less time, work or
#: bytes is.
_HIGHER = ("hose.hit_ratio",)

PER_LAYER = tuple(
    Metric(name, unit, better="higher" if name in _HIGHER else "lower")
    for name, unit in (
        ("plan.prune_s", "s"),
        ("plan.enumerate_s", "s"),
        ("plan.capacity_s", "s"),
        ("plan.amplifiers_s", "s"),
        ("plan.cutthrough_s", "s"),
        ("plan.residual_s", "s"),
        ("plan.validate_s", "s"),
        ("plan.unaccounted_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("enumerate.scenarios", "count"),
        ("enumerate.scenarios_raw", "count"),
        ("hose.lookups", "count"),
        ("hose.misses", "count"),
        ("hose.cold_solves", "count"),
        ("hose.incremental_solves", "count"),
        ("hose.hit_ratio", "ratio"),
        ("amplifiers.sites", "count"),
        ("cutthrough.links", "count"),
        ("validate.paths", "count"),
        ("plan.json_bytes", "bytes"),
        ("store.get_s", "s"),
        ("store.put_s", "s"),
        ("serialize.encode_s", "s"),
        ("serialize.decode_s", "s"),
        ("protocol.encode_s", "s"),
        ("protocol.decode_s", "s"),
        ("protocol.message_bytes", "bytes"),
    )
) + tuple(
    Metric(name, unit, workloads=_SERVICE)
    for name, unit in (
        ("client.submit_s", "s"),
        ("client.result_s", "s"),
        ("planner.cold_s", "s"),
        ("replan.add_s", "s"),
        ("replan.resize_s", "s"),
        ("replan.scenarios_reused", "count"),
        ("replan.scenarios_computed", "count"),
        ("service.store_hits", "count"),
        ("service.patched", "count"),
        ("service.cold", "count"),
        ("service.coalesced", "count"),
        ("service.rejected", "count"),
        ("service.failed", "count"),
    )
)

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def metrics_for(workload: str, trace: bool) -> tuple[Metric, ...]:
    """The metrics a run of ``workload`` reports, in table order."""
    table = PER_LAYER if trace else END_TO_END
    return tuple(m for m in table if workload in m.workloads)


def percentile(samples: list[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` unless at least :data:`MIN_BEYOND` samples
    lie beyond it, so a tail figure is never read off a handful of runs.
    """
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(ordered)} samples leave {max(0, len(ordered) - rank)}"
        )
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_iqr(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


@dataclass(frozen=True)
class Comparison:
    """One workload x metric verdict between parent and change runs."""

    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    worse_by: float
    verdict: str


def compare_values(
    parent: list[float], change: list[float], metric: Metric
) -> Comparison:
    """Verdict for one metric over paired parent/change runs.

    * ``improved``: the change wins at least 9 in 10 pairs (ties count
      for neither side) and its median beats the parent's by more than
      the parent's own interquartile range;
    * ``regressed``: the change's median is worse by more than the bound;
    * ``unresolved``: the parent's own spread is wider than the bound and
      not every change run beats every parent run;
    * ``unchanged``: otherwise.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, _, p_q3 = quartiles(parent)
    if (
        pairs
        and wins >= math.ceil(WIN_SHARE * len(pairs))
        and sign * (p_med - c_med) > p_q3 - p_q1
    ):
        verdict = "improved"
    elif metric.bound is not None and worse_by > metric.bound:
        verdict = "regressed"
    elif (
        metric.bound is not None
        and (len(parent) < 2 or rel_iqr(parent) > metric.bound)
        and not all(sign * (c - p) < 0 for c in change for p in parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Comparison(
        parent=quartiles(parent),
        change=quartiles(change),
        wins=wins,
        pairs=len(pairs),
        worse_by=worse_by,
        verdict=verdict,
    )
