"""Profiling helpers: run a planner workload under tracing and report.

:func:`profile_plan` is the one-call harness used by
``benchmarks/bench_planner_runtime.py`` and the CLI: it plans a region
with global tracing enabled and returns the plan together with the trace
and its per-phase aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.exporters import PhaseRow, aggregate, render_tree, to_csv_rows
from repro.obs.tracer import SpanRecord, tracing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs <- core)
    from repro.core.plan import IrisPlan
    from repro.region.fibermap import RegionSpec


@dataclass(frozen=True)
class ProfileResult:
    """A traced planning run: the plan, its trace, per-phase rows."""

    plan: "IrisPlan"
    trace: SpanRecord
    phases: list[PhaseRow]

    def render(self, include_durations: bool = True) -> str:
        """The human-readable span tree."""
        return render_tree(self.trace, include_durations)

    def csv_rows(self) -> list[list[str]]:
        """Per-phase CSV rows (header first) for benchmark output."""
        return to_csv_rows(self.trace)

    def total(self, counter: str) -> float:
        """A counter total over the whole trace."""
        return self.trace.total(counter)


def profile_plan(
    region: "RegionSpec",
    *,
    jobs: int | None = 1,
    prune_enumeration: bool = True,
    validate: bool = True,
) -> ProfileResult:
    """Plan ``region`` with tracing enabled and aggregate the trace.

    Parameters mirror :class:`repro.api.PlannerConfig`. The plan is
    bit-identical to an untraced run (parity-tested); only the returned
    trace is extra.
    """
    # Imported here, not at module top: repro.core imports repro.obs.
    from repro.core.planner import _plan_region

    with tracing("profile.plan") as tracer:
        plan = _plan_region(
            region,
            prune_enumeration=prune_enumeration,
            validate=validate,
            jobs=jobs,
        )
    trace = tracer.record()
    return ProfileResult(plan=plan, trace=trace, phases=aggregate(trace))
