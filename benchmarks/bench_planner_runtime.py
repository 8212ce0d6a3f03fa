"""§4.3: planner runtime.

Paper: the heuristics "still execute within a few minutes for even large
region sizes with 20 DCs", running once at provisioning time. This bench
times the full pipeline (Algorithm 1 with 2-cut enumeration, amplifier and
cut-through placement, residual provisioning) at a mid-size region and
asserts the paper's budget holds with generous margin. Per-phase wall
times come from :func:`repro.obs.profile_plan` rather than stopwatching
around the call, so the report attributes runtime to the phase that spent
it.

Run directly for a CI smoke pass that emits the JSON trace::

    PYTHONPATH=src python benchmarks/bench_planner_runtime.py --smoke \\
        --trace-json planner_trace.jsonl

or to append a trajectory row to the committed benchmark file (and gate
on the golden hose lookup and miss counts)::

    PYTHONPATH=src python benchmarks/bench_planner_runtime.py \\
        --json BENCH_planner.json
"""

import os
import time
from pathlib import Path

from repro.core.planner import _plan_region, plan_region
from repro.obs import profile_plan
from repro.region.catalog import make_region

REPO_ROOT = Path(__file__).resolve().parents[1]

#: reprolint budget: review-time analysis must stay interactive and cheap
#: enough to gate CI; ~5s covers the full repo with a wide margin today.
REPROLINT_BUDGET_S = 5.0

#: ``BENCH_planner.json`` row layout version (bump on breaking changes).
BENCH_SCHEMA_VERSION = 1

#: The golden region (tests/test_golden.py) the trajectory tracks.
GOLDEN_REGION = {"map_index": 0, "n_dcs": 5, "dc_fibers": 8}

#: Pinned golden work counts: the CI gate fails when a row exceeds them.
GOLDEN_HOSE_LOOKUPS = 15762
GOLDEN_HOSE_MISSES = 92


def plan_mid_region():
    instance = make_region(map_index=2, n_dcs=10, dc_fibers=8)
    return plan_region(instance.spec)


def test_planner_runtime(benchmark, report):
    plan = benchmark.pedantic(plan_mid_region, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.mean

    report("§4.3   planner runtime (10-DC region, tolerance 2)")
    report(f"        wall time             paper 'minutes' (20 DCs)   "
           f"measured {seconds:.1f} s (10 DCs)")
    report(f"        scenarios enumerated  {len(plan.topology.scenario_paths)} "
           f"(pruned from {plan.topology.scenario_count_total})")

    assert plan.validate() == []
    assert seconds < 300.0


def test_planner_phase_profile(report):
    """Where does planning time go? Per-phase breakdown via repro.obs."""
    instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
    result = profile_plan(instance.spec)

    total_s = result.trace.duration_s
    report("§4.3   planner phase profile (5-DC region, jobs=1)")
    for row in result.phases:
        # Top-level phases only; the per-level enumerate spans are in the
        # full trace (--smoke --trace-json) but would double-count here.
        if not row.name.startswith("plan.") or "level[" in row.name:
            continue
        share = row.total_s / total_s if total_s > 0 else 0.0
        report(f"        {row.name:<22}{row.total_s * 1000:8.1f} ms"
               f"  ({share:5.1%} of {total_s:.2f} s)")
    report(f"        scenarios evaluated   {result.total('scenarios.evaluated'):.0f}"
           f"   hose lookups {result.total('hose.lookups'):.0f}")

    assert result.plan.validate() == []
    # The capacity phase dominates Algorithm 1; it must show up.
    phase_names = {row.name for row in result.phases}
    assert {"plan.enumerate", "plan.capacity"} <= phase_names

    if os.environ.get("REPRO_FULL_SCALE"):
        t0 = time.perf_counter()
        instance = make_region(map_index=1, n_dcs=20, dc_fibers=8)
        big = plan_region(instance.spec)
        elapsed = time.perf_counter() - t0
        report(f"        20-DC full scale      paper minutes  measured "
               f"{elapsed / 60:.1f} min")
        assert big.validate() == []


def test_planner_serial_vs_parallel(report):
    """Scenario-parallel engine: jobs=N must match jobs=1 bit-for-bit, and
    on a multi-core box the 10-DC plan should go meaningfully faster."""
    instance = make_region(map_index=2, n_dcs=10, dc_fibers=8)
    cores = os.cpu_count() or 1
    jobs = min(4, cores) if cores >= 2 else 2

    t0 = time.perf_counter()
    serial = _plan_region(instance.spec, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = _plan_region(instance.spec, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    assert serial.topology == parallel.topology
    assert serial.inventory() == parallel.inventory()

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    timings = parallel.topology.timings
    report("§4.3   planner parallel speedup (10-DC region)")
    report(f"        serial jobs=1         {serial_s:.1f} s   "
           f"({serial.topology.timings.summary()})")
    report(f"        parallel jobs={jobs}       {parallel_s:.1f} s   "
           f"({timings.summary()})")
    report(f"        speedup               {speedup:.2f}x on {cores} core(s)")

    # The ISSUE acceptance floor (>=1.8x at jobs=4) only applies where the
    # hardware can deliver it; single-core boxes pay pure pool overhead.
    if cores >= 4 and jobs >= 4:
        assert speedup >= 1.8


def _run_reprolint():
    """Time a full-repo reprolint pass; returns (seconds, findings, files)."""
    from repro.lint import iter_python_files, lint_paths

    roots = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    n_files = len(iter_python_files(roots))
    t0 = time.perf_counter()
    findings = lint_paths(roots)
    return time.perf_counter() - t0, findings, n_files


def test_reprolint_runtime(report):
    """Static analysis is a CI gate; a gate slower than the tests it guards
    stops being run. The full-repo pass must stay under ~5 s."""
    seconds, findings, n_files = _run_reprolint()
    src_findings = [f for f in findings if "src" in Path(f.path).parts]

    report("lint   reprolint full-repo pass (src + tests + benchmarks)")
    report(f"        wall time             budget {REPROLINT_BUDGET_S:.0f} s"
           f"   measured {seconds:.2f} s ({n_files} files)")
    report(f"        findings              src {len(src_findings)}"
           f"   elsewhere {len(findings) - len(src_findings)}")

    assert seconds < REPROLINT_BUDGET_S
    # The shipped source tree is the gated surface and must be clean.
    assert src_findings == []


def _smoke(trace_json: str | None) -> int:
    """CI smoke: profile a small region, print the phase table, dump trace."""
    from repro.obs import write_trace_json

    instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
    result = profile_plan(instance.spec)
    problems = result.plan.validate()

    print(result.render())
    print()
    for row in result.csv_rows():
        print(",".join(row))
    if trace_json:
        write_trace_json(trace_json, result.trace)
        print(f"\ntrace written to {trace_json}")

    lint_s, findings, n_files = _run_reprolint()
    src_findings = [f for f in findings if "src" in Path(f.path).parts]
    print(f"\nreprolint: {n_files} files in {lint_s:.2f} s "
          f"(budget {REPROLINT_BUDGET_S:.0f} s), "
          f"{len(src_findings)} src finding(s)")

    if problems:
        print(f"PLAN INVALID: {problems[:3]}")
        return 1
    if src_findings or lint_s >= REPROLINT_BUDGET_S:
        for finding in src_findings[:5]:
            print(finding.format())
        print("REPROLINT GATE FAILED")
        return 1
    return 0


def _measure_golden(rounds: int = 3) -> tuple:
    """Best-of-``rounds`` cold-cache traced plans of the golden region.

    Returns ``(wall_s, ProfileResult, HoseCacheStats)`` for the fastest
    round (standard practice: the minimum is the least noise-polluted
    sample; the work counters are identical across rounds because every
    round starts from a cleared cache).
    """
    from repro.core.hose import clear_hose_cache, hose_cache_stats

    instance = make_region(**GOLDEN_REGION)
    best: tuple | None = None
    for _ in range(rounds):
        clear_hose_cache()
        t0 = time.perf_counter()
        result = profile_plan(instance.spec)
        wall_s = time.perf_counter() - t0
        if best is None or wall_s < best[0]:
            best = (wall_s, result, hose_cache_stats())
    return best


def _bench_json(path: str) -> int:
    """Append one trajectory row to ``path`` and gate on golden counts.

    The file is ``{"schema_version": 1, "rows": [...]}``; each run
    appends one row, so the committed file accumulates a PR-over-PR
    runtime trajectory for the same golden region. Exits non-zero when
    the measured hose counts regress from the golden baseline (other
    lookups, or more misses, than the pinned values).
    """
    import json

    from repro import __version__

    wall_s, result, stats = _measure_golden()
    row = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "region": dict(GOLDEN_REGION),
        "jobs": 1,
        "backend": "serial",
        "scenarios": int(result.total("scenarios.evaluated")),
        "hose": {
            "lookups": int(result.total("hose.lookups")),
            "hits": stats.hits,
            "misses": stats.misses,
            "cold_solves": stats.cold_solves,
        },
        "phases_s": {
            phase.name: round(phase.total_s, 4)
            for phase in result.phases
            if phase.name.startswith("plan.") and "level[" not in phase.name
        },
        "wall_s": round(wall_s, 4),
    }

    target = Path(path)
    if target.exists():
        payload = json.loads(target.read_text())
        if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
            print(f"BENCH GATE FAILED: {path} has schema_version "
                  f"{payload.get('schema_version')!r}, expected "
                  f"{BENCH_SCHEMA_VERSION}")
            return 1
    else:
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "rows": []}
    payload["rows"].append(row)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    hose = row["hose"]
    print(f"BENCH_planner row appended to {path} "
          f"({len(payload['rows'])} row(s))")
    print(f"  scenarios {row['scenarios']}, hose lookups {hose['lookups']}, "
          f"misses {hose['misses']}, wall {row['wall_s']:.2f} s")

    problems = []
    if hose["lookups"] != GOLDEN_HOSE_LOOKUPS:
        problems.append(
            f"hose lookups {hose['lookups']} != golden {GOLDEN_HOSE_LOOKUPS}"
        )
    if hose["misses"] > GOLDEN_HOSE_MISSES:
        problems.append(
            f"hose misses {hose['misses']} > golden {GOLDEN_HOSE_MISSES}"
        )
    if result.plan.validate():
        problems.append("plan failed validation")
    for problem in problems:
        print(f"BENCH GATE FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the quick profiling smoke pass and exit")
    parser.add_argument("--trace-json", metavar="PATH", default=None,
                        help="also write the span trace as JSON lines")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="append a BENCH_planner.json trajectory row "
                             "and gate on the golden hose lookup/miss counts")
    cli_args = parser.parse_args()
    if not cli_args.smoke and not cli_args.json:
        parser.error("this entry point supports --smoke and/or --json; "
                     "use pytest for the full benchmarks")
    status = 0
    if cli_args.smoke:
        status = _smoke(cli_args.trace_json)
    if status == 0 and cli_args.json:
        status = _bench_json(cli_args.json)
    sys.exit(status)
