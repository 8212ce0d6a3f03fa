"""Command-line interface: ``iris <subcommand>``.

Subcommands map onto the paper's workflow:

* ``region``    — generate a synthetic region and describe or export it
* ``plan``      — run the Iris planner on a region (built-in or JSON file)
* ``cost``      — itemized Iris / EPS / hybrid cost comparison
* ``portmodel`` — the §2.4 analytic port model (Fig 7)
* ``sweep``     — the Fig 12 design-space sweep (mini grid by default)
* ``simulate``  — one Iris-vs-EPS flow-level comparison (Figs 17-18)
* ``testbed``   — the Fig 14 reconfiguration/BER experiment
* ``analyze``   — latency inflation + siting flexibility over an ensemble
* ``failover``  — a duct-cut drill through the control plane
* ``lint``      — reprolint: domain-aware static analysis of planner invariants
* ``store``     — inspect/maintain the content-addressed artifact store
* ``serve``     — run the planner daemon (JSON-over-TCP, see ``repro.service``)
* ``submit``    — submit a planning job (optionally with a region delta)
* ``jobs``      — list a running daemon's jobs and counters

``iris --version`` prints the package version.

Any subcommand that accepts ``--trace``/``--trace-json PATH`` runs under
:mod:`repro.obs` tracing: ``--trace`` prints the span tree (with counters)
to stderr, ``--trace-json`` writes the trace as JSON lines. Tracing is off
unless one of the flags is given.

``plan`` and ``sweep`` accept ``--store DIR`` (default: the ``IRIS_STORE``
environment variable) to checkpoint planning products in a
:class:`repro.store.PlanStore`; ``--no-store`` opts out even when the
variable is set. Cached results are bit-identical to fresh ones, so the
commands' stdout does not change with cache warmth — store traffic is
reported on stderr. ``iris sweep --resume`` requires a store and replans
only the cells missing from it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from repro.exceptions import ReproError


@contextlib.contextmanager
def _maybe_traced(args):
    """Run the command body under tracing when ``--trace*`` was given."""
    from repro import obs

    if not getattr(args, "trace", False) and not getattr(args, "trace_json", None):
        yield
        return
    with obs.tracing("iris") as tracer:
        yield
    record = tracer.record()
    if args.trace:
        print(obs.render_tree(record), file=sys.stderr)
    if args.trace_json:
        obs.write_trace_json(args.trace_json, record)
        print(f"wrote trace to {args.trace_json}", file=sys.stderr)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span/counter tree to stderr",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write the trace as JSON lines to PATH",
    )


def _load_region(args):
    from repro.region.catalog import make_region
    from repro.serialize import region_from_json

    if args.region_file:
        return region_from_json(Path(args.region_file).read_text()), None
    instance = make_region(
        map_index=args.map_index,
        n_dcs=args.dcs,
        dc_fibers=args.fibers,
        wavelengths_per_fiber=args.wavelengths,
        failure_tolerance=args.tolerance,
    )
    return instance.spec, instance


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1=serial, 0=all CPUs)",
    )


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=os.environ.get("IRIS_STORE"),
        help="artifact store directory (default: $IRIS_STORE)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="run without the artifact store even if $IRIS_STORE is set",
    )


def _open_store(args):
    """The command's :class:`PlanStore`, or ``None`` when storing is off."""
    if getattr(args, "no_store", False) or not getattr(args, "store", None):
        return None
    from repro.store import PlanStore

    return PlanStore(args.store)


def _report_store_traffic(store) -> None:
    """One stderr line of session traffic (stdout stays cache-invariant)."""
    if store is None:
        return
    print(
        f"store: {store.hits} hit(s), {store.misses} miss(es), "
        f"{store.puts} put(s)",
        file=sys.stderr,
    )


def _add_region_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--region-file", help="load a region JSON instead")
    parser.add_argument("--map-index", type=int, default=0, help="catalog map (0-9)")
    parser.add_argument("--dcs", type=int, default=5, help="number of DCs")
    parser.add_argument("--fibers", type=int, default=8, help="fibers per DC")
    parser.add_argument("--wavelengths", type=int, default=40)
    parser.add_argument("--tolerance", type=int, default=2, help="duct cuts tolerated")


def cmd_region(args) -> int:
    """Generate or load a region and describe it."""
    from repro.serialize import region_to_json

    from repro.region.stats import region_summary

    region, instance = _load_region(args)
    fmap = region.fiber_map
    print(f"region: {len(fmap.dcs)} DCs, {len(fmap.huts)} huts, {len(fmap.ducts)} ducts")
    summary = region_summary(region)
    print(f"  mean DC-DC distance: {summary['mean_pair_distance_km']} km "
          f"(max {summary['max_pair_distance_km']} km, "
          f"mean {summary['mean_pair_hops']} hops, "
          f"route factor {summary['mean_route_factor']})")
    for dc in fmap.dcs:
        print(
            f"  {dc}: {region.fibers(dc)} fibers "
            f"({region.capacity_gbps(dc) / 1000:.0f} Tbps)"
        )
    if instance is not None:
        print(f"  candidate hubs: {instance.hubs[0]}, {instance.hubs[1]}")
    if args.out:
        Path(args.out).write_text(region_to_json(region))
        print(f"wrote {args.out}")
    return 0


def cmd_plan(args) -> int:
    """Run the Iris planner and summarize the plan."""
    from repro.api import PlannerConfig
    from repro.api import plan as api_plan
    from repro.serialize import plan_to_json

    region, _ = _load_region(args)
    store = _open_store(args)
    design = getattr(args, "design", "iris")
    traffic = None
    if design == "robust":
        from repro.designs.robust import TrafficEnsembleSpec

        traffic = TrafficEnsembleSpec(
            count=args.traffic, seed=args.traffic_seed
        )
    config = PlannerConfig(jobs=args.jobs, store=store, traffic=traffic)
    with _maybe_traced(args):
        plan = api_plan(region, design=design, config=config)
    _report_store_traffic(store)
    if design == "robust":
        print(f"design: robust ({args.traffic} traffic matrices, "
              f"seed {args.traffic_seed})")
    print(f"scenarios: {len(plan.topology.scenario_paths)} enumerated "
          f"(of {plan.topology.scenario_count_total} raw)")
    if plan.topology.timings is not None:  # None when loaded from the store
        print(f"planning time: {plan.topology.timings.summary()}")
    print(f"base fiber-pairs: {plan.topology.total_fiber_pairs()}")
    print(f"residual fiber-pair spans: {plan.residual_fiber_pairs()}")
    print(f"in-line amplifiers: {plan.amplifiers.total_amplifiers} "
          f"at {len(plan.amplifiers.site_counts)} site(s)")
    print(f"cut-through links: {len(plan.cut_throughs)}")
    violations = plan.validate()
    print(f"constraint violations: {len(violations)}")
    if args.out:
        Path(args.out).write_text(plan_to_json(plan))
        print(f"wrote {args.out}")
    return 0


def cmd_cost(args) -> int:
    """Itemized Iris / hybrid / EPS cost comparison."""
    from repro.core.planner import plan_region
    from repro.cost.estimator import estimate_cost
    from repro.designs.eps import eps_inventory
    from repro.designs.hybrid import hybridize

    region, _ = _load_region(args)
    plan = plan_region(region)
    iris = estimate_cost(plan.inventory())
    eps = estimate_cost(eps_inventory(region, plan.topology))
    hybrid = estimate_cost(hybridize(plan).inventory())

    print(f"{'design':<10}{'$/yr':>14}{'transceivers':>14}{'fiber':>12}"
          f"{'switching':>12}{'amps':>10}")
    for name, cost in (("iris", iris), ("hybrid", hybrid), ("eps", eps)):
        switching = cost.oss_ports + cost.oxc_ports + cost.electrical_ports
        print(
            f"{name:<10}{cost.total:>14,.0f}{cost.transceivers:>14,.0f}"
            f"{cost.fiber:>12,.0f}{switching:>12,.0f}{cost.amplifiers:>10,.0f}"
        )
    print(f"EPS / Iris cost ratio: {eps.total / iris.total:.2f}x")
    return 0


def cmd_portmodel(args) -> int:
    """Print the Fig 7 analytic port-cost table."""
    from repro.analysis.portcost import port_cost_table

    print(f"{'groups':>8}{'ports':>8}{'electrical':>12}{'with SR':>10}{'optical':>10}")
    for row in port_cost_table(n_dcs=args.dcs):
        print(
            f"{row.groups:>8}{row.total_ports:>8}{row.electrical:>12.2f}"
            f"{row.electrical_sr:>10.2f}{row.optical:>10.2f}"
        )
    return 0


def cmd_sweep(args) -> int:
    """Run the Fig 12 design-space sweep and print ratios."""
    from repro.analysis.designspace import default_mini_sweep, full_paper_sweep
    from repro.api import PlannerConfig
    from repro.api import sweep as api_sweep

    points = full_paper_sweep() if args.full else default_mini_sweep()
    if args.limit:
        points = points[: args.limit]
    store = _open_store(args)
    if args.resume and store is None:
        print(
            "usage error: --resume needs an artifact store "
            "(--store DIR or $IRIS_STORE)",
            file=sys.stderr,
        )
        return 2
    config = PlannerConfig(jobs=args.jobs, store=store)
    with _maybe_traced(args):
        records = api_sweep(points, config=config)
    _report_store_traffic(store)
    print(f"{'map':>4}{'n':>4}{'f':>4}{'lam':>5}{'EPS/Iris':>10}"
          f"{'EPS/Hybrid':>12}{'in-net':>8}{'EPS0/Iris2':>12}")
    for r in records:
        p = r.point
        print(
            f"{p.map_index:>4}{p.n_dcs:>4}{p.dc_fibers:>4}{p.wavelengths:>5}"
            f"{r.eps_over_iris:>10.1f}{r.eps_over_hybrid:>12.1f}"
            f"{r.eps_over_iris_innetwork:>8.1f}{r.eps_tol0_over_iris:>12.2f}"
        )
    ratios = sorted(r.eps_over_iris for r in records)
    print(f"median EPS/Iris: {ratios[len(ratios) // 2]:.1f}x "
          f"(min {ratios[0]:.1f}, max {ratios[-1]:.1f})")
    return 0


def cmd_simulate(args) -> int:
    """One Iris-vs-EPS flow-level comparison."""
    from repro.api import simulate as api_simulate
    from repro.simulation.scenarios import ScenarioConfig

    config = ScenarioConfig(
        n_dcs=args.dcs,
        utilization=args.utilization,
        workload=args.workload,
        duration_s=args.duration,
        change_interval_s=args.interval,
        max_change=None if args.unbounded else args.change,
        seed=args.seed,
        traffic_backend=args.traffic_backend,
        interarrival=args.interarrival,
    )
    with _maybe_traced(args):
        result = api_simulate(config)
    s = result.summary
    print(f"flows: {s.iris_flows} (unfinished: {s.iris_unfinished})")
    print(f"reconfigurations: {result.reconfigurations}, "
          f"fibers moved: {result.fibers_moved}")
    print(f"99th-pct FCT slowdown (Iris/EPS): all={s.p99_all:.3f} "
          f"short={s.p99_short:.3f} median={s.p50_all:.3f}")
    return 0


def cmd_testbed(args) -> int:
    """Run the Fig 14 reconfiguration/BER experiment."""
    from repro.testbed.experiments import run_reconfiguration_experiment

    summary = run_reconfiguration_experiment(
        duration_s=args.duration,
        reconfig_period_s=args.period,
        two_huts=args.two_huts,
    )
    print(f"reconfigurations: {summary.reconfigurations}")
    print(f"max pre-FEC BER: {summary.max_prefec_ber:.2e} "
          f"(SD-FEC threshold {summary.fec_threshold:.0e})")
    print(f"recovery time: {summary.recovery_time_s * 1000:.0f} ms")
    print(f"signal availability: {summary.availability() * 100:.3f}%")
    print(f"error-free post-FEC: {summary.always_below_threshold}")
    return 0


def cmd_analyze(args) -> int:
    """Latency-inflation and siting-flexibility summaries."""
    from repro.analysis.flexibility import flexibility_gains
    from repro.analysis.latency import fraction_at_least, latency_inflation_ratios
    from repro.region.catalog import region_ensemble

    instances = region_ensemble(count=args.regions, n_dcs_range=(5, 9))
    ratios = latency_inflation_ratios(instances, jobs=args.jobs)
    print(f"latency inflation over {len(ratios)} DC pairs "
          f"({args.regions} regions):")
    for threshold in (1.0, 1.5, 2.0, 4.0):
        frac = fraction_at_least(ratios, threshold)
        print(f"  >= {threshold:.1f}x: {frac * 100:5.1f}%")
    gains = flexibility_gains(instances, spacing_km=4.0, jobs=args.jobs)
    values = sorted(g for _, g in gains)
    print(f"siting-area gain (distributed / centralized): "
          f"median {values[len(values) // 2]:.1f}x, "
          f"range {values[0]:.1f}-{values[-1]:.1f}x")
    return 0


def cmd_failover(args) -> int:
    """Duct-cut drill: light circuits, cut, fail over, repair."""
    region, _ = _load_region(args)
    with _maybe_traced(args):
        return _failover_drill(region)


def _failover_drill(region) -> int:
    from repro.control.controller import IrisController
    from repro.core.planner import plan_region
    from repro.region.fibermap import duct_key

    plan = plan_region(region)
    controller = IrisController(plan)
    dcs = region.dcs
    demand = {
        (dcs[i], dcs[i + 1]): region.capacity_gbps(dcs[i]) / 4
        for i in range(len(dcs) - 1)
    }
    controller.apply_demands(demand)
    print(f"lit circuits: {dict(controller.current_target.fibers)}")

    # Cut the busiest duct on any lit path.
    base = plan.topology.base_paths
    duct_use: dict[tuple, int] = {}
    for pair in controller.current_target.pairs():
        path = base[pair]
        for u, v in zip(path, path[1:]):
            duct_use[duct_key(u, v)] = duct_use.get(duct_key(u, v), 0) + 1
    cut = max(duct_use, key=lambda d: (duct_use[d], d))
    print(f"cutting duct {cut} (carries {duct_use[cut]} circuit group(s))")
    report = controller.report_duct_failure(*cut)
    print(f"failover: drained={list(report.drained_pairs)} "
          f"connects={report.connects} disconnects={report.disconnects} "
          f"dataplane-impact={report.duration_s * 1000:.0f} ms")
    print(f"audit: {controller.audit() or 'clean'}")
    report = controller.report_duct_repair(*cut)
    print(f"repair: drained={list(report.drained_pairs)} "
          f"restored shortest paths, audit "
          f"{controller.audit() or 'clean'}")
    return 0


def _lint_rule_selection(args):
    """The rule subset a lint invocation runs (``--disable`` applied)."""
    from repro.lint import all_rules

    disabled = {
        rule_id.strip().upper()
        for spec in (args.disable or [])
        for rule_id in spec.split(",")
        if rule_id.strip()
    }
    if not disabled:
        return None, disabled
    return [r for r in all_rules() if r.rule_id not in disabled], disabled


def _lint_fix(args, selected) -> int:
    """``iris lint --fix [--dry-run]``: apply conservative autofixes."""
    from repro.lint import (
        LintUsageError,
        fix_sources,
        iter_python_files,
        unified_diff,
    )

    try:
        files = iter_python_files(args.paths)
        if not files:
            raise LintUsageError("no Python files to lint under the given paths")
    except LintUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    sources = [(str(p), p.read_text(encoding="utf-8")) for p in files]
    report = fix_sources(
        sources,
        rules=selected,
        report_unused_noqa=args.report_unused_noqa,
    )
    if args.dry_run:
        diff = unified_diff(dict(sources), report)
        if diff:
            print(diff, end="")
        print(
            f"would apply {report.total_applied} fix(es) in "
            f"{len(report.changed_paths())} file(s)",
            file=sys.stderr,
        )
    else:
        for path in report.changed_paths():
            Path(path).write_text(report.files[path], encoding="utf-8")
        print(
            f"applied {report.total_applied} fix(es) in "
            f"{len(report.changed_paths())} file(s)",
            file=sys.stderr,
        )
    for finding in report.remaining:
        print(finding.format())
    return 1 if report.remaining else 0


def cmd_lint(args) -> int:
    """Run reprolint; exit 0 clean, 1 findings, 2 usage error."""
    import json

    from repro.lint import LintUsageError, all_rules, lint_paths

    if args.list_rules:
        for lint_rule in all_rules():
            print(f"{lint_rule.rule_id}  {lint_rule.title}")
            print(f"      {lint_rule.invariant}")
        return 0
    selected, _disabled = _lint_rule_selection(args)
    if args.dry_run and not args.fix:
        print("usage error: --dry-run requires --fix", file=sys.stderr)
        return 2
    if args.fix:
        return _lint_fix(args, selected)
    try:
        findings = lint_paths(
            args.paths,
            rules=selected,
            report_unused_noqa=args.report_unused_noqa,
        )
    except LintUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "version": 1,
            "findings": [finding.to_dict() for finding in findings],
            "summary": {
                "findings": len(findings),
                "files_flagged": len({finding.path for finding in findings}),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro import __version__
        from repro.lint import to_sarif

        rules = selected if selected is not None else all_rules()
        print(
            json.dumps(
                to_sarif(findings, rules, version=__version__),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
    if findings:
        flagged = len({finding.path for finding in findings})
        print(f"{len(findings)} finding(s) in {flagged} file(s)", file=sys.stderr)
        return 1
    return 0


def _require_store(args):
    """The store a ``store`` subcommand operates on, or ``None`` + usage error."""
    if not args.store:
        print(
            "usage error: store commands need --store DIR or $IRIS_STORE",
            file=sys.stderr,
        )
        return None
    from repro.store import PlanStore

    return PlanStore(args.store)


def cmd_store_stats(args) -> int:
    """Inventory the store (blobs, bytes, kinds, session traffic)."""
    import json

    store = _require_store(args)
    if store is None:
        return 2
    stats = store.stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"store: {stats.root}")
    print(f"  blobs: {stats.blobs} ({stats.total_bytes:,} bytes)")
    for kind, count in sorted(stats.kinds.items()):
        print(f"  kind {kind}: {count}")
    return 0


def cmd_store_gc(args) -> int:
    """Remove the stale tmp files interrupted writes left behind."""
    store = _require_store(args)
    if store is None:
        return 2
    result = store.gc()
    print(f"removed {result.removed_tmp} stale tmp file(s), "
          f"reclaimed {result.reclaimed_bytes:,} bytes")
    return 0


def cmd_store_verify(args) -> int:
    """Re-verify every blob digest; exit 1 if problems were found."""
    store = _require_store(args)
    if store is None:
        return 2
    problems = store.verify(repair=args.repair)
    for problem in problems:
        print(problem)
    if problems:
        action = "repaired" if args.repair else "found"
        print(f"{len(problems)} problem(s) {action}", file=sys.stderr)
        return 1
    print("store verified clean")
    return 0


def cmd_serve(args) -> int:
    """Run the planner daemon until SIGTERM/SIGINT (then drain)."""
    import signal

    from repro.service import PlannerService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        jobs=args.jobs,
        job_timeout_s=args.job_timeout,
    )
    service = PlannerService(config, store=_open_store(args)).start()
    host, port = service.address
    print(f"iris daemon listening on {host}:{port}", file=sys.stderr)
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n")

    def _drain(signum, _frame):
        print(
            f"signal {signal.Signals(signum).name}: draining "
            f"(up to {args.drain_timeout:.0f}s)",
            file=sys.stderr,
        )
        import threading

        threading.Thread(
            target=service.drain, args=(args.drain_timeout,), daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    service.wait_closed()
    print("iris daemon stopped", file=sys.stderr)
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient((args.host, args.port))


def cmd_submit(args) -> int:
    """Submit one planning job to a running daemon and wait for the plan."""
    import json

    from repro.region.delta import delta_from_dict

    region, _ = _load_region(args)
    delta = None
    if args.delta_file:
        delta = delta_from_dict(json.loads(Path(args.delta_file).read_text()))
    elif args.delta:
        delta = delta_from_dict(json.loads(args.delta))
    with _service_client(args) as client:
        submitted = client.submit(region, delta=delta)
        job_id = submitted["job_id"]
        print(
            f"submitted {job_id}"
            + (" (coalesced onto an in-flight job)" if submitted["coalesced"] else ""),
            file=sys.stderr,
        )
        if args.no_wait:
            print(job_id)
            return 0
        result = client.result(job_id, timeout_s=args.timeout)
    stats = result.get("delta_stats")
    print(f"job {job_id}: {result['state']} ({result['outcome']})")
    if stats is not None:
        print(
            f"  delta: mode={stats['mode']} realization={stats['realization']} "
            f"scenarios reused={stats['scenarios_reused']} "
            f"computed={stats['scenarios_computed']}"
        )
    if args.out:
        Path(args.out).write_text(result["plan"])
        print(f"wrote {args.out}")
    return 0


def cmd_jobs(args) -> int:
    """List a running daemon's jobs and counters."""
    with _service_client(args) as client:
        jobs = client.jobs()
        stats = client.stats()
    if not jobs:
        print("no jobs")
    for job in jobs:
        line = f"{job['job_id']:<12}{job['state']:<9}{job.get('outcome') or '-':<9}"
        if job.get("waiters", 1) > 1:
            line += f" waiters={job['waiters']}"
        if job.get("error"):
            line += f" error: {job['error']}"
        print(line)
    counters = stats["counters"]
    print(
        f"counters: queued={counters['queued']} coalesced={counters['coalesced']} "
        f"store={counters['store_hits']} patched={counters['patched']} "
        f"cold={counters['cold']} failed={counters['failed']} "
        f"rejected={counters['rejected']}",
        file=sys.stderr,
    )
    return 0


def _add_service_address_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="daemon host")
    parser.add_argument(
        "--port", type=int, required=True, help="daemon port (see iris serve)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The iris argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="iris",
        description="Regional DCI planning and evaluation (SIGCOMM'20 Iris reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="generate/describe a region")
    _add_region_args(p)
    p.add_argument("--out", help="write region JSON here")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("plan", help="run the Iris planner")
    _add_region_args(p)
    _add_jobs_arg(p)
    _add_trace_args(p)
    _add_store_args(p)
    p.add_argument(
        "--design",
        choices=("iris", "robust"),
        default="iris",
        help="planning mode: hose-envelope iris (default) or "
        "multi-TM robust",
    )
    p.add_argument(
        "--traffic",
        type=int,
        default=5,
        metavar="N",
        help="robust mode: number of sampled traffic matrices",
    )
    p.add_argument(
        "--traffic-seed",
        type=int,
        default=2020,
        help="robust mode: ensemble sampling seed",
    )
    p.add_argument("--out", help="write plan JSON here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("cost", help="Iris vs EPS vs hybrid costs")
    _add_region_args(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("portmodel", help="the §2.4 analytic port model")
    p.add_argument("--dcs", type=int, default=16)
    p.set_defaults(func=cmd_portmodel)

    p = sub.add_parser("sweep", help="the Fig 12 design-space sweep")
    p.add_argument("--full", action="store_true", help="run all 240 scenarios")
    p.add_argument("--limit", type=int, default=0, help="only the first N points")
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from the store (requires one)",
    )
    _add_jobs_arg(p)
    _add_trace_args(p)
    _add_store_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="flow-level Iris vs EPS comparison")
    p.add_argument("--dcs", type=int, default=6)
    p.add_argument("--utilization", type=float, default=0.4)
    p.add_argument("--workload", default="web1")
    p.add_argument("--duration", type=float, default=15.0)
    p.add_argument("--interval", type=float, default=5.0)
    p.add_argument("--change", type=float, default=0.5)
    p.add_argument("--unbounded", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--traffic-backend",
        choices=("poisson", "flowgen"),
        default="poisson",
        help="flow arrivals: per-pair Poisson (default) or the "
        "flow-centric generator (size x interarrival x locality)",
    )
    p.add_argument(
        "--interarrival",
        choices=("poisson", "smooth", "bursty"),
        default="bursty",
        help="interarrival shape for --traffic-backend flowgen",
    )
    _add_trace_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("testbed", help="the Fig 14 BER/reconfiguration run")
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--period", type=float, default=60.0)
    p.add_argument("--two-huts", action="store_true")
    p.set_defaults(func=cmd_testbed)

    p = sub.add_parser("analyze", help="latency + siting analysis (Figs 3, 6)")
    p.add_argument("--regions", type=int, default=10)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("failover", help="duct-cut drill via the controller")
    _add_region_args(p)
    _add_trace_args(p)
    p.set_defaults(func=cmd_failover)

    p = sub.add_parser(
        "lint",
        help="reprolint static analysis (determinism/unit/pool-safety rules)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print each rule id, title, and the invariant it guards",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "findings output format (json feeds CI artifacts; sarif is "
            "SARIF 2.1.0 for native PR annotation)"
        ),
    )
    p.add_argument(
        "--report-unused-noqa",
        action="store_true",
        help="also flag '# repro: noqa' comments that suppress nothing (R900)",
    )
    p.add_argument(
        "--fix",
        action="store_true",
        help="apply conservative autofixes (sorted() wraps, keyword-only "
        "migration, stale-noqa removal) and report what remains",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diff instead of writing files",
    )
    p.add_argument(
        "--disable",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids to skip (repeatable), "
        "e.g. --disable R006,R011",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "store",
        help="inspect/maintain the content-addressed artifact store",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    for name, func, help_text in (
        ("stats", cmd_store_stats, "inventory + session counters"),
        ("gc", cmd_store_gc, "remove stale tmp files"),
        ("verify", cmd_store_verify, "re-check every blob digest"),
    ):
        ps = store_sub.add_parser(name, help=help_text)
        ps.add_argument(
            "--store",
            metavar="DIR",
            default=os.environ.get("IRIS_STORE"),
            help="artifact store directory (default: $IRIS_STORE)",
        )
        if name == "stats":
            ps.add_argument(
                "--json", action="store_true", help="machine-readable output"
            )
        if name == "verify":
            ps.add_argument(
                "--repair",
                action="store_true",
                help="delete corrupt blobs",
            )
        ps.set_defaults(func=func)

    p = sub.add_parser("serve", help="run the planner daemon (repro.service)")
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (for scripts/tests)",
    )
    p.add_argument("--workers", type=int, default=2, help="worker threads")
    p.add_argument(
        "--queue-size", type=int, default=16, help="bounded request queue"
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline (cancelled via the engine's CancelToken)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="grace period for in-flight jobs on SIGTERM/SIGINT",
    )
    _add_jobs_arg(p)
    _add_store_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a planning job to a running daemon"
    )
    _add_service_address_args(p)
    _add_region_args(p)
    p.add_argument(
        "--delta",
        metavar="JSON",
        help="inline RegionDelta JSON applied to the region before planning",
    )
    p.add_argument(
        "--delta-file",
        metavar="PATH",
        help="file holding the RegionDelta JSON (overrides --delta)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="how long to wait for the result",
    )
    p.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting",
    )
    p.add_argument("--out", help="write the plan JSON here")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list a daemon's jobs and counters")
    _add_service_address_args(p)
    p.set_defaults(func=cmd_jobs)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
