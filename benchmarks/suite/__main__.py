"""Command line of the repo benchmark.

    python -m benchmarks.suite run [--workload W] [--seed N] [--seconds S]
                                   [--trace 0|1] [--out results.json]
    python -m benchmarks.suite trace [--workload W] ... [--out traced.json]
    python -m benchmarks.suite compare --parent A.json ... --change B.json ...
    python -m benchmarks.suite calibrate [--out calibration.json]

``run`` measures each workload (all four unless ``--workload`` names
some) in fresh subprocesses, one after another. It prints every metric
with its unit, then one JSON line per workload with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` declares, and
exits non-zero if any output check failed. ``trace`` is ``run --trace 1``:
per-layer metrics instead of end-to-end ones. The command puts the
checkout's ``src`` on the workers' import path itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from .metrics import END_TO_END, METRICS, WORKLOADS, compare_values, metrics_for, rel_iqr
from .workloads import ROOT

#: Seconds each run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 15

#: Fresh-process setups per run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: Wall-clock budget of one workload's run, its setups included.
WORKLOAD_BUDGET_S = 170.0

#: Calibration sets: (label, seed), each of CALIBRATION_RUNS runs.
CALIBRATION_SETS = (("A", 0), ("B", 0), ("C", 1))
CALIBRATION_RUNS = 5


class SuiteError(Exception):
    """A worker could not produce a result."""


def _spawn(workload, seed, seconds, trace, setup_only, deadline) -> dict:
    """Run one worker process and return the result it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One string-hash layout for every process: with a random one per
    # process, golden5's run-to-run spread doubles.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-m", "benchmarks.suite", "worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ] + (["--setup-only"] if setup_only else [])
    # Its own session, so a timeout also stops the daemon it may start.
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SuiteError(
                f"{workload}: over its {WORKLOAD_BUDGET_S:.0f} s budget"
            ) from None
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0 or not out.strip():
        raise SuiteError(f"{workload}: the worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of ``workload``: its setups, then the measured worker."""
    deadline = perf_counter() + WORKLOAD_BUDGET_S
    if trace:
        return _spawn(workload, seed, seconds, True, False, deadline)
    setups = [
        _spawn(workload, seed, seconds, False, True, deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    result = _spawn(workload, seed, seconds, False, False, deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _with_units(metrics: dict) -> dict:
    return {
        name: {"value": value, "unit": METRICS[name].unit}
        for name, value in metrics.items()
    }


def _report(workload: str, result: dict, trace: bool) -> None:
    for metric in metrics_for(workload, trace):
        value = result["metrics"].get(metric.name)
        shown = "n/a" if value is None else f"{value:.6g} {metric.unit}"
        print(f"{workload:<12} {metric.name:<26} {shown}")
    for note in result["notes"]:
        print(f"{workload:<12} note: {note}")
    for problem in result["problems"]:
        print(f"{workload:<12} FAILED: {problem}")
    declared = [m.name for m in metrics_for(workload, trace) if m.common]
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": _with_units(
                    {name: result["metrics"][name] for name in declared}
                ),
            }
        ),
        flush=True,
    )


def fingerprint() -> dict:
    """The hardware and software a result was measured on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx,
        "git_head": head,
    }


def cmd_run(args) -> int:
    status = 0
    results = {}
    for workload in args.workload or WORKLOADS:
        try:
            result = measure(workload, args.seed, args.seconds, args.trace)
        except SuiteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _report(workload, result, args.trace)
        results[workload] = {**result, "metrics": _with_units(result["metrics"])}
        if result["failed"]:
            status = 1
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": bool(args.trace),
                    "fingerprint": fingerprint(),
                    "workloads": results,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"results written to {args.out}", file=sys.stderr)
    return status


def _values(runs: list[dict], workload: str, name: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][name]["value"]
        for run in runs
        if name in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def cmd_compare(args) -> int:
    parent = [json.loads(Path(p).read_text()) for p in args.parent]
    change = [json.loads(Path(p).read_text()) for p in args.change]
    status = 0
    print(
        f"{'workload':<12} {'metric':<18} {'parent p50 [q1, q3]':>30} "
        f"{'change p50 [q1, q3]':>30} {'wins':>6}  verdict"
    )
    for workload in WORKLOADS:
        if not all(workload in run["workloads"] for run in parent + change):
            continue
        for metric in END_TO_END:
            p_values = _values(parent, workload, metric.name)
            c_values = _values(change, workload, metric.name)
            if not p_values or not c_values:
                continue
            cmp = compare_values(p_values, c_values, metric)
            p_q1, p_med, p_q3 = cmp.parent
            c_q1, c_med, c_q3 = cmp.change
            print(
                f"{workload:<12} {metric.name:<18} "
                f"{p_med:>12.5g} [{p_q1:.5g}, {p_q3:.5g}] "
                f"{c_med:>12.5g} [{c_q1:.5g}, {c_q3:.5g}] "
                f"{cmp.wins:>3}/{cmp.pairs:<2}  {cmp.verdict}"
            )
            if cmp.verdict == "regressed":
                status = 1
        fractions = [
            sum(r["workloads"][workload]["failed"] for r in runs)
            / max(1, sum(r["workloads"][workload]["attempted"] for r in runs))
            for runs in (parent, change)
        ]
        if fractions[1] > fractions[0]:
            print(
                f"{workload:<12} failed_frac rose from {fractions[0]:.4f} "
                f"to {fractions[1]:.4f}"
            )
            status = 1
        digests = [
            {
                (name, value)
                for r in runs
                for name, value in r["workloads"][workload]["digests"].items()
            }
            for runs in (parent, change)
        ]
        for name in sorted({name for name, _ in digests[0] ^ digests[1]}):
            print(f"{workload:<12} plan digest changed: {name}")
    return status


def calibration_summary(sets: dict) -> dict:
    """Per workload x metric: medians and relative IQRs of each set, the
    A-vs-B median gap, and whether the bound covers both rules."""
    summary: dict = {}
    for workload in WORKLOADS:
        for metric in END_TO_END:
            if workload not in metric.workloads:
                continue
            per_set = {
                label: [
                    run[workload]["metrics"][metric.name]
                    for run in sets[label]["runs"]
                    if metric.name in run[workload]["metrics"]
                ]
                for label, _ in CALIBRATION_SETS
            }
            med_a = statistics.median(per_set["A"])
            med_b = statistics.median(per_set["B"])
            spreads = {label: rel_iqr(v) for label, v in per_set.items()}
            summary.setdefault(workload, {})[metric.name] = {
                "median": {k: statistics.median(v) for k, v in per_set.items()},
                "rel_iqr": spreads,
                "a_vs_b": abs(med_b - med_a) / med_a,
                "bound": metric.bound,
                "a_vs_b_within_bound": abs(med_b - med_a) / med_a < metric.bound,
                "bound_at_least_twice_iqr": (
                    metric.bound >= 2 * max(spreads.values())
                ),
            }
    return summary


def cmd_calibrate(args) -> int:
    sets = {}
    for label, seed in CALIBRATION_SETS:
        runs = []
        for i in range(CALIBRATION_RUNS):
            run = {}
            for workload in WORKLOADS:
                result = measure(workload, seed, RUN_SECONDS, False)
                run[workload] = {
                    key: result[key]
                    for key in ("attempted", "failed", "metrics", "digests")
                }
                print(
                    f"set {label} run {i + 1}/{CALIBRATION_RUNS} {workload}: "
                    f"failed {result['failed']}",
                    file=sys.stderr,
                )
            runs.append(run)
        sets[label] = {"seed": seed, "runs": runs}
    summary = calibration_summary(sets)
    failed = {
        label: sum(r[w]["failed"] for r in s["runs"] for w in WORKLOADS)
        for label, s in sets.items()
    }
    Path(args.out).write_text(
        json.dumps(
            {
                "fingerprint": fingerprint(),
                "seconds": RUN_SECONDS,
                "runs_per_set": CALIBRATION_RUNS,
                "failed": failed,
                "summary": summary,
                "sets": sets,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"calibration written to {args.out}", file=sys.stderr)
    return 0


def cmd_worker(args) -> int:
    # setup_s starts here, before anything imports repro.
    t0 = perf_counter()
    import repro

    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parents[1] != src:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 1
    if args.workload == "service_mix":
        from .service import run_service_workload

        result = run_service_workload(
            args.seed, args.seconds, bool(args.trace), t0, args.setup_only
        )
    else:
        from .planning import run_plan_workload

        result = run_plan_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), t0,
            args.setup_only,
        )
    print(json.dumps(dataclasses.asdict(result)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def runner(name, help_text, trace_flag):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=int, default=RUN_SECONDS)
        if trace_flag:
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return p

    p = runner("run", "measure workloads (end-to-end metrics)", True)
    p.add_argument("--out", help="write every metric and digest here")
    p.set_defaults(func=cmd_run)
    p = runner("trace", "measure per-layer metrics (run --trace 1)", False)
    p.add_argument("--out", help="write every metric and digest here")
    p.set_defaults(func=cmd_run, trace=1)
    p = sub.add_parser("compare", help="verdicts between two sets of results")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("calibrate", help="runs that set the bounds")
    p.add_argument("--out", default=str(Path(__file__).with_name("calibration.json")))
    p.set_defaults(func=cmd_calibrate)
    p = sub.add_parser("worker")  # internal: one measured process
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.set_defaults(func=cmd_worker)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
