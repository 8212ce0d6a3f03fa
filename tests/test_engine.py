"""The scenario-parallel execution engine: backends, parity, cache, timings."""

import pytest

from repro import api
from repro.api import PlannerConfig
from repro.core import engine
from repro.core.engine import (
    BACKEND_NAMES,
    ExecutionBackend,
    PlanTimings,
    ProcessBackend,
    SerialBackend,
    WorkStealingBackend,
    get_backend,
    guided_partition,
    map_in_chunks,
    partition,
    resolve_jobs,
)
from repro.core.hose import clear_hose_cache, hose_cache_stats, hose_capacity
from repro.core.topology import plan_topology
from repro.exceptions import InfeasibleRegionError, ReproError
from repro.region.catalog import make_region
from repro.region.fibermap import OperationalConstraints, RegionSpec


def _double_chunk(shared, chunk):
    """Module-level worker (must be picklable for the process backend)."""
    return [shared * item for item in chunk]


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_invalid_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-1)
        with pytest.raises(ReproError):
            resolve_jobs(2.5)


class TestPartition:
    def test_preserves_order_and_content(self):
        items = list(range(17))
        chunks = partition(items, 5)
        assert [x for c in chunks for x in c] == items
        assert len(chunks) == 5
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_more_chunks_than_items(self):
        assert partition([1, 2], 8) == [[1], [2]]

    def test_empty(self):
        assert partition([], 4) == []

    def test_invalid_chunk_count(self):
        with pytest.raises(ReproError):
            partition([1], 0)


class TestGuidedPartition:
    def test_preserves_order_and_content(self):
        items = list(range(100))
        chunks = guided_partition(items, 4)
        assert [x for c in chunks for x in c] == items

    def test_sizes_decrease(self):
        sizes = [len(c) for c in guided_partition(list(range(200)), 4)]
        assert sizes == sorted(sizes, reverse=True)
        # Fine-grained tail: the smallest chunk is min_chunk-sized.
        assert sizes[-1] == 1

    def test_deterministic(self):
        items = list(range(57))
        assert guided_partition(items, 3) == guided_partition(items, 3)

    def test_empty(self):
        assert guided_partition([], 4) == []

    def test_invalid_workers(self):
        with pytest.raises(ReproError):
            guided_partition([1], 0)


class TestBackends:
    def test_get_backend_serial(self):
        assert isinstance(get_backend(1), SerialBackend)
        assert isinstance(get_backend(None), SerialBackend)

    def test_get_backend_parallel_defaults_to_steal(self):
        backend = get_backend(2)
        assert isinstance(backend, WorkStealingBackend)
        assert backend.name == "steal"
        assert backend.jobs == 2
        backend.close()

    def test_get_backend_by_name(self):
        with get_backend(2, "process") as backend:
            assert type(backend) is ProcessBackend
            assert backend.name == "process"
        assert isinstance(get_backend(1, "serial"), SerialBackend)
        # jobs=1 always collapses to serial regardless of the name.
        assert isinstance(get_backend(1, "steal"), SerialBackend)

    def test_get_backend_unknown_name(self):
        with pytest.raises(ReproError):
            get_backend(2, "gpu")

    def test_backends_satisfy_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)
        for name in BACKEND_NAMES:
            backend = get_backend(2, name)
            assert isinstance(backend, ExecutionBackend)
            backend.close()

    def test_serial_map(self):
        with get_backend(1) as backend:
            out = map_in_chunks(backend, _double_chunk, 3, [1, 2, 3, 4])
        assert out == [3, 6, 9, 12]

    def test_process_map_matches_serial(self):
        items = list(range(25))
        with get_backend(2, "process") as backend:
            out = map_in_chunks(backend, _double_chunk, 2, items)
        assert out == [2 * i for i in items]

    def test_steal_map_matches_serial(self):
        items = list(range(25))
        with get_backend(2, "steal") as backend:
            out = map_in_chunks(backend, _double_chunk, 2, items)
        assert out == [2 * i for i in items]

    def test_process_backend_needs_two_workers(self):
        with pytest.raises(ReproError):
            ProcessBackend(1)


class TestSerialNeverSpawnsPool:
    def test_jobs_1_plans_without_pool(self, monkeypatch):
        """The contract the docs promise: ``jobs=1`` must stay in-process."""

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("jobs=1 spawned a process pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", forbidden)
        instance = make_region(map_index=0, n_dcs=4, dc_fibers=4)
        plan = api.plan(instance.spec, config=PlannerConfig(jobs=1))
        assert plan.validate() == []
        assert plan.topology.timings.backend == "serial"


class TestSerialParallelParity:
    """ISSUE acceptance: parallel plans bit-identical to serial ones."""

    @pytest.mark.parametrize("map_index,n_dcs", [(0, 5), (1, 4)])
    @pytest.mark.parametrize("tolerance", [1, 2])
    def test_topology_identical(self, map_index, n_dcs, tolerance):
        instance = make_region(
            map_index=map_index,
            n_dcs=n_dcs,
            dc_fibers=8,
            failure_tolerance=tolerance,
        )
        serial = plan_topology(instance.spec, jobs=1)
        parallel = plan_topology(instance.spec, jobs=2)
        assert dict(serial.edge_capacity) == dict(parallel.edge_capacity)
        assert serial.scenario_paths == parallel.scenario_paths
        assert serial.scenario_count_total == parallel.scenario_count_total
        assert serial.scenarios == parallel.scenarios
        # Dataclass equality ignores the (instrumentation-only) timings.
        assert serial == parallel
        assert parallel.timings.backend == "steal"
        assert parallel.timings.jobs == 2

    def test_full_plan_identical(self):
        instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
        serial = api.plan(instance.spec, config=PlannerConfig(jobs=1))
        parallel = api.plan(instance.spec, config=PlannerConfig(jobs=2))
        assert serial.topology == parallel.topology
        assert dict(serial.residual) == dict(parallel.residual)
        assert serial.cut_throughs == parallel.cut_throughs
        assert serial.effective_paths == parallel.effective_paths
        assert serial.inventory() == parallel.inventory()

    def test_brute_force_parity(self, toy_region):
        serial = plan_topology(toy_region, prune_enumeration=False, jobs=1)
        parallel = plan_topology(toy_region, prune_enumeration=False, jobs=2)
        assert serial == parallel

    def test_plan_to_json_identical_under_work_stealing(self):
        """ISSUE 6 acceptance: jobs=1 vs jobs=4 byte-identical plans
        under the work-stealing backend."""
        from repro.core.planner import _plan_region
        from repro.serialize import plan_to_json

        instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
        serial = _plan_region(instance.spec, jobs=1)
        parallel = _plan_region(instance.spec, jobs=4, backend="steal")
        assert plan_to_json(serial) == plan_to_json(parallel)

    def test_static_process_backend_still_selectable(self, toy_region):
        static = plan_topology(toy_region, jobs=2, backend="process")
        stealing = plan_topology(toy_region, jobs=2, backend="steal")
        assert static == stealing
        assert static.timings.backend == "process"
        assert stealing.timings.backend == "steal"


class TestWorkerErrorPropagation:
    def test_infeasible_region_surfaces_from_pool(self, toy_map):
        # The toy map is a tree: any single cut disconnects a pair, and the
        # failing scenario is evaluated inside a worker process.
        region = RegionSpec(
            fiber_map=toy_map,
            dc_fibers={f"DC{i}": 10 for i in range(1, 5)},
            constraints=OperationalConstraints(failure_tolerance=1),
        )
        with pytest.raises(InfeasibleRegionError) as exc:
            plan_topology(region, jobs=2)
        # The diagnostic attributes survive the pickle round-trip.
        assert exc.value.scenario is not None
        assert exc.value.pair is not None


class TestHoseCache:
    def test_stats_count_hits_and_misses(self):
        clear_hose_cache()
        caps = {"A": 4, "B": 7}
        assert hose_capacity([("A", "B")], caps) == 4
        assert hose_capacity([("A", "B")], caps) == 4
        stats = hose_cache_stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.size == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_clear_resets(self):
        hose_capacity([("A", "B")], {"A": 1, "B": 1})
        clear_hose_cache()
        stats = hose_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert stats.hit_rate == 0.0

    def test_empty_pairs_bypass_cache(self):
        clear_hose_cache()
        assert hose_capacity([], {"A": 1}) == 0
        assert hose_cache_stats().lookups == 0


class TestPlanTimings:
    def test_attached_and_plausible(self, toy_region):
        plan = plan_topology(toy_region)
        t = plan.timings
        assert isinstance(t, PlanTimings)
        assert t.scenarios_evaluated == len(plan.scenario_paths)
        assert t.total_s >= t.enumerate_s + t.capacity_s - 1e-6
        assert t.hose_cache_misses >= 1
        assert 0.0 <= t.hose_cache_hit_rate <= 1.0
        assert t.backend == "serial" and t.jobs == 1

    def test_summary_is_one_line(self, toy_region):
        t = plan_topology(toy_region).timings
        summary = t.summary()
        assert "\n" not in summary
        assert "scenarios" in summary and "backend serial" in summary


class TestCancelToken:
    def test_explicit_cancel_raises_at_checkpoint(self):
        from repro.core.engine import CancelToken
        from repro.exceptions import JobCancelled

        token = CancelToken()
        token.checkpoint()  # not cancelled: no-op
        token.cancel("unit test")
        assert token.cancelled
        with pytest.raises(JobCancelled, match="unit test"):
            token.checkpoint()

    def test_deadline_self_cancels(self):
        from repro.core.engine import CancelToken
        from repro.exceptions import JobCancelled

        token = CancelToken(timeout_s=0.0)
        with pytest.raises(JobCancelled, match="timeout"):
            token.checkpoint()
        assert token.reason == "timeout"

    def test_cancelled_token_stops_serial_planning(self, toy_region):
        from repro.core.engine import CancelToken
        from repro.exceptions import JobCancelled

        token = CancelToken()
        token.cancel()
        with pytest.raises(JobCancelled):
            plan_topology(toy_region, cancel_token=token)

    def test_uncancelled_token_changes_nothing(self, toy_region):
        from repro.core.engine import CancelToken
        from repro.serialize import plan_to_json
        from repro.core.planner import _plan_region

        baseline = plan_to_json(_plan_region(toy_region), full=True)
        tokened = plan_to_json(
            _plan_region(toy_region, cancel_token=CancelToken(timeout_s=600)),
            full=True,
        )
        assert tokened == baseline


class TestPoolInterrupt:
    def test_sigint_terminates_and_joins_workers(self):
        """SIGINT mid-fan-out must not orphan pool workers (subprocess)."""
        import os
        import signal
        import subprocess
        import sys
        import time as time_mod
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.Popen(
            [sys.executable, str(repo / "tests" / "interrupt_helper.py")],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline().strip()
            assert ready.startswith("READY "), ready
            worker_pids = [int(p) for p in ready.split()[1:]]
            assert worker_pids
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 3, (proc.returncode, out)
        assert "INTERRUPTED clean=True" in out
        # The workers were terminated and joined, not orphaned.
        deadline = time_mod.monotonic() + 10.0
        for pid in worker_pids:
            while time_mod.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time_mod.sleep(0.1)
            else:
                raise AssertionError(f"worker {pid} still alive")

    def test_terminate_is_idempotent(self):
        from repro.core.engine import ProcessBackend

        backend = ProcessBackend(jobs=2)
        backend.terminate()  # never started: no-op
        backend.terminate()
