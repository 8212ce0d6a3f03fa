"""repro.store: canonical encoding, CAS robustness, and sweep resume.

The acceptance bar for the store is behavioral, not structural:

* a cached plan loaded back is **bit-identical** (``plan_to_json``
  equality) to a freshly planned one, including under ``jobs > 1``;
* corruption of any shape degrades to a miss-and-replan, never a crash
  or a wrong hit;
* concurrent writers putting the same key converge on identical bytes;
* a sweep killed mid-campaign and resumed against the same store replans
  only the incomplete cells and produces byte-identical records.
"""

import json
import multiprocessing
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis.designspace import SweepPoint, run_sweep
from repro.api import PlannerConfig, plan, sweep
from repro.core.planner import plan_region
from repro.designs import get_design
from repro.exceptions import ReproError
from repro.serialize import plan_to_json
from repro.store import (
    PlanStore,
    STORE_SCHEMA_VERSION,
    artifact_key,
    canonical_json,
    digest,
    plan_key,
    sha256_hex,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestCanonical:
    def test_key_order_and_whitespace_invariant(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == (
            canonical_json({"a": [1.5, "x"], "b": 1})
        )
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1 / 3, 2.0**-45, 1e300]
        assert json.loads(canonical_json(values)) == values

    def test_non_json_values_rejected(self):
        with pytest.raises(ReproError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ReproError):
            canonical_json({"x": object()})

    def test_digest_is_sha256_of_canonical_text(self):
        value = {"k": [1, 2, 3]}
        assert digest(value) == sha256_hex(canonical_json(value))
        assert len(digest(value)) == 64


class TestKeys:
    def test_key_is_input_addressed(self, toy_region):
        base = plan_key(design="iris", region=toy_region)
        assert base == plan_key(design="iris", region=toy_region)
        assert base != plan_key(design="eps", region=toy_region)
        assert base != plan_key(
            design="iris", region=toy_region, config={"validate": False}
        )

    def test_artifact_key_covers_versions(self):
        key = artifact_key("sweep-cell", {"map_index": 0})
        assert key != artifact_key("sweep-cell", {"map_index": 1})
        assert key != artifact_key("plan", {"map_index": 0})


class TestPlanStoreCas:
    def test_get_on_empty_store_is_a_miss(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert store.misses == 1

    def test_put_get_round_trip(self, tmp_path):
        store = PlanStore(tmp_path)
        payload = {"answer": 42, "nested": {"xs": [1, 2]}}
        key = "ab" * 32
        assert store.put(key, payload, kind="test") == key
        assert store.get(key) == payload
        assert (store.hits, store.puts) == (1, 1)

    def test_malformed_key_rejected(self, tmp_path):
        store = PlanStore(tmp_path)
        with pytest.raises(ReproError):
            store.get("not-a-key")
        with pytest.raises(ReproError):
            store.put("AB" * 32, {})  # uppercase hex is not canonical

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda text: text[: len(text) // 2],  # truncation (torn write)
            lambda text: text.replace("42", "43"),  # payload bit rot
            lambda text: "not json at all",
            lambda text: '{"key": "wrong"}',
        ],
    )
    def test_corrupted_blob_degrades_to_miss(self, tmp_path, corruption):
        store = PlanStore(tmp_path)
        key = "cd" * 32
        store.put(key, {"value": 42})
        path = store.blob_path(key)
        path.write_text(corruption(path.read_text()))
        assert store.get(key) is None
        assert store.corrupt == 1 and store.misses == 1

    def test_blob_bytes_are_the_canonical_envelope(self, tmp_path):
        """``put`` wraps the payload text it hashed in the envelope; the
        bytes are the canonical JSON of the whole envelope."""
        store = PlanStore(tmp_path)
        key = "ef" * 32
        payload = {"z": [1, 2.5, "é"], "a": {"nested": None}}
        store.put(key, payload, kind="plan")
        envelope = {
            "content_sha256": sha256_hex(canonical_json(payload)),
            "key": key,
            "kind": "plan",
            "payload": payload,
        }
        assert store.blob_path(key).read_text() == canonical_json(envelope)

    def test_gc_removes_stale_tmp_files_only(self, tmp_path):
        store = PlanStore(tmp_path)
        live = "11" * 32
        store.put(live, {"keep": True})
        # A blob no put() of this instance wrote is still a live entry.
        other = "22" * 32
        PlanStore(tmp_path).put(other, {"keep": "too"})
        tmp_file = store.blob_path(other).with_name("x.123.tmp")
        tmp_file.write_text("partial")

        result = store.gc()
        assert result.removed_tmp == 1
        assert result.reclaimed_bytes == len("partial")
        assert not tmp_file.exists()
        assert store.get(live) == {"keep": True}
        assert store.get(other) == {"keep": "too"}
        assert store.evictions == 1
        assert store.gc().removed_tmp == 0

    def test_verify_reports_and_repairs(self, tmp_path):
        store = PlanStore(tmp_path)
        good, bad = "44" * 32, "55" * 32
        store.put(good, {"ok": 1})
        store.put(bad, {"ok": 2})
        store.blob_path(bad).write_text("garbage")
        problems = store.verify()
        assert len(problems) == 1 and bad in problems[0]
        assert store.verify(repair=True)
        assert store.verify() == []
        assert store.get(good) == {"ok": 1}
        assert not store.blob_path(bad).exists()

    def test_stats_inventory(self, tmp_path):
        store = PlanStore(tmp_path)
        store.put("66" * 32, {"a": 1}, kind="plan")
        store.put("77" * 32, {"b": 2}, kind="plan")
        store.put("88" * 32, {"c": 3}, kind="topology")
        store.blob_path("99" * 32).parent.mkdir(parents=True, exist_ok=True)
        store.blob_path("99" * 32).write_text("garbage")  # kind unreadable
        stats = store.stats()
        assert stats.blobs == 4
        assert stats.kinds == {"plan": 2, "topology": 1}
        assert stats.total_bytes == sum(
            path.stat().st_size for path in tmp_path.glob("objects/*/*.json")
        )
        payload = stats.to_dict()
        assert payload["session"]["puts"] == 3


def _concurrent_put(args):
    root, key, payload = args
    store = PlanStore(root)
    store.put(key, payload, kind="race")
    return store.blob_path(key).read_text()


class TestConcurrentWriters:
    def test_same_key_writers_converge_on_identical_bytes(self, tmp_path):
        key = "99" * 32
        payload = {"value": list(range(50))}
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            texts = pool.map(
                _concurrent_put, [(str(tmp_path), key, payload)] * 4
            )
        assert len(set(texts)) == 1
        store = PlanStore(tmp_path)
        assert store.get(key) == payload
        assert store.verify() == []

    @staticmethod
    def _put_from_threads(store, key_groups):
        """One thread per key group puts ``{"key": key}`` for each key,
        switching threads often so races show."""
        errors: list[BaseException] = []

        def put_all(keys):
            for key in keys:
                try:
                    store.put(key, {"key": key}, kind="race")
                except Exception as exc:  # collected, asserted below
                    errors.append(exc)

        threads = [
            threading.Thread(target=put_all, args=(keys,))
            for keys in key_groups
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_threads_putting_distinct_keys_never_collide(self, tmp_path):
        """Threads of one process share a PID, so the tmp file name must
        also separate threads (the planner service's workers are threads).
        """
        store = PlanStore(tmp_path)
        keys = [f"{n:064x}" for n in range(400)]
        self._put_from_threads(store, [keys[part::4] for part in range(4)])
        assert all(store.get(key) == {"key": key} for key in keys)

    def test_two_threads_putting_40_blobs_each_keep_all_80(self, tmp_path):
        """Writers share no file but their own blob, so none of them can
        lose another's entry, and ``gc`` keeps every blob."""
        store = PlanStore(tmp_path)
        keys = [[f"{t:02x}{n:062x}" for n in range(40)] for t in range(2)]
        self._put_from_threads(store, keys)
        store.gc()
        assert store.stats().blobs == 80
        assert store.stats().kinds == {"race": 80}
        assert all(
            store.get(key) == {"key": key} for group in keys for key in group
        )


class TestPlanRegionWithStore:
    def test_cached_plan_is_bit_identical(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        fresh = plan_region(toy_region)
        cold = plan(toy_region, config=PlannerConfig(store=store))
        warm = plan(toy_region, config=PlannerConfig(store=store))
        assert (store.puts, store.hits) == (1, 1)
        assert plan_to_json(warm) == plan_to_json(fresh)
        assert plan_to_json(warm, full=True) == plan_to_json(cold, full=True)

    def test_cached_plan_matches_parallel_planner(self, tmp_path):
        """The cache key excludes jobs: a serial put serves a jobs>1 call."""
        from repro.region.catalog import make_region

        region = make_region(map_index=0, n_dcs=4, dc_fibers=4).spec
        store = PlanStore(tmp_path)
        cold = plan(region, config=PlannerConfig(store=store, jobs=1))
        warm = plan(region, config=PlannerConfig(store=store, jobs=2))
        assert store.hits == 1
        assert plan_to_json(warm, full=True) == plan_to_json(cold, full=True)
        parallel = plan(region, config=PlannerConfig(jobs=2))
        assert plan_to_json(warm) == plan_to_json(parallel)

    def test_corrupted_blob_triggers_replan_and_heals(
        self, toy_region, tmp_path
    ):
        store = PlanStore(tmp_path)
        plan(toy_region, config=PlannerConfig(store=store))
        key = plan_key(
            design="iris",
            region=toy_region,
            config={"prune_enumeration": True, "validate": True},
        )
        blob = store.blob_path(key)
        blob.write_text(blob.read_text()[:100])  # torn write
        replanned = plan(toy_region, config=PlannerConfig(store=store))
        assert store.corrupt == 1 and store.puts == 2
        assert plan_to_json(replanned) == plan_to_json(plan_region(toy_region))
        # The replan healed the entry: next call is a clean hit.
        plan(toy_region, config=PlannerConfig(store=store))
        assert store.hits == 1

    def test_loaded_plan_validates_clean(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        plan(toy_region, config=PlannerConfig(store=store))
        loaded = plan(toy_region, config=PlannerConfig(store=store))
        assert loaded.validate() == []
        assert loaded.inventory() == plan_region(toy_region).inventory()


class TestDesignsWithStore:
    def test_iris_design_uses_the_store(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        cold = get_design("iris", store=store).plan(toy_region)
        warm = get_design("iris", store=store).plan(toy_region)
        assert store.hits == 1
        assert warm == cold == get_design("iris").plan(toy_region)

    def test_eps_design_caches_the_topology(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        cold = get_design("eps", store=store).plan(toy_region)
        warm = get_design("eps", store=store).plan(toy_region)
        assert store.hits == 1
        assert store.stats().kinds == {"topology": 1}
        assert warm == cold == get_design("eps").plan(toy_region)

    def test_hybrid_shares_the_iris_plan_entry(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        get_design("iris", store=store).plan(toy_region)
        hybrid = get_design("hybrid", store=store).plan(toy_region)
        assert store.hits == 1  # hybrid loaded the cached Iris plan
        assert hybrid == get_design("hybrid").plan(toy_region)


SWEEP_POINTS = [
    SweepPoint(map_index=0, n_dcs=4, dc_fibers=4, wavelengths=40),
    SweepPoint(map_index=0, n_dcs=4, dc_fibers=4, wavelengths=64),
    SweepPoint(map_index=1, n_dcs=4, dc_fibers=4, wavelengths=40),
]


class TestSweepResume:
    def test_warm_sweep_is_record_identical(self, tmp_path):
        store = PlanStore(tmp_path)
        cold = sweep(SWEEP_POINTS, config=PlannerConfig(store=store))
        assert store.puts == 2  # two distinct (map, n, f) cells
        warm = sweep(SWEEP_POINTS, config=PlannerConfig(store=store))
        assert store.hits == 2
        assert warm == cold == run_sweep(SWEEP_POINTS)

    def test_warm_sweep_matches_parallel_cold_sweep(self, tmp_path):
        store = PlanStore(tmp_path)
        cold = sweep(SWEEP_POINTS, config=PlannerConfig(jobs=2, store=store))
        warm = sweep(SWEEP_POINTS, config=PlannerConfig(jobs=2, store=store))
        assert store.hits == 2
        assert warm == cold

    def test_killed_sweep_resumes_with_only_incomplete_cells(self, tmp_path):
        """Kill the process after the first cell checkpoint, then resume."""
        script = textwrap.dedent(
            """
            import os
            from repro.analysis.designspace import SweepPoint
            from repro.api import PlannerConfig, sweep
            from repro.store import PlanStore

            class DyingStore(PlanStore):
                def put(self, key, payload, kind="artifact"):
                    super().put(key, payload, kind=kind)
                    os._exit(17)  # simulate a mid-campaign crash

            points = [
                SweepPoint(0, 4, 4, 40),
                SweepPoint(0, 4, 4, 64),
                SweepPoint(1, 4, 4, 40),
            ]
            store = DyingStore(os.environ["STORE_DIR"])
            sweep(points, config=PlannerConfig(store=store))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "STORE_DIR": str(tmp_path),
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 17, proc.stderr

        store = PlanStore(tmp_path)
        assert store.stats().blobs == 1  # exactly one cell survived
        resumed = sweep(SWEEP_POINTS, config=PlannerConfig(store=store))
        # Resume replanned only the incomplete cell.
        assert store.hits == 1 and store.puts == 1
        assert resumed == run_sweep(SWEEP_POINTS)

    def test_stale_cell_payload_replans(self, tmp_path):
        from repro.analysis.designspace import _cell_key

        store = PlanStore(tmp_path)
        baseline = sweep(SWEEP_POINTS[:1], config=PlannerConfig(store=store))
        key = _cell_key(SWEEP_POINTS[0], failure_tolerance=2)
        store.put(key, {"instance": "bogus"}, kind="sweep-cell")
        records = sweep(SWEEP_POINTS[:1], config=PlannerConfig(store=store))
        assert records == baseline
        assert store.stats().blobs == 1


class TestObsIntegration:
    def test_store_traffic_flows_through_obs_spans(self, tmp_path):
        from repro import obs

        store = PlanStore(tmp_path)
        with obs.tracing("store-audit") as tracer:
            store.put("aa" * 32, {"v": 1}, kind="plan")
            store.get("aa" * 32)
            store.get("bb" * 32)
            store.gc()
        rows = {row.name: row for row in obs.aggregate(tracer.record())}
        assert rows["store.put"].counters["store.puts"] == 1
        assert rows["store.put"].counters["store.bytes_written"] > 0
        assert rows["store.get"].counters["store.hits"] == 1
        assert rows["store.get"].counters["store.misses"] == 1
        assert rows["store.get"].counters["store.bytes_read"] > 0
        assert "store.gc" in rows


class TestStoreSchemaVersioning:
    def test_schema_version_participates_in_keys(self, toy_region, monkeypatch):
        import repro.store.keys as keys_mod

        before = plan_key(design="iris", region=toy_region)
        monkeypatch.setattr(keys_mod, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert plan_key(design="iris", region=toy_region) != before
