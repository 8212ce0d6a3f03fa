"""The multi-TM robust design: determinism, envelope bounds, caching."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import _plan_region
from repro.designs import available_designs, get_design
from repro.designs.robust import (
    EnsembleSizing,
    RobustDesign,
    TrafficEnsembleSpec,
    ensemble_digest,
    pair_demand_fibers,
    plan_robust,
)
from repro.exceptions import SimulationError
from repro.serialize import plan_to_json
from repro.simulation.traffic import heavy_tailed_matrix, sample_ensemble

DCS = [f"DC{i}" for i in range(1, 6)]


class TestEnsembleSpec:
    def test_registered(self):
        assert "robust" in available_designs()
        design = get_design("robust")
        assert isinstance(design, RobustDesign)
        assert design.traffic.count == 5

    def test_build_is_deterministic(self):
        spec = TrafficEnsembleSpec(count=5, seed=42)
        a = spec.build(DCS)
        b = spec.build(DCS)
        assert len(a) == 5
        assert [tm.weights for tm in a] == [tm.weights for tm in b]

    def test_seed_changes_ensemble(self):
        a = TrafficEnsembleSpec(seed=1).build(DCS)
        b = TrafficEnsembleSpec(seed=2).build(DCS)
        assert ensemble_digest(a) != ensemble_digest(b)

    def test_digest_sensitive_to_every_member(self):
        ens = TrafficEnsembleSpec(count=3, seed=7).build(DCS)
        assert ensemble_digest(ens) != ensemble_digest(ens[:-1])
        assert ensemble_digest(ens) != ensemble_digest(list(reversed(ens)))

    def test_validation(self):
        with pytest.raises(SimulationError):
            TrafficEnsembleSpec(count=0)
        with pytest.raises(SimulationError):
            TrafficEnsembleSpec(skew=0)
        with pytest.raises(SimulationError):
            TrafficEnsembleSpec(max_change=-0.5)

    def test_sample_ensemble_is_a_perturbation_chain(self):
        ens = sample_ensemble(DCS, random.Random(3), count=4, max_change=0.2)
        assert len(ens) == 4
        # Bounded chain: consecutive members stay close, all normalized.
        for prev, cur in zip(ens, ens[1:]):
            assert set(prev.weights) == set(cur.weights)
            assert sum(cur.weights.values()) == pytest.approx(1.0)


class TestPairDemands:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_demands_respect_the_hose(self, seed):
        # The scaled TM runs as hot as the hose allows: no DC's incident
        # demand exceeds its fiber count, and at least one DC saturates.
        tm = heavy_tailed_matrix(DCS, random.Random(seed))
        fibers = {dc: 8 for dc in DCS}
        demands = pair_demand_fibers(tm, fibers)
        incident = {
            dc: sum(d for pair, d in demands.items() if dc in pair)
            for dc in DCS
        }
        assert all(load <= 8 + 1e-9 for load in incident.values())
        assert max(incident.values()) == pytest.approx(8.0)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_relabel_equivariance(self, seed):
        # Renaming DCs renames the demand table, nothing more — the
        # ensemble-invariance contract of robust planning.
        tm = heavy_tailed_matrix(DCS, random.Random(seed))
        fibers = {dc: 8 for dc in DCS}
        mapping = {dc: f"X{dc}" for dc in DCS}
        relabeled = pair_demand_fibers(
            tm.relabel(mapping), {f"X{dc}": 8 for dc in DCS}
        )
        direct = pair_demand_fibers(tm, fibers)
        assert relabeled == {
            tuple(sorted((mapping[a], mapping[b]))): d
            for (a, b), d in direct.items()
        }

    def test_unknown_dcs_rejected(self):
        tm = heavy_tailed_matrix(["A", "B"], random.Random(1))
        with pytest.raises(SimulationError):
            pair_demand_fibers(tm, {"C": 4, "D": 4})


class TestRobustPlanning:
    @pytest.fixture(scope="class")
    def plans(self, small_region_instance):
        region = small_region_instance.spec
        return (
            _plan_region(region),
            plan_robust(region),
            region,
        )

    def test_plans_against_five_tm_ensemble(self, plans):
        # Acceptance: the default spec samples >= 5 matrices.
        _, robust, region = plans
        assert TrafficEnsembleSpec().count >= 5
        assert robust.topology.edge_capacity

    def test_same_duct_set_as_iris(self, plans):
        iris, robust, _ = plans
        assert sorted(robust.topology.edge_capacity) == sorted(
            iris.topology.edge_capacity
        )

    def test_never_exceeds_the_hose_envelope(self, plans):
        # Each sampled TM is hose-feasible, so the robust need of every
        # duct is bounded by the iris (hose max-flow) capacity.
        iris, robust, _ = plans
        for duct, need in robust.topology.edge_capacity.items():
            assert 1 <= need <= iris.topology.edge_capacity[duct]

    def test_cheaper_than_iris(self, plans):
        from repro.cost.estimator import estimate_cost

        iris, robust, _ = plans
        assert (
            robust.topology.total_fiber_pairs()
            <= iris.topology.total_fiber_pairs()
        )
        assert (
            estimate_cost(robust.inventory()).total
            <= estimate_cost(iris.inventory()).total
        )

    def test_validates_clean(self, plans):
        _, robust, _ = plans
        assert robust.validate() == []

    def test_deterministic_replan(self, plans):
        _, robust, region = plans
        assert plan_to_json(plan_robust(region)) == plan_to_json(robust)

    def test_jobs_parity(self, plans):
        # Acceptance: jobs=1 and jobs=4 plans are byte-identical.
        _, robust, region = plans
        parallel = plan_robust(region, jobs=4)
        assert plan_to_json(parallel) == plan_to_json(robust)

    def test_explicit_ensemble_changes_plan_key_not_shape(self, plans):
        _, robust, region = plans
        other = plan_robust(
            region, traffic=TrafficEnsembleSpec(count=6, seed=1)
        )
        assert sorted(other.topology.edge_capacity) == sorted(
            robust.topology.edge_capacity
        )

    def test_empty_ensemble_rejected(self, plans):
        *_, region = plans
        with pytest.raises(SimulationError):
            plan_robust(region, ensemble=[])

    def test_robust_counters_recorded(self, small_region_instance):
        from repro import obs
        from repro.core.topology import plan_topology

        region = small_region_instance.spec
        ensemble = TrafficEnsembleSpec(count=3).build(region.dcs)
        sizing = EnsembleSizing.for_ensemble(ensemble, region.dc_fibers)
        totals = {}
        for jobs in (1, 2):
            with obs.tracing("test") as tracer:
                plan_topology(region, jobs=jobs, sizing=sizing)
            totals[jobs] = tracer.record().counter_totals()
        assert totals[1]["robust.tms"] == 3
        assert totals[1]["robust.duct_evals"] > 0
        assert totals[1]["scenarios.evaluated"] > 0
        # The sizing's work does not depend on how the chunks were spread.
        for name in ("robust.tms", "robust.duct_evals", "robust.clamped",
                     "scenarios.evaluated"):
            assert totals[2][name] == totals[1][name], name


class TestGoldenRegion:
    """The robust design on the golden region (map 0, 5 DCs, 8 fibers).

    Pins its plan bytes, work counters and store key, so a change to
    Algorithm 1's sizing seam, to the ensemble rule or to the store key
    shows up here as a diff rather than as silent drift.
    """

    @pytest.fixture(scope="class")
    def golden(self, small_region_instance, tmp_path_factory):
        from repro import obs
        from repro.store import PlanStore

        store = PlanStore(tmp_path_factory.mktemp("golden-robust"))
        with obs.tracing("golden-robust") as tracer:
            plan = plan_robust(small_region_instance.spec, store=store)
        return plan, tracer.record(), store

    def test_provisioning_and_cost(self, golden, small_plan):
        from repro.cost.estimator import estimate_cost

        robust, *_ = golden
        assert robust.topology.total_fiber_pairs() == 264
        assert small_plan.topology.total_fiber_pairs() == 528
        robust_cost = estimate_cost(robust.inventory()).total
        iris_cost = estimate_cost(small_plan.inventory()).total
        assert robust_cost == pytest.approx(4_335_200)
        assert iris_cost == pytest.approx(5_444_000)
        assert robust_cost / iris_cost == pytest.approx(0.796, abs=5e-4)

    def test_counters(self, golden):
        _, record, _ = golden
        assert record.counter_totals("robust.") == {
            "robust.tms": 5,
            "robust.duct_evals": 4433,
            "robust.clamped": 0,
        }

    def test_store_key(self, golden):
        _, _, store = golden
        # Re-pinned for store schema 3 (the envelope head names its
        # schema); the plan bytes and the key's other inputs are unchanged.
        key = "07c88cd15a4f8ee68122f936a99fd74379d860321957d1419372c258cf1c3db2"
        assert (store.misses, store.puts) == (1, 1)
        assert store.get(key) is not None

    def test_plan_bytes(self, golden, small_plan):
        import hashlib

        def sha(plan):
            text = plan_to_json(plan, full=True)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        robust, *_ = golden
        assert sha(robust).startswith("fa7fcd66abebb42e")
        assert sha(small_plan).startswith("9d977abd752bce01")


class TestStoreCaching:
    def test_cache_hit_on_replan(self, small_region_instance, tmp_path):
        from repro.store import PlanStore

        region = small_region_instance.spec
        store = PlanStore(tmp_path)
        fresh = plan_robust(region, store=store)
        assert (store.hits, store.misses, store.puts) == (0, 1, 1)
        cached = plan_robust(region, store=store)
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert plan_to_json(cached) == plan_to_json(fresh)

    def test_different_ensemble_misses(self, small_region_instance, tmp_path):
        from repro.store import PlanStore

        region = small_region_instance.spec
        store = PlanStore(tmp_path)
        plan_robust(region, store=store)
        plan_robust(
            region, traffic=TrafficEnsembleSpec(seed=999), store=store
        )
        assert store.misses == 2
        assert store.puts == 2


class TestApiIntegration:
    def test_api_plan_returns_full_plan(self, small_region_instance):
        from repro.api import PlannerConfig, plan
        from repro.core.plan import IrisPlan

        region = small_region_instance.spec
        result = plan(
            region,
            design="robust",
            config=PlannerConfig(traffic=TrafficEnsembleSpec(count=3)),
        )
        assert isinstance(result, IrisPlan)
        assert result.topology.edge_capacity

    def test_registry_plan_returns_inventory(self, small_region_instance):
        region = small_region_instance.spec
        inventory = get_design(
            "robust", traffic=TrafficEnsembleSpec(count=3)
        ).plan(region)
        assert inventory.fiber_pair_spans > 0
