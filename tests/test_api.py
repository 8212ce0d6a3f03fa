"""The repro.api facade: PlannerConfig, plan/sweep/simulate."""

import warnings

import pytest

from repro.api import PlannerConfig, plan, simulate, sweep
from repro.core.plan import IrisPlan
from repro.cost.estimator import Inventory
from repro.region.catalog import make_region
from repro.serialize import plan_to_json


@pytest.fixture(scope="module")
def small_region():
    return make_region(map_index=0, n_dcs=4, dc_fibers=4).spec


class TestPlannerConfig:
    def test_keyword_only_and_frozen(self):
        with pytest.raises(TypeError):
            PlannerConfig(4)  # positional jobs rejected
        config = PlannerConfig(jobs=4)
        with pytest.raises(Exception):  # dataclasses.FrozenInstanceError
            config.jobs = 2

    def test_defaults_match_planner_defaults(self):
        import dataclasses

        config = PlannerConfig()
        assert config.jobs == 1
        assert config.store is None
        assert config.prune_enumeration is True
        assert config.validate is True
        assert config.traffic is None
        assert [f.name for f in dataclasses.fields(PlannerConfig)] == [
            "jobs", "store", "prune_enumeration", "validate", "traffic",
        ]


class TestPlan:
    def test_default_design_returns_iris_plan(self, small_region):
        result = plan(small_region)
        assert isinstance(result, IrisPlan)
        assert result.validate() == []

    def test_matches_legacy_entry_point_bytes(self, small_region):
        from repro.core.planner import plan_region

        via_api = plan(small_region, config=PlannerConfig(jobs=1))
        assert plan_to_json(via_api) == plan_to_json(plan_region(small_region))

    def test_other_designs_return_inventory(self, small_region):
        inventory = plan(small_region, design="eps")
        assert isinstance(inventory, Inventory)
        hubby = plan(small_region, design="centralized")
        assert isinstance(hubby, Inventory)

    def test_unknown_design_rejected(self, small_region):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            plan(small_region, design="quantum")


class TestSweep:
    def test_matches_legacy_run_sweep(self):
        from repro.analysis.designspace import SweepPoint, run_sweep

        points = [SweepPoint(map_index=0, n_dcs=5, dc_fibers=8, wavelengths=40)]
        via_api = sweep(points, config=PlannerConfig(jobs=1))
        assert via_api == run_sweep(points)
        assert via_api[0].eps_over_iris > 1.0


class TestSimulate:
    def test_default_scenario_runs(self):
        from repro.simulation.scenarios import ScenarioConfig

        result = simulate(ScenarioConfig(duration_s=5.0, n_dcs=4))
        assert result.summary.iris_flows > 0


class TestDeprecationShims:
    def test_plan_region_bare_call_is_silent(self, small_region):
        from repro.core.planner import plan_region

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            plan_region(small_region)


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_exported_at_top_level(self):
        import repro

        assert repro.plan is plan
        assert repro.sweep is sweep
        assert repro.simulate is simulate
        assert repro.PlannerConfig is PlannerConfig
        assert repro.__version__ == "1.16.0"
