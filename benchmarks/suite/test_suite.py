"""Checks of the benchmark's own rules: ``pytest benchmarks/suite``.

The statistics and request-script tests are pure; the traced-pipeline
tests plan the golden region (about a second) and need ``repro`` on the
import path (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import statistics

import pytest

from .__main__ import RUN_SECONDS
from .metrics import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Metric,
    compare_values,
    percentile,
    rel_iqr,
)
from .workloads import BYPASSES, REPEATS, RESIZES, ROOT, SERVICE_CELLS, client_script


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert percentile(samples, 75) == 30.0
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(samples[:-1], 75)
    assert percentile([float(i) for i in range(67)], 85) == 56.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(66)], 85)


def test_rel_iqr_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert rel_iqr(values) == pytest.approx((q3 - q1) / 14.5)
    assert rel_iqr([5.0] * 10) == 0.0


LOWER = Metric("x_s", "s", bound=0.05)
HIGHER = Metric("x_per_s", "1/s", better="higher", bound=0.05)
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_improved_needs_nine_wins_and_a_gap_beyond_the_iqr():
    faster = [v * 0.9 for v in PARENT]
    result = compare_values(PARENT, faster, LOWER)
    assert (result.wins, result.pairs, result.verdict) == (10, 10, "improved")
    # Eight wins in ten pairs is not enough, however large the gap.
    mixed = faster[:8] + [2.0, 2.0]
    assert compare_values(PARENT, mixed, LOWER).verdict == "unchanged"
    # Ten wins by less than the parent's IQR are not a gain either.
    barely = [v - 0.001 for v in PARENT]
    assert compare_values(PARENT, barely, LOWER).verdict == "unchanged"


def test_verdict_regressed_beyond_the_bound_in_either_direction():
    slower = [v * 1.10 for v in PARENT]
    assert compare_values(PARENT, slower, LOWER).verdict == "regressed"
    assert compare_values(PARENT, slower, HIGHER).verdict == "improved"
    assert compare_values(slower, PARENT, HIGHER).verdict == "regressed"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [0.8, 1.2, 0.85, 1.15, 0.9, 1.1, 0.95, 1.05, 1.0, 1.0]
    result = compare_values(noisy, [v * 1.02 for v in noisy], LOWER)
    assert result.verdict == "unresolved"
    # Unless every change run beats every parent run.
    assert compare_values(noisy, [0.7] * 10, LOWER).verdict == "improved"


def test_request_scripts_are_deterministic_per_seed():
    for client in range(len(SERVICE_CELLS)):
        assert client_script(3, client) == client_script(3, client)
        assert client_script(3, client) != client_script(4, client)
    assert client_script(3, 0).requests != client_script(3, 1).requests


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_no_request_precedes_the_first_touch_it_depends_on(seed):
    for client, cells in enumerate(SERVICE_CELLS):
        script = client_script(seed, client)
        received: set[tuple[int, int]] = set()
        tally = {"cold": 0, "patched": 0, "store": 0}
        for request in script.requests:
            key = (request.region, request.target)
            tally[request.expect] += 1
            if request.expect == "store":
                assert key in received
            else:
                assert key not in received
                # A delta is patched from its base plan: base first.
                assert (request.target == 0) == (request.expect == "cold")
                assert request.target == 0 or (request.region, 0) in received
            received.add(key)
        n = len(cells)
        assert tally == {
            "cold": n,
            "patched": n * (RESIZES + BYPASSES),
            "store": n * REPEATS,
        }
        for edits, (_, n_dcs) in zip(script.edits, cells):
            dcs = [dc for dc, _ in edits.resizes]
            assert len(set(dcs)) == RESIZES and max(dcs) < n_dcs


def test_every_round_has_the_same_mix_whatever_the_seed():
    def kind(request):
        if request.expect != "patched":
            return request.expect
        return "resize" if request.target <= RESIZES else "bypass"

    def rounds(seed, client):
        requests = client_script(seed, client).requests
        width = len(SERVICE_CELLS[client])
        return [
            sorted((r.region, kind(r)) for r in requests[start:start + width])
            for start in range(0, len(requests), width)
        ]

    for client in range(len(SERVICE_CELLS)):
        assert rounds(0, client) == rounds(5, client)


def test_benchmark_json_declares_the_common_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
        if m.common
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
        if m.common
    ]


@pytest.fixture(scope="module")
def golden():
    from repro.api import plan
    from repro.core.hose import clear_hose_cache

    from .planning import traced_plan
    from .workloads import PLAN_CELLS, make_regions

    (region,) = make_regions(PLAN_CELLS["golden5"])
    clear_hose_cache()
    reference = plan(region)
    clear_hose_cache()
    return reference, traced_plan(region)


def test_spans_partition_the_traced_wall_time(golden):
    _, traced = golden
    unaccounted = traced.spans["plan.unaccounted_s"]
    assert 0 <= unaccounted < 0.02 * traced.wall_s
    assert sum(traced.spans.values()) == pytest.approx(traced.wall_s)


def test_traced_pipeline_equals_api_plan_on_the_golden_region(golden):
    reference, traced = golden
    assert traced.plan == reference
    assert traced.counts["enumerate.scenarios"] == len(
        reference.topology.scenario_paths
    )
