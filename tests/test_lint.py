"""reprolint: rule fixtures, suppression handling, CLI exit codes.

Each rule gets positive fixtures (violating code that must be flagged) and
negative fixtures (compliant code that must stay clean), run with the rule
isolated so a finding can only come from the rule under test. Since the v2
flow-sensitive engine, most rule classes also carry *aliased* fixtures —
the violation bound to a name first, reaching the sink through the symbol
table — and matching ``sorted()`` re-tagging negatives. The final test
lints the shipped ``src/`` tree and requires it clean — the same gate CI
runs via ``iris lint src/``.
"""

import json

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.lint import (
    Finding,
    LintUsageError,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def only(rule_id: str, source: str, path: str = "pkg/mod.py") -> list[Finding]:
    """Lint ``source`` with a single rule active."""
    return lint_source(source, path=path, rules=[get_rule(rule_id)])


class TestRegistry:
    def test_fourteen_domain_rules_registered(self):
        ids = [r.rule_id for r in all_rules()]
        assert ids == sorted(ids)
        expected = {f"R00{i}" for i in range(1, 10)} | {
            "R010",
            "R011",
            "R012",
            "R013",
            "R014",
        }
        assert expected <= set(ids)

    def test_every_rule_documents_its_invariant(self):
        for rule in all_rules():
            assert rule.title
            assert len(rule.invariant) > 20
            assert rule.node_types


class TestR001GlobalRng:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrandom.seed(7)\n",
            "import random\nx = random.randint(0, 5)\n",
            "import random\nrandom.shuffle(items)\n",
            "from random import shuffle\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import numpy\nnumpy.random.rand(3)\n",
            "from numpy.random import choice\n",
        ],
    )
    def test_flags_global_rng(self, source):
        findings = only("R001", source)
        assert [f.rule_id for f in findings] == ["R001"]

    @pytest.mark.parametrize(
        "source",
        [
            "import random\nrng = random.Random(7)\nrng.shuffle(items)\n",
            "from random import Random\nrng = Random(7)\n",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "from numpy.random import default_rng\n",
            "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
            "value = config.random.choice\n",
        ],
    )
    def test_allows_seeded_instances(self, source):
        assert only("R001", source) == []


class TestR002WallClock:
    @pytest.mark.parametrize(
        "source",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.time_ns()\n",
            "from time import time\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "from datetime import date\ntoday = date.today()\n",
        ],
    )
    def test_flags_wall_clock(self, source):
        findings = only("R002", source)
        assert [f.rule_id for f in findings] == ["R002"]

    @pytest.mark.parametrize(
        "source",
        [
            "import time\nt = time.monotonic()\n",
            "import time\nt = time.perf_counter()\n",
            "from time import monotonic, sleep\n",
            "stamp = record.now\n",  # attribute on a non-datetime root
        ],
    )
    def test_allows_monotonic(self, source):
        assert only("R002", source) == []

    def test_obs_owns_the_wall_clock(self):
        source = "import time\nt = time.time()\n"
        assert only("R002", source, path="src/repro/obs/tracer.py") == []
        assert only("R002", source, path="src/repro/core/engine.py") != []


class TestR003FloatEquality:
    @pytest.mark.parametrize(
        "source",
        [
            "ok = span_km == limit\n",
            "ok = total_gbps != demand\n",
            "ok = x == 0.5\n",
            "ok = link.length_km == other\n",
            "ok = a + offset_km == b\n",
        ],
    )
    def test_flags_float_equality(self, source):
        findings = only("R003", source)
        assert [f.rule_id for f in findings] == ["R003"]

    @pytest.mark.parametrize(
        "source",
        [
            "ok = span_km <= limit_km\n",
            "ok = math.isclose(span_km, limit_km)\n",
            "ok = n_fibers == 8\n",
            "ok = count == 0\n",
            "ok = name == 'DC1'\n",
        ],
    )
    def test_allows_tolerant_or_integer_compares(self, source):
        assert only("R003", source) == []

    def test_flow_catches_aliased_quantity(self):
        # v1 saw plain names 'x' and 'limit'; v2 knows x carries km.
        source = "x = span_km\nok = x == limit\n"
        findings = only("R003", source)
        assert [f.rule_id for f in findings] == ["R003"]
        assert "_km" in findings[0].message

    def test_alias_of_untagged_value_stays_clean(self):
        assert only("R003", "x = count\nok = x == limit\n") == []


class TestR004UnorderedIteration:
    @pytest.mark.parametrize(
        "source",
        [
            "for x in set(items):\n    use(x)\n",
            "for x in set(a) | set(b):\n    use(x)\n",
            "for x in {1, 2, 3}:\n    use(x)\n",
            "out = [f(x) for x in set(items)]\n",
            "out = {k: v for k in set(items)}\n",
            "out = list(set(items))\n",
            "out = ','.join(set(names))\n",
            "for x in set(a).union(b):\n    use(x)\n",
        ],
    )
    def test_flags_unordered_iteration(self, source):
        findings = only("R004", source)
        assert [f.rule_id for f in findings] == ["R004"]

    @pytest.mark.parametrize(
        "source",
        [
            "for x in sorted(set(items)):\n    use(x)\n",
            "out = sorted(set(a) | set(b))\n",
            "out = ','.join(sorted(set(names)))\n",
            "total = sum(f(x) for x in set(items))\n",
            "best = max(x for x in set(items))\n",
            "out = {f(x) for x in set(items)}\n",  # set -> set stays unordered
            "n = len(set(items))\n",
            "for x in items:\n    use(x)\n",
        ],
    )
    def test_allows_order_insensitive_consumption(self, source):
        assert only("R004", source) == []

    # --- flow-sensitive: the set reaches the loop through an alias ---

    @pytest.mark.parametrize(
        "source",
        [
            "s = set(items)\nfor x in s:\n    use(x)\n",
            "s = {1, 2, 3}\nfor x in s:\n    use(x)\n",
            "s = set(a) | set(b)\nfor x in s:\n    use(x)\n",
            "s = set(items)\nt = s\nfor x in t:\n    use(x)\n",  # two hops
            "s = set(items)\nout = [f(x) for x in s]\n",
            "s = set(items)\nout = list(s)\n",
            "s = set(items)\nout = ','.join(s)\n",
            "s = {f(x) for x in items}\nfor x in s:\n    use(x)\n",
        ],
    )
    def test_flow_flags_aliased_sets(self, source):
        findings = only("R004", source)
        assert [f.rule_id for f in findings] == ["R004"]

    @pytest.mark.parametrize(
        "source",
        [
            # sorted() re-tags the value ordered: the alias is then safe.
            "s = sorted(set(items))\nfor x in s:\n    use(x)\n",
            "s = set(items)\nt = sorted(s)\nfor x in t:\n    use(x)\n",
            "s = set(items)\ntotal = sum(s)\n",
            "s = set(items)\nn = len(s)\n",
            # Rebinding the name to an ordered value clears the tag.
            "s = set(items)\ns = sorted(s)\nfor x in s:\n    use(x)\n",
            "s = [1, 2, 3]\nfor x in s:\n    use(x)\n",
        ],
    )
    def test_flow_respects_sorted_retagging(self, source):
        assert only("R004", source) == []

    def test_finding_names_the_origin(self):
        findings = only("R004", "s = set(items)\nfor x in s:\n    use(x)\n")
        assert len(findings) == 1
        assert "line 1" in findings[0].message

    def test_branch_join_keeps_the_unordered_arm(self):
        source = (
            "if flag:\n    s = set(items)\n"
            "else:\n    s = list(items)\n"
            "for x in s:\n    use(x)\n"
        )
        findings = only("R004", source)
        assert [f.rule_id for f in findings] == ["R004"]

    def test_function_boundaries_reset_the_env(self):
        # Intra-procedural only: a set bound in one function must not
        # taint the same name in another.
        source = (
            "def a(items):\n    s = set(items)\n    return len(s)\n"
            "def b(s):\n    for x in s:\n        use(x)\n"
        )
        assert only("R004", source) == []


class TestR005ModuleState:
    def test_flags_global_statements(self):
        source = "x = 0\ndef bump():\n    global x\n    x += 1\n"
        findings = only("R005", source)
        assert [f.rule_id for f in findings] == ["R005"]
        assert "'x'" in findings[0].message

    def test_whitelists_hose_cache_and_tracer(self):
        source = "_cache = None\ndef reset():\n    global _cache\n    _cache = 1\n"
        assert only("R005", source, path="src/repro/core/hose.py") == []
        assert only("R005", source, path="src/repro/obs/tracer.py") == []
        assert only("R005", source, path="src/repro/core/engine.py") != []

    def test_allows_nonlocal(self):
        source = (
            "def outer():\n    x = 0\n"
            "    def inner():\n        nonlocal x\n        x += 1\n"
        )
        assert only("R005", source) == []


class TestR006KeywordOnlyConfig:
    def test_flags_positional_config_defaults(self):
        source = "def plan_widget(region, prune=True, jobs=1):\n    pass\n"
        findings = only("R006", source)
        assert [f.rule_id for f in findings] == ["R006", "R006"]
        assert "'prune'" in findings[0].message
        assert "'jobs'" in findings[1].message

    def test_allows_keyword_only_config(self):
        source = "def plan_widget(region, *, prune=True, jobs=1):\n    pass\n"
        assert only("R006", source) == []

    def test_ignores_private_and_unrelated_functions(self):
        assert only("R006", "def _plan_helper(a, b=1):\n    pass\n") == []
        assert only("R006", "def summarize(a, b=1):\n    pass\n") == []

    def test_required_positionals_are_fine(self):
        assert only("R006", "def plan_widget(region, topology):\n    pass\n") == []


class TestR007UnitMixing:
    @pytest.mark.parametrize(
        "source",
        [
            "total = span_km + tail_m\n",
            "delta = start_s - offset_ms\n",
            "ok = rate_gbps < limit_bps\n",
            "bad = fiber_km + duration_s\n",
        ],
    )
    def test_flags_unit_mixing(self, source):
        findings = only("R007", source)
        assert [f.rule_id for f in findings] == ["R007"]

    @pytest.mark.parametrize(
        "source",
        [
            "total = span_km + tail_km\n",
            "ratio = span_km / duration_s\n",  # division builds new units
            "scaled = span_km * 2\n",
            "budget = gain_db - loss_db\n",
            "power = launch_dbm - loss_db\n",  # dBm +/- dB is the link-budget idiom
            "x = alpha + beta\n",
        ],
    )
    def test_allows_consistent_units(self, source):
        assert only("R007", source) == []

    # --- flow-sensitive: the unit travels through an alias ---

    @pytest.mark.parametrize(
        "source",
        [
            "x = span_km\ny = x + loss_db\n",
            "x = span_km\ny = x\nz = y + duration_s\n",  # two hops
            "x = span_km + tail_km\ny = x + loss_db\n",  # through arithmetic
            "x = span_km\nok = x < duration_s\n",
        ],
    )
    def test_flow_flags_aliased_unit_mixing(self, source):
        findings = only("R007", source)
        assert [f.rule_id for f in findings] == ["R007"]

    @pytest.mark.parametrize(
        "source",
        [
            "x = span_km\ny = x + tail_km\n",
            "x = span_km\nx = duration_s\ny = x + offset_s\n",  # rebound
            "x = span_km / duration_s\ny = x + rate_gbps\n",  # division clears
            "x = launch_dbm\ny = x - loss_db\n",  # budget idiom via alias
        ],
    )
    def test_flow_allows_consistent_aliases(self, source):
        assert only("R007", source) == []

    def test_cross_dimension_mixing_is_called_out(self):
        findings = only("R007", "bad = fiber_km + duration_s\n")
        assert "never makes sense" in findings[0].message


class TestR008AtomicStoreWrites:
    STORE_PATH = "src/repro/store/cas.py"

    @pytest.mark.parametrize(
        "source",
        [
            'def save(path, text):\n    with open(path, "w") as fh:\n        fh.write(text)\n',
            'def save(path, text):\n    with open(path, mode="a") as fh:\n        fh.write(text)\n',
            "def save(path, text):\n    path.write_text(text)\n",
            "def save(path, data):\n    path.write_bytes(data)\n",
            'open("index.json", "w")\n',  # module-level write
        ],
    )
    def test_flags_non_atomic_store_writes(self, source):
        findings = only("R008", source, path=self.STORE_PATH)
        assert [f.rule_id for f in findings] == ["R008"]

    @pytest.mark.parametrize(
        "source",
        [
            # the blessed idiom: tmp file + os.replace in the same scope
            'import os\ndef save(path, tmp, text):\n    with open(tmp, "w") as fh:\n        fh.write(text)\n    os.replace(tmp, path)\n',
            "import os\ndef save(path, tmp, text):\n    tmp.write_text(text)\n    os.replace(tmp, path)\n",
            # reads are always fine
            'def load(path):\n    return open(path, "r").read()\n',
            "def load(path):\n    return path.read_text()\n",
            # dynamic modes are invisible to the syntactic rule
            "def save(path, mode, text):\n    open(path, mode)\n",
        ],
    )
    def test_allows_atomic_idiom_and_reads(self, source):
        assert only("R008", source, path=self.STORE_PATH) == []

    def test_scoped_to_the_store_package(self):
        source = "def save(path, text):\n    path.write_text(text)\n"
        assert only("R008", source, path="src/repro/serialize.py") == []
        assert only("R008", source, path=self.STORE_PATH) != []

    def test_nested_scopes_are_independent(self):
        # The outer function's os.replace must not bless a nested
        # function's bare write.
        source = (
            "import os\n"
            "def outer(path, tmp, text):\n"
            "    def inner(p, t):\n"
            "        p.write_text(t)\n"
            "    os.replace(tmp, path)\n"
        )
        findings = only("R008", source, path=self.STORE_PATH)
        assert [f.rule_id for f in findings] == ["R008"]


class TestR009UnorderedSerialization:
    @pytest.mark.parametrize(
        "source",
        [
            "canonical_json(set(items))\n",
            "key = artifact_key(kind, {'pairs': set(pairs)})\n",
            "s = set(items)\ndigest = store.digest(s)\n",
            # The ISSUE acceptance fixture: an unordered dict-of-set payload
            # reaching the canonical encoder through an alias.
            (
                "payload = {'reachable': {f(x) for x in pairs}}\n"
                "blob = canonical_json(payload)\n"
            ),
            "doc = json.dumps(set(names))\n",
        ],
    )
    def test_flags_unordered_reaching_sinks(self, source):
        findings = only("R009", source)
        assert [f.rule_id for f in findings] == ["R009"]

    @pytest.mark.parametrize(
        "source",
        [
            "canonical_json(sorted(set(items)))\n",
            "s = sorted(set(items))\nblob = canonical_json(s)\n",
            (
                "payload = {'reachable': sorted({f(x) for x in pairs})}\n"
                "blob = canonical_json(payload)\n"
            ),
            "blob = canonical_json({'pairs': list(pairs)})\n",
            # Non-sink calls never fire, however unordered the argument.
            "use(set(items))\n",
        ],
    )
    def test_sorted_payloads_are_clean(self, source):
        assert only("R009", source) == []

    def test_message_explains_the_hazard(self):
        findings = only("R009", "canonical_json(set(items))\n")
        assert "canonical_json" in findings[0].message
        assert "sort" in findings[0].message


class TestR010ReturnUnitSuffix:
    def test_flags_mismatched_return_unit(self):
        source = "def reach_km(path):\n    return path.loss_db\n"
        findings = only("R010", source)
        assert [f.rule_id for f in findings] == ["R010"]
        assert "'_km'" in findings[0].message and "'_db'" in findings[0].message

    def test_flags_mismatch_through_alias(self):
        source = (
            "def total_km(spans):\n"
            "    total_s = sum_durations(spans)\n"
            "    return total_s\n"
        )
        findings = only("R010", source)
        assert [f.rule_id for f in findings] == ["R010"]

    @pytest.mark.parametrize(
        "source",
        [
            "def reach_km(path):\n    return path.length_km\n",
            "def reach_km(path):\n    x = span_km\n    return x\n",
            # Untagged returns are unknown, not violations.
            "def reach_km(path):\n    return compute(path)\n",
            # Unsuffixed functions have nothing to check.
            "def reach(path):\n    return path.loss_db\n",
            # Link-budget arithmetic resolves to the declared unit.
            "def power_dbm(launch_dbm, loss_db):\n    return launch_dbm - loss_db\n",
        ],
    )
    def test_consistent_or_unknown_returns_are_clean(self, source):
        assert only("R010", source) == []

    def test_each_bad_return_is_flagged(self):
        source = (
            "def reach_km(path, fast):\n"
            "    if fast:\n        return path.loss_db\n"
            "    return path.t_s\n"
        )
        findings = only("R010", source)
        assert [f.rule_id for f in findings] == ["R010", "R010"]
        assert findings[0].line < findings[1].line


class TestR011ObsDiscipline:
    def test_flags_direct_span_construction(self):
        for ctor in ("Span", "SpanRecord"):
            findings = only("R011", f"s = {ctor}('plan', t0=0.0)\n")
            assert [f.rule_id for f in findings] == ["R011"]

    def test_flags_never_entered_span_statement(self):
        source = "obs.span('plan.solve')\nsolve()\n"
        findings = only("R011", source)
        assert [f.rule_id for f in findings] == ["R011"]
        assert "never entered" in findings[0].message

    def test_flags_unordered_counter_key(self):
        source = "s = set(pairs)\nspan.incr(','.join(s), 1)\n"
        findings = only("R011", source)
        assert "R011" in [f.rule_id for f in findings]

    @pytest.mark.parametrize(
        "source",
        [
            "with obs.span('plan.solve') as span:\n    solve()\n",
            "with tracer.span('x') as span:\n    span.incr('plan.steps', 1)\n",
            "span.incr('flowsim.flows', n)\n",
            "s = sorted(set(pairs))\nspan.incr(','.join(s), 1)\n",
        ],
    )
    def test_facade_idiom_is_clean(self, source):
        assert only("R011", source) == []

    def test_obs_package_is_exempt(self):
        source = "s = SpanRecord('plan', t0=0.0)\n"
        assert only("R011", source, path="src/repro/obs/tracer.py") == []
        assert only("R011", source, path="src/repro/core/engine.py") != []


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self):
        source = "import random\nrandom.seed(1)  # repro: noqa\n"
        assert lint_source(source) == []

    def test_targeted_noqa_suppresses_one_rule(self):
        source = "import random\nrandom.seed(1)  # repro: noqa-R001\n"
        assert lint_source(source) == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = "import random\nrandom.seed(1)  # repro: noqa-R004\n"
        assert [f.rule_id for f in lint_source(source)] == ["R001"]

    def test_multiple_rule_ids(self):
        source = (
            "import random\nimport time\n"
            "x = (random.seed(1), time.time())  # repro: noqa-R001,R002\n"
        )
        assert lint_source(source) == []

    def test_suppression_is_per_line(self):
        source = (
            "import random\n"
            "random.seed(1)  # repro: noqa-R001\n"
            "random.seed(2)\n"
        )
        findings = lint_source(source)
        assert [(f.rule_id, f.line) for f in findings] == [("R001", 3)]

    def test_noqa_on_any_line_of_a_wrapped_statement(self):
        # black wraps the call; the finding reports line 2 (the statement
        # start) while the comment sits on the argument line. Both comment
        # placements must suppress it.
        source = (
            "import random\n"
            "random.seed(\n"
            "    1,  # repro: noqa-R001\n"
            ")\n"
        )
        assert lint_source(source) == []
        source_first_line = (
            "import random\n"
            "random.seed(  # repro: noqa-R001\n"
            "    1,\n"
            ")\n"
        )
        assert lint_source(source_first_line) == []

    def test_noqa_in_function_body_does_not_cover_the_def_line(self):
        # Compound statements contribute only their header span: a noqa
        # buried in the body must not suppress a finding on the def line.
        source = (
            "def plan_widget(region, prune=True):\n"
            "    x = 1  # repro: noqa-R006\n"
            "    return x\n"
        )
        findings = lint_source(source, rules=[get_rule("R006")])
        assert [f.rule_id for f in findings] == ["R006"]

    def test_noqa_text_inside_a_docstring_is_not_a_suppression(self):
        source = (
            '"""Suppress with  # repro: noqa-R001  on the line."""\n'
            "import random\n"
            "random.seed(1)\n"
        )
        findings = lint_source(source)
        assert [f.rule_id for f in findings] == ["R001"]


class TestUnusedNoqaR900:
    def test_unused_suppression_is_reported(self):
        source = "x = 1  # repro: noqa-R004\n"
        findings = lint_source(source, report_unused_noqa=True)
        assert [f.rule_id for f in findings] == ["R900"]
        assert "noqa-R004" in findings[0].message

    def test_used_suppression_is_not_reported(self):
        source = "import random\nrandom.seed(1)  # repro: noqa-R001\n"
        assert lint_source(source, report_unused_noqa=True) == []

    def test_default_mode_stays_silent_about_unused_noqa(self):
        assert lint_source("x = 1  # repro: noqa\n") == []

    def test_docstring_mention_is_not_an_unused_suppression(self):
        source = '"""Docs mention  # repro: noqa  syntax."""\nx = 1\n'
        assert lint_source(source, report_unused_noqa=True) == []

    def test_r900_points_at_the_comment(self):
        source = "x = 1\ny = 2  # repro: noqa\n"
        finding = lint_source(source, report_unused_noqa=True)[0]
        assert finding.line == 2
        assert finding.col == 8


class TestDriver:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule_id for f in findings] == ["R000"]
        assert findings[0].path == "bad.py"

    def test_findings_sort_by_position(self):
        source = "import time\nb = time.time()\nimport random\na = random.seed(1)\n"
        findings = lint_source(source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_format_is_clickable(self):
        finding = lint_source("x = 1.0 == y\n", path="m.py")[0]
        assert finding.format().startswith("m.py:1:")
        assert "R003" in finding.format()

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "bad.py").write_text("import random\nrandom.seed(1)\n")
        findings = lint_paths([tmp_path])
        assert [f.rule_id for f in findings] == ["R001"]

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path / "missing"])

    def test_no_python_files_is_a_usage_error(self, tmp_path):
        (tmp_path / "notes.txt").write_text("nothing here\n")
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path])

    def test_broken_file_does_not_hide_findings_in_the_rest(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "bad.py").write_text("import random\nrandom.seed(1)\n")
        findings = lint_paths([tmp_path])
        assert sorted(f.rule_id for f in findings) == ["R000", "R001"]

    def test_non_utf8_file_is_an_r000_finding(self, tmp_path):
        evil = tmp_path / "latin.py"
        evil.write_bytes(b"# caf\xe9\nx = 1\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert [f.rule_id for f in findings] == ["R000"]
        assert findings[0].path.endswith("latin.py")
        assert "UTF-8" in findings[0].message


class TestCliExitCodes:
    def test_exit_0_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0

    def test_exit_1_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nrandom.seed(1)\n")
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "bad.py:2:" in out

    def test_exit_2_on_usage_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "missing")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R004", "R007", "R009", "R010", "R011"):
            assert rule_id in out

    def test_json_format_emits_machine_readable_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.seed(1)\ns = set(x)\nfor i in s:\n    f(i)\n"
        )
        assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        rules = [f["rule"] for f in payload["findings"]]
        assert rules == ["R001", "R004"]
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message", "fixable"}
        assert payload["summary"] == {"findings": 2, "files_flagged": 1}

    def test_json_format_on_a_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["summary"]["findings"] == 0

    def test_report_unused_noqa_flag(self, tmp_path, capsys):
        (tmp_path / "stale.py").write_text("x = 1  # repro: noqa-R004\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert cli_main(["lint", str(tmp_path), "--report-unused-noqa"]) == 1
        out = capsys.readouterr().out
        assert "R900" in out


# Statement templates the property test assembles into random modules. Some
# violate rules, some are clean, some carry suppressions; the invariant
# under test must hold for every interleaving.
_PROPERTY_SNIPPETS = [
    "import random\n",
    "random.seed(1)\n",
    "random.seed(2)  # repro: noqa-R001\n",
    "s = set(items)\n",
    "for x in s:\n    use(x)\n",
    "for x in set(items):\n    use(x)  # repro: noqa\n",
    "t = sorted(set(items))\n",
    "ok = span_km == limit\n",
    "ok = span_km == limit  # repro: noqa-R003\n",
    "y = span_km + loss_db\n",
    "x = 1\n",
]


class TestSuppressionProperty:
    @given(st.lists(st.sampled_from(range(len(_PROPERTY_SNIPPETS))), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_suppressed_findings_subset_of_unsuppressed(self, picks):
        source = "".join(_PROPERTY_SNIPPETS[i] for i in picks)
        stripped_lines = []
        for line in source.splitlines():
            comment = line.find("#")
            stripped_lines.append(line[:comment].rstrip() if comment >= 0 else line)
        stripped = "\n".join(stripped_lines) + "\n" if stripped_lines else ""

        with_noqa = {
            (f.line, f.rule_id) for f in lint_source(source, path="prop.py")
        }
        without_noqa = {
            (f.line, f.rule_id) for f in lint_source(stripped, path="prop.py")
        }
        # Suppressions only ever remove findings; they never create or
        # move one. (Comment stripping cannot change any other line.)
        assert with_noqa <= without_noqa


class TestLintKeepsNoCache:
    """Every lint runs the one cold pipeline: the plan store is not touched."""

    def test_iris_store_is_left_empty(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.setenv("IRIS_STORE", str(store))
        assert cli_main(["lint", str(REPO_ROOT / "src")]) == 0
        assert list(store.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--store", "DIR"], ["--no-store"]])
    def test_store_flags_are_usage_errors(self, tmp_path, flags, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", str(tmp_path), *flags])
        assert excinfo.value.code == 2


class TestShippedTreeIsClean:
    def test_src_passes_reprolint(self):
        assert lint_paths([REPO_ROOT / "src"]) == []

    def test_src_has_no_stale_suppressions(self):
        findings = lint_paths([REPO_ROOT / "src"], report_unused_noqa=True)
        assert [f for f in findings if f.rule_id == "R900"] == []
