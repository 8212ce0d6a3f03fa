"""reprolint v3: interprocedural parity fixtures and pool-safety rules.

The acceptance bar for the v3 call-graph engine: for each effect rule a
*direct* violation and the same violation buried three calls deep must
both flag, and the transitive finding must quote its origin chain
("via `helper()` at line N → ... → sink at path:line") so the reader
can walk to the root cause without re-running the analysis. The pool
rules (R012-R014) resolve callables submitted to the execution backend
shapes and verify ``@worker_safe`` claims against the effect closure.
"""

import pytest

from repro.lint import (
    EffectOrigin,
    FunctionFacts,
    chain_text,
    get_rule,
    lint_project,
)
from repro.lint.callgraph import function_id
from repro.lint.summaries import propagate_effects, resolve_returns


def only_project(rule_id, sources):
    """Lint ``sources`` as one project with a single rule active."""
    return lint_project(sources, rules=[get_rule(rule_id)])


# --- depth-3 parity fixtures ------------------------------------------------
#
# Each chain follows the same shape: ``entry -> h1 -> h2 -> h3 -> sink``.
# The direct fixture plants the sink at top level; the deep fixture makes
# it reachable only through three calls. Both must flag.

R001_DIRECT = "import random\nrandom.seed(7)\n"
R001_DEEP = """\
import random


def h3():
    random.seed(7)


def h2():
    h3()


def h1():
    h2()


def entry():
    h1()
"""

R002_DIRECT = "import time\nt = time.time()\n"
R002_DEEP = """\
import time


def h3():
    return time.time()


def h2():
    return h3()


def h1():
    return h2()


def entry():
    return h1()
"""

R004_DIRECT = "for x in set(items):\n    use(x)\n"
R004_DEEP = """\
def h3(items):
    for x in set(items):
        use(x)


def h2(items):
    h3(items)


def h1(items):
    h2(items)


def entry(items):
    h1(items)
"""

R007_DIRECT = "total = span_km + loss_db\n"
R007_DEEP = """\
def h3():
    return fiber_km


def h2():
    return h3()


def h1():
    return h2()


def entry(duration_s):
    return h1() + duration_s
"""


class TestDepthThreeParity:
    @pytest.mark.parametrize(
        ("rule_id", "direct", "deep"),
        [
            ("R001", R001_DIRECT, R001_DEEP),
            ("R002", R002_DIRECT, R002_DEEP),
            ("R004", R004_DIRECT, R004_DEEP),
            ("R007", R007_DIRECT, R007_DEEP),
        ],
    )
    def test_direct_and_deep_both_flag(self, rule_id, direct, deep):
        assert only_project(rule_id, [("pkg/direct.py", direct)]) != []
        deep_findings = only_project(rule_id, [("pkg/deep.py", deep)])
        assert deep_findings != []
        # The entry-point call site inherits the violation...
        entry = [f for f in deep_findings if "`h1()`" in f.message]
        assert entry, [f.message for f in deep_findings]

    @pytest.mark.parametrize(
        ("rule_id", "deep", "sink"),
        [
            ("R001", R001_DEEP, "random.seed"),
            ("R002", R002_DEEP, "time.time"),
            ("R004", R004_DEEP, "set"),
        ],
    )
    def test_deep_finding_quotes_the_origin_chain(self, rule_id, deep, sink):
        findings = only_project(rule_id, [("pkg/deep.py", deep)])
        entry = [f for f in findings if "`h1()`" in f.message]
        assert entry
        message = entry[0].message
        # ... and the chain walks hop by hop back to the sink.
        assert "via `h2()` at line" in message
        assert "via `h3()` at line" in message
        assert sink in message
        assert "pkg/deep.py:" in message

    def test_chain_hops_carry_real_line_numbers(self):
        findings = only_project("R001", [("pkg/deep.py", R001_DEEP)])
        entry = [f for f in findings if "`h1()`" in f.message]
        assert "via `h2()` at line 13" in entry[0].message
        assert "via `h3()` at line 9" in entry[0].message
        assert "pkg/deep.py:5" in entry[0].message


class TestCrossModulePropagation:
    HELPER = """\
import random


def scramble(items):
    random.shuffle(items)
    return items
"""
    CALLER = """\
from pkg.util import scramble


def plan(items):
    return scramble(items)
"""

    def test_effect_crosses_module_boundary(self):
        findings = only_project(
            "R001",
            [("pkg/util.py", self.HELPER), ("pkg/app.py", self.CALLER)],
        )
        caller_side = [f for f in findings if f.path == "pkg/app.py"]
        assert len(caller_side) == 1
        assert "`scramble()`" in caller_side[0].message
        assert "pkg/util.py:5" in caller_side[0].message

    def test_blessed_origin_does_not_propagate(self):
        blessed = self.HELPER.replace(
            "random.shuffle(items)",
            "random.shuffle(items)  # repro: noqa-R001",
        )
        findings = only_project(
            "R001",
            [("pkg/util.py", blessed), ("pkg/app.py", self.CALLER)],
        )
        assert findings == []


class TestNestedHelpers:
    """Helpers nested in a function or a method call one another like
    module-level functions do: the effect reaches every caller."""

    IN_FUNCTION = """\
import random


def f():
    def a():
        random.seed(7)

    def b():
        a()

    b()
"""
    IN_METHOD = """\
import random


class C:
    def m(self):
        def a():
            random.seed(7)

        def b():
            a()

        b()
"""

    @pytest.mark.parametrize(
        "source", [IN_FUNCTION, IN_METHOD], ids=["function", "method"]
    )
    def test_calls_between_sibling_helpers_resolve(self, source):
        findings = only_project("R001", [("pkg/mod.py", source)])
        messages = [f.message for f in findings]
        assert len(findings) == 3, messages
        assert any("`a()`" in m for m in messages), messages
        assert any("`b()`" in m for m in messages), messages


class TestR004ArgumentFlow:
    def test_unordered_value_passed_to_order_sensitive_callee(self):
        source = """\
def first(seq):
    for item in seq:
        return item


def pick():
    return first(set(names))
"""
        findings = only_project("R004", [("pkg/mod.py", source)])
        arg_side = [f for f in findings if "'seq'" in f.message]
        assert arg_side
        assert "`first()`" in arg_side[0].message

    def test_derived_unordered_return_is_tracked(self):
        source = """\
def make_ids():
    return set(raw_ids)


def run():
    for item in make_ids():
        handle(item)
"""
        findings = only_project("R004", [("pkg/mod.py", source)])
        assert any("make_ids" in f.message for f in findings)

    def test_sorted_wrap_stays_clean(self):
        source = """\
def make_ids():
    return set(raw_ids)


def run():
    for item in sorted(make_ids()):
        handle(item)
"""
        assert only_project("R004", [("pkg/mod.py", source)]) == []

    @pytest.mark.parametrize(
        "iteration",
        [
            "    return [y for y in pick()]\n",
            "    g = lambda: [y for y in pick()]\n    return g\n",
            "    class Holder:\n        ys = [y for y in pick()]\n    return Holder\n",
        ],
        ids=["function", "lambda", "class-body"],
    )
    def test_nested_helper_resolves_from_the_enclosing_function(self, iteration):
        """A call in a lambda or a class body sees the enclosing
        function's nested helpers, as a plain comprehension does."""
        source = (
            "def f(items):\n"
            "    def pick():\n"
            "        return set(items)\n"
            + iteration
        )
        line = next(
            i for i, text in enumerate(source.splitlines(), 1) if "in pick()" in text
        )
        findings = only_project("R004", [("pkg/mod.py", source)])
        assert [(f.rule_id, f.line) for f in findings] == [("R004", line)]
        assert "`pick()`" in findings[0].message


POOL_PREFIX = "from repro.core.engine import get_backend\n"


class TestPoolSafetyRules:
    def test_r012_rejects_lambda_submission(self):
        source = POOL_PREFIX + (
            "def run(chunks):\n"
            "    backend = get_backend()\n"
            "    return backend.run_chunks(lambda c: c, chunks)\n"
        )
        findings = only_project("R012", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R012"]
        assert "cannot be pickled" in findings[0].message

    def test_r012_rejects_nested_function_submission(self):
        source = POOL_PREFIX + (
            "def run(chunks):\n"
            "    def work(c):\n"
            "        return c\n"
            "    backend = get_backend()\n"
            "    return backend.run_chunks(work, chunks)\n"
        )
        findings = only_project("R012", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R012"]
        assert "`work()`" in findings[0].message

    def test_r012_allows_module_level_submission(self):
        source = POOL_PREFIX + (
            "def work(c):\n"
            "    return c\n"
            "def run(chunks):\n"
            "    backend = get_backend()\n"
            "    return backend.run_chunks(work, chunks)\n"
        )
        assert only_project("R012", [("pkg/mod.py", source)]) == []

    def test_r013_flags_nondeterministic_chunk_fn(self):
        source = (
            "import random\n"
            "def work(c):\n"
            "    random.shuffle(c)\n"
            "    return c\n"
            "def run(backend, chunks):\n"
            "    return backend.run_chunks(work, chunks)\n"
        )
        findings = only_project("R013", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R013"]
        assert "deterministic per chunk" in findings[0].message
        assert "random.shuffle" in findings[0].message

    def test_r013_sees_through_partial_and_free_function(self):
        source = (
            "import random\n"
            "from functools import partial\n"
            "def work(scale, c):\n"
            "    return random.random() * scale\n"
            "def run(backend, chunks):\n"
            "    return map_in_chunks(backend, partial(work, 2.0), chunks)\n"
        )
        findings = only_project("R013", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R013"]
        assert "map_in_chunks()" in findings[0].message

    def test_r014_flags_io_in_chunk_fn(self):
        source = (
            "def work(c):\n"
            "    with open('log.txt', 'w') as fh:\n"
            "        fh.write(str(c))\n"
            "    return c\n"
            "def run(backend, chunks):\n"
            "    return backend.iter_chunks(work, chunks)\n"
        )
        findings = only_project("R014", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R014"]
        assert "filesystem" in findings[0].message

    def test_worker_safe_claim_is_verified_not_trusted(self):
        source = (
            "import random\n"
            "from repro.core.engine import worker_safe\n"
            "@worker_safe\n"
            "def work(c):\n"
            "    random.shuffle(c)\n"
            "    return c\n"
        )
        findings = only_project("R013", [("pkg/mod.py", source)])
        assert [f.rule_id for f in findings] == ["R013"]
        assert "declared @worker_safe" in findings[0].message

    def test_worker_safe_clean_function_passes(self):
        source = (
            "from repro.core.engine import worker_safe\n"
            "@worker_safe\n"
            "def work(c):\n"
            "    return sorted(c)\n"
        )
        assert only_project("R013", [("pkg/mod.py", source)]) == []
        assert only_project("R014", [("pkg/mod.py", source)]) == []


def _summary(qualname, **kwargs):
    return FunctionFacts(
        qualname=qualname,
        name=qualname.rsplit(".", 1)[-1],
        lineno=kwargs.pop("lineno", 1),
        **kwargs,
    )


class TestSummaryRegression:
    def test_resolve_returns_keeps_iterated_calls(self):
        # A function that both forwards another call's return value and
        # iterates a third call's result must keep the iteration fact
        # when its return is symbolically resolved.
        inner = function_id("pkg/mod.py", "inner")
        outer = function_id("pkg/mod.py", "outer")
        summaries = {
            inner: _summary(
                "inner", return_ordered="unordered", return_origin="set(...)"
            ),
            outer: _summary(
                "outer",
                lineno=3,
                return_call="local:inner",
                iterated_calls=(("local:feeder", "feeder()", 4),),
            ),
        }
        resolved = resolve_returns(
            summaries,
            lambda fid, target: inner if target == "local:inner" else None,
        )
        assert resolved[outer].return_ordered == "unordered"
        assert resolved[outer].iterated_calls == (
            ("local:feeder", "feeder()", 4),
        )

    def test_chain_text_renders_every_hop(self):
        h1 = function_id("pkg/deep.py", "h1")
        h2 = function_id("pkg/deep.py", "h2")
        h3 = function_id("pkg/deep.py", "h3")
        summaries = {
            h1: _summary("h1", lineno=12),
            h2: _summary("h2", lineno=8),
            h3: _summary(
                "h3",
                lineno=4,
                effects={
                    "global_rng": EffectOrigin(
                        "global_rng", "random.seed at pkg/deep.py:5"
                    )
                },
            ),
        }
        edges = {h1: [(h2, "h2", 13)], h2: [(h3, "h3", 9)], h3: []}
        effects = propagate_effects(summaries, edges)
        text = chain_text(effects[h1]["global_rng"])
        assert "via `h2()` at line 13" in text
        assert "via `h3()` at line 9" in text
        assert "random.seed at pkg/deep.py:5" in text
