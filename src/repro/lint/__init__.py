"""repro.lint — domain-aware static analysis for planner invariants.

The last releases made planner correctness depend on invariants no single
test fully enforces: bit-identical serial/parallel plans, monotonic-clock-only
timing, environment-invariant serialization. ``reprolint`` checks those
properties statically — at review time, not as flaky parity failures.

Zero dependencies: the framework is the stdlib ``ast`` module plus a rule
registry. Run it as ``iris lint src/`` (exit 0 clean, 1 findings, 2 usage
error) or import it from tests::

    from repro.lint import lint_paths, lint_source

    assert lint_paths(["src"]) == []
    assert lint_source("import random\\nrandom.seed(1)\\n") != []

Since v2 the rules sit on a flow-sensitive dataflow engine
(:mod:`repro.lint.flow`): per-scope symbol tables and a unit/orderedness
lattice propagate facts through assignments and branches, so aliased
violations (``s = set(...); for x in s``) are caught too.

Since v3 the analysis is *interprocedural*: every invocation lints its
file set as one project (:mod:`repro.lint.project`) — a call graph is
resolved across files (:mod:`repro.lint.callgraph`), per-function effect
and unit summaries close transitively over it
(:mod:`repro.lint.summaries`), and findings fire at call sites arbitrarily
far from the root cause, quoting the chain. Three pool-safety rules
(R012-R014) check every callable submitted to the execution backends.
Each call site is resolved once; the rules look the result up.

Since v4 a fourth phase (:mod:`repro.lint.concurrency`) analyzes the
thread-shared state the ``iris serve`` daemon introduced: locksets over
``with self._lock:`` blocks thread interprocedurally (private helpers
called under a lock inherit it via a must-analysis fixpoint), and
acquired resources must be released on every path. ``iris lint --format
sarif`` emits SARIF 2.1.0 for native PR annotation in CI.

Rules (see :mod:`repro.lint.rules` and ``iris lint --list-rules``):
R001 global RNG state, R002 wall-clock reads, R003 float equality on unit
quantities, R004 unordered iteration, R006 keyword-only planner config,
R007 unit-tag mixing, R009 unordered data into serialization sinks, R012
pool submissions picklable, R013 pool submissions deterministic, R014
pool chunk functions pure, R015 guarded-by consistency for thread-shared
attributes, R018 resources released on every path. The ids of the seven
deleted rules (R005, R008, R010, R011, R016, R017, R019) are retired,
not reused. Intentional violations carry a ``# repro: noqa-RXXX``
comment anywhere in the flagged statement (R015 additionally accepts
``# repro: guarded-by[lock]``); ``--report-unused-noqa`` (R900) keeps
those escapes honest.
"""

from repro.lint.concurrency import ConcurrencyContext, build_concurrency
from repro.lint.driver import (
    LintUsageError,
    Suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    suppressions,
)
from repro.lint.findings import Finding
from repro.lint.flow import (
    AbstractValue,
    FlowInfo,
    Orderedness,
    analyze_flow,
    unit_dimension,
    unit_suffix,
)
from repro.lint.project import ProjectContext, lint_project
from repro.lint.registry import FileContext, Rule, all_rules, get_rule, rule
from repro.lint.sarif import to_sarif
from repro.lint.summaries import (
    EffectOrigin,
    FileFacts,
    FunctionFacts,
    analyze_file,
    chain_text,
)

__all__ = [
    "AbstractValue",
    "ConcurrencyContext",
    "EffectOrigin",
    "FileContext",
    "FileFacts",
    "Finding",
    "FlowInfo",
    "FunctionFacts",
    "LintUsageError",
    "Orderedness",
    "ProjectContext",
    "Rule",
    "Suppressions",
    "all_rules",
    "analyze_file",
    "analyze_flow",
    "build_concurrency",
    "chain_text",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "rule",
    "suppressions",
    "to_sarif",
    "unit_dimension",
    "unit_suffix",
]
