"""repro.lint.project — the three-phase project pipeline.

Every lint invocation analyzes its files as one *project* in three
phases:

**Phase 1 — per-file facts.** Each file is parsed once and reduced to a
:class:`repro.lint.summaries.FileFacts` derivable from its source text
alone: its functions, imports and scopes, and per function the call
sites, direct effects, return summary and locksets, with project calls
recorded *symbolically*.

**Phase 2 — project-wide propagation.** The module index resolves every
symbolic call target to a concrete project function, symbolic return
references resolve to concrete unit/orderedness facts, effects close
transitively over the call graph bottom-up by SCC, and the concurrency
phase (:mod:`repro.lint.concurrency`) builds entry locksets, the lock
graph and resource returns.

**Phase 3 — per-file rule dispatch.** Each file's rules run with a
*concrete* call resolver installed in the flow pass (a call to a project
function now carries its resolved return summary) and the
:class:`ProjectContext` available for the call-site, pool-safety and
concurrency rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.lint.callgraph import (
    ModuleIndex,
    function_id,
    resolve_target,
    split_function_id,
)
from repro.lint.concurrency import ConcurrencyContext, build_concurrency
from repro.lint.driver import Suppressions
from repro.lint.findings import Finding
from repro.lint.flow import (
    AbstractValue,
    CallResolver,
    Orderedness,
    analyze_flow,
)
from repro.lint.registry import FileContext, Rule, all_rules, get_rule
from repro.lint.summaries import (
    Blessing,
    EffectOrigin,
    FileFacts,
    FunctionFacts,
    analyze_file,
    propagate_effects,
    resolve_returns,
)

__all__ = [
    "ProjectContext",
    "lint_project",
]


# -- project context (what rules see) -----------------------------------------


@dataclass
class ProjectContext:
    """Phase-2 product: resolved function facts + transitive effects."""

    files: dict[str, FileFacts]
    index: ModuleIndex
    #: Return-resolved facts per project function id.
    functions: dict[str, FunctionFacts]
    #: Transitive effect closure per project function id.
    effects: dict[str, dict[str, EffectOrigin]]
    #: Lockset/lifecycle products (see repro.lint.concurrency).
    concurrency: ConcurrencyContext

    def resolve_symbolic(self, facts: FileFacts, target: str) -> str | None:
        """Resolve a symbolic ``local:``/``import:`` target to a function id."""
        return resolve_target(target, facts, self.index, self.files)

    def function(self, fid: str) -> FunctionFacts | None:
        return self.functions.get(fid)

    def effects_of(self, fid: str) -> Mapping[str, EffectOrigin]:
        return self.effects.get(fid, {})


# -- phase 1: per-file facts ----------------------------------------------------


@dataclass
class _FileState:
    """Everything the pipeline tracks about one file across the phases."""

    path: str
    module_path: str
    source: str
    tree: ast.AST | None = None
    facts: FileFacts | None = None
    r000: Finding | None = None
    suppressions: Suppressions | None = None


def _blessing(suppressions: Suppressions, module_path: str) -> Blessing:
    """Effect-blessing predicate: noqa'd or rule-exempt origins don't
    propagate — the file owns that effect."""

    def is_blessed(rule_id: str, line: int) -> bool:
        if suppressions.covers(rule_id, line):
            return True
        try:
            exempt = get_rule(rule_id).exempt
        except KeyError:
            return False
        return any(fragment in module_path for fragment in exempt)

    return is_blessed


def _parse_file(state: _FileState) -> None:
    """Parse one file into its phase-1 facts (or its R000 finding)."""
    try:
        state.tree = ast.parse(state.source, filename=state.path)
    except SyntaxError as exc:
        state.r000 = Finding(
            state.path,
            exc.lineno or 1,
            (exc.offset or 0) or 1,
            "R000",
            f"syntax error: {exc.msg}",
        )
        state.facts = FileFacts(path=state.path, module="")
        return
    state.suppressions = Suppressions(state.source, state.tree)
    state.facts = analyze_file(
        state.tree,
        state.path,
        is_blessed=_blessing(state.suppressions, state.module_path),
    )


# -- phase 2: project-wide propagation -----------------------------------------


def _build_project(states: Sequence[_FileState]) -> ProjectContext:
    files = {s.path: s.facts for s in states if s.facts is not None}
    index = ModuleIndex(files.values())

    def resolve(path: str, target: str) -> str | None:
        return resolve_target(target, files[path], index, files)

    local: dict[str, FunctionFacts] = {
        function_id(path, qualname): fn
        for path, facts in files.items()
        for qualname, fn in facts.functions.items()
    }
    # Resolved call edges: caller fid -> [(callee fid, label, line)].
    edges: dict[str, list[tuple[str, str, int]]] = {}
    for caller, fn in local.items():
        path, _ = split_function_id(caller)
        for target, label, line, _held in fn.calls:
            callee = resolve(path, target)
            if callee is not None and callee in local:
                edges.setdefault(caller, []).append((callee, label, line))

    def return_resolver(fid: str, target: str) -> str | None:
        return resolve(split_function_id(fid)[0], target)

    final = resolve_returns(local, return_resolver)

    # Iterations over project-call results become unordered_iter effects
    # once the callee's *resolved* return summary says unordered.
    seed: dict[str, dict[str, EffectOrigin]] = {
        fid: dict(fn.effects) for fid, fn in final.items()
    }
    for fid, fn in sorted(final.items()):
        for target, origin_text, line in fn.iterated_calls:
            if "unordered_iter" in seed[fid]:
                break
            callee = return_resolver(fid, target)
            if callee is None:
                continue
            callee_final = final.get(callee)
            if callee_final is None or callee_final.return_ordered != "unordered":
                continue
            origin = origin_text or f"via call at line {line}"
            if callee_final.return_origin:
                origin = f"{origin} → {callee_final.return_origin}"
            seed[fid]["unordered_iter"] = EffectOrigin("unordered_iter", origin)

    def conc_resolver(path: str, target: str) -> str | None:
        fid = resolve(path, target)
        return fid if fid is not None and fid in final else None

    return ProjectContext(
        files=files,
        index=index,
        functions=final,
        effects=propagate_effects(final, edges, seed_effects=seed),
        concurrency=build_concurrency(files, final, conc_resolver),
    )


# -- phase 3: per-file rule dispatch -------------------------------------------


def _concrete_resolver(facts: FileFacts, project: ProjectContext) -> CallResolver:
    """Phase-3 resolver: project calls return their resolved summaries."""

    def resolver(scope_node: ast.AST, call: ast.Call) -> AbstractValue | None:
        scope = facts.node_qualnames.get(scope_node)
        resolved = facts.resolve_call_expr(call.func, scope)
        if resolved is None:
            return None
        target, label = resolved
        fid = project.resolve_symbolic(facts, target)
        final = project.function(fid) if fid is not None else None
        if final is None:
            return None
        ordered = Orderedness(final.return_ordered)
        origin = None
        if ordered is Orderedness.UNORDERED or final.return_unit is not None:
            origin = f"via `{label}()` at line {call.lineno}"
            if final.return_origin:
                origin = f"{origin} → {final.return_origin}"
        return AbstractValue(final.return_unit, ordered, origin, None)

    return resolver


def _dispatch_rules(
    state: _FileState,
    project: ProjectContext,
    selected: Sequence[Rule],
    report_unused_noqa: bool,
) -> list[Finding]:
    """Run phase 3 on one parsed file."""
    tree, facts, suppressions = state.tree, state.facts, state.suppressions
    assert tree is not None and facts is not None and suppressions is not None
    # One breadth-first pass (ast.walk's order) yields both the dispatch
    # order and the parent map.
    nodes: list[ast.AST] = [tree]
    parents: dict[ast.AST, ast.AST] = {}
    for parent in nodes:
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
            nodes.append(child)
    ctx = FileContext(
        path=state.path,
        module_path=state.module_path,
        source=state.source,
        facts=facts,
        project=project,
        parents=parents,
        flow=analyze_flow(tree, _concrete_resolver(facts, project)),
    )

    dispatch: dict[type, list[Rule]] = {}
    for selected_rule in selected:
        if ctx.is_exempt(selected_rule.exempt):
            continue
        for node_type in selected_rule.node_types:
            dispatch.setdefault(node_type, []).append(selected_rule)

    found: list[Finding] = []
    for node in nodes:
        for active_rule in dispatch.get(type(node), ()):
            found.extend(active_rule.check(node, ctx))

    kept = [f for f in found if not suppressions.suppresses(f)]
    if report_unused_noqa:
        kept.extend(suppressions.unused_findings(state.path))
    return sorted(kept)


# -- the pipeline ---------------------------------------------------------------


def lint_project(
    sources: Sequence[tuple[str, str]],
    *,
    rules: Sequence[Rule] | None = None,
    report_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint a set of ``(path, source)`` files as one project.

    This is the engine behind :func:`repro.lint.driver.lint_paths` and
    :func:`~repro.lint.driver.lint_source`. Importing the driver (which
    imports :mod:`repro.lint.rules`) has registered every rule.
    """
    states = sorted(
        (
            _FileState(
                path=str(path),
                module_path=Path(str(path)).as_posix(),
                source=source,
            )
            for path, source in sources
        ),
        key=lambda s: s.path,
    )
    for state in states:  # phase 1
        _parse_file(state)

    project = _build_project(states)  # phase 2

    selected = all_rules() if rules is None else tuple(rules)
    findings: list[Finding] = []
    for state in states:  # phase 3
        if state.r000 is not None:
            findings.append(state.r000)
        else:
            findings.extend(
                _dispatch_rules(state, project, selected, report_unused_noqa)
            )
    return sorted(findings)
