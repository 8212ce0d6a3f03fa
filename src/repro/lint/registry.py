"""Rule registry and per-file analysis context for reprolint.

A rule is a generator function registered for specific AST node types; the
driver (:mod:`repro.lint.driver`) walks each file's tree once and dispatches
every node to the rules interested in its type. Rules therefore stay O(1)
per node and a full-repo pass stays well under the bench budget.

Rules may declare ``exempt`` path fragments: files whose normalized path
contains any fragment are skipped for that rule (e.g. ``repro/obs/`` owns
the wall clock, so R002 does not apply there).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.lint.findings import Finding, TextEdit
from repro.lint.flow import AbstractValue, FlowInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.project import ProjectContext
    from repro.lint.summaries import FileFacts

#: A rule body: yields findings for one dispatched node.
CheckFn = Callable[[ast.AST, "FileContext"], Iterator[Finding]]


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    #: Display path, as given by the caller (used in findings).
    path: str
    #: Posix-normalized path used for rule exemption matching.
    module_path: str
    #: Raw source text of the file.
    source: str
    #: This file's functions, imports and scopes.
    facts: "FileFacts"
    #: Whole-project resolved facts, effects and concurrency products.
    project: "ProjectContext"
    #: Child node -> parent node, for rules that need enclosing context.
    parents: dict[ast.AST, ast.AST]
    #: Flow facts with project calls resolved (:mod:`repro.lint.flow`).
    flow: FlowInfo
    #: Lazy char-offset table for building :class:`TextEdit` fixes.
    _line_starts: list[int] | None = field(default=None, repr=False)

    def finding(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        *,
        fix: TextEdit | None = None,
    ) -> Finding:
        """A finding anchored at ``node``'s position in this file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(self.path, line, col, rule_id, message, fix=fix)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (None at module level)."""
        return self.parents.get(node)

    def value_of(self, node: ast.AST) -> AbstractValue:
        """The flow-inferred abstract value of an expression."""
        return self.flow.value_of(node)

    def returns_of(self, func: ast.AST) -> tuple[tuple[ast.Return, AbstractValue], ...]:
        """Flow-collected ``return`` statements of a function scope."""
        return self.flow.returns_of(func)

    def is_exempt(self, fragments: Iterable[str]) -> bool:
        """Whether this file matches any exemption path fragment."""
        return any(fragment in self.module_path for fragment in fragments)

    # -- v3: interprocedural context ---------------------------------------

    def scope_qualname(self, node: ast.AST) -> str | None:
        """Qualname of the function scope enclosing ``node`` (None = module).

        Climbs the parent map to the nearest enclosing function def.
        """
        current: ast.AST | None = node
        while current is not None:
            qualname = self.facts.node_qualnames.get(current)
            if qualname is not None and current is not node:
                return qualname
            current = self.parents.get(current)
        return None

    def resolve_call(self, call: ast.Call) -> tuple[str, str] | None:
        """(function id, display label) a call dispatches to, if resolvable."""
        scope = self.scope_qualname(call)
        resolved = self.facts.resolve_call_expr(call.func, scope)
        if resolved is None:
            return None
        target, label = resolved
        fid = self.project.resolve_symbolic(self.facts, target)
        if fid is None:
            return None
        return fid, label

    def resolve_callable(self, expr: ast.expr, scope: str | None) -> str | None:
        """Project function id a callable *reference* names, if resolvable.

        Unlike :meth:`resolve_call` this takes the expression of a
        function passed by value (``backend.run_chunks(fn, ...)``).
        """
        target: str | None = None
        if isinstance(expr, ast.Name):
            target = self.facts.resolve_name(expr.id, scope)
        elif isinstance(expr, ast.Attribute):
            resolved = self.facts.resolve_call_expr(expr, scope)
            target = resolved[0] if resolved is not None else None
        if target is None:
            return None
        return self.project.resolve_symbolic(self.facts, target)

    # -- v3: source offsets for autofix edits ------------------------------

    def offset_of(self, line: int, col: int) -> int:
        """Char offset of a (1-based line, 0-based col) source position."""
        if self._line_starts is None:
            starts = [0]
            for text_line in self.source.splitlines(keepends=True):
                starts.append(starts[-1] + len(text_line))
            self._line_starts = starts
        starts = self._line_starts
        assert starts is not None
        index = min(max(line - 1, 0), len(starts) - 1)
        return starts[index] + col

    def span_of(self, node: ast.AST) -> tuple[int, int] | None:
        """(start, end) char offsets of ``node``, if position info exists."""
        lineno = getattr(node, "lineno", None)
        end_lineno = getattr(node, "end_lineno", None)
        end_col = getattr(node, "end_col_offset", None)
        if lineno is None or end_lineno is None or end_col is None:
            return None
        start = self.offset_of(lineno, getattr(node, "col_offset", 0))
        end = self.offset_of(end_lineno, end_col)
        return start, end


@dataclass(frozen=True)
class Rule:
    """A registered reprolint rule."""

    rule_id: str
    title: str
    invariant: str
    node_types: tuple[type, ...]
    check: CheckFn
    exempt: tuple[str, ...] = ()


_RULES: dict[str, Rule] = {}


def rule(
    rule_id: str,
    *,
    title: str,
    invariant: str,
    nodes: Iterable[type],
    exempt: Iterable[str] = (),
) -> Callable[[CheckFn], CheckFn]:
    """Register ``fn`` as the body of rule ``rule_id``.

    ``title`` is the short human name shown by ``iris lint --list-rules``;
    ``invariant`` states the planner property the rule protects (it feeds
    the docs); ``nodes`` are the AST node types the driver dispatches to
    the rule; ``exempt`` are path fragments where the rule does not apply.
    """

    def decorate(fn: CheckFn) -> CheckFn:
        if rule_id in _RULES:
            raise ValueError(f"rule {rule_id} registered twice")
        _RULES[rule_id] = Rule(
            rule_id=rule_id,
            title=title,
            invariant=invariant,
            node_types=tuple(nodes),
            check=fn,
            exempt=tuple(exempt),
        )
        return fn

    return decorate


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by rule id."""
    return tuple(_RULES[rid] for rid in sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (KeyError if unknown)."""
    return _RULES[rule_id]
