"""repro.lint.flow — flow-sensitive value analysis under the rule layer.

The v1 rules were purely syntactic: ``for x in set(items)`` was visible,
``s = set(items); for x in s`` was not. This module closes that gap with an
intra-procedural, flow-sensitive pass that runs once per file *before* rule
dispatch (the driver's pass 1) and leaves behind a :class:`FlowInfo` the
rules query by AST node.

The analysis propagates a small abstract lattice through assignments,
augmented targets, comprehensions, branches, loops, and returns:

``unit``
    A unit tag (``"km"``, ``"db"``, ...) inferred from suffixed identifiers
    (``span_km``), attribute names (``units.MAX_SPAN_KM``), annotated
    parameters, string subscript keys (``row["length_km"]``), and calls to
    unit-suffixed functions (``rtt_ms(x)``). Same-unit arithmetic keeps the
    tag; ``dBm - dBm`` yields ``dB`` and ``dBm ± dB`` yields ``dBm`` (the
    link-budget algebra); multiplication/division and conflicting sums drop
    to "no unit" — building new dimensions is :mod:`repro.units`' job.

``ordered``
    One of :class:`Orderedness` ORDERED / UNORDERED / UNKNOWN. Sets, set
    comprehensions, set algebra, and set-method results are UNORDERED;
    ``sorted(...)`` re-tags to ORDERED; conversions (``list``, ``tuple``,
    ``iter``, ``enumerate``, ``reversed``, ``.join``), containers, and
    f-strings *propagate* unorderedness so a dict-of-set or a string built
    from set iteration stays tainted. Joins at control-flow merges are
    pessimistic about nondeterminism: a value unordered on any path is
    unordered.

Scopes follow Python's: module, function (including lambda), class body,
and comprehension targets each get their own symbol table. The analysis is
deliberately intra-procedural — function boundaries reset the environment
(parameters re-seed from name suffixes and annotations) — so it stays one
AST walk per file and the full-repo pass holds the 5 s bench budget.

Every :class:`AbstractValue` carries a best-effort *origin* (what created
the tag and on which line) so findings can say "``'s'`` aliases
``set(...)`` bound at line 3" instead of pointing at a bare name.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

#: Optional hook the interprocedural layer installs: given the call's
#: nearest enclosing function def (the module node outside every function;
#: a lambda or class body resolves names from the function around it) and
#: a call expression, return the abstract value the call produces (usually
#: a symbolic ``call_ref`` value), or None to fall back to the builtin
#: heuristics below.
CallResolver = Callable[[ast.AST, ast.Call], Optional["AbstractValue"]]

__all__ = [
    "AbstractValue",
    "CallResolver",
    "FlowInfo",
    "Orderedness",
    "UNIT_DIMENSIONS",
    "UNKNOWN_VALUE",
    "analyze_flow",
    "unit_dimension",
    "unit_suffix",
]


class Orderedness(enum.Enum):
    """Whether a value's iteration order is deterministic."""

    ORDERED = "ordered"
    UNORDERED = "unordered"
    UNKNOWN = "unknown"

    def join(self, other: "Orderedness") -> "Orderedness":
        """Lattice join at control-flow merges: unordered-anywhere wins."""
        if self is other:
            return self
        if Orderedness.UNORDERED in (self, other):
            return Orderedness.UNORDERED
        return Orderedness.UNKNOWN


#: The unit vocabulary: identifier suffix -> physical dimension. Suffixes
#: in the same dimension still must not mix without conversion (km vs m);
#: the log-domain power units (db/dbm) get their own algebra in _combine.
UNIT_DIMENSIONS: dict[str, str] = {
    "km": "length",
    "m": "length",
    "s": "time",
    "ms": "time",
    "us": "time",
    "ns": "time",
    "gbps": "rate",
    "mbps": "rate",
    "tbps": "rate",
    "bps": "rate",
    "db": "power",
    "dbm": "power",
    "mw": "power",
    "hz": "frequency",
    "ghz": "frequency",
}


def unit_suffix(name: str) -> str | None:
    """The unit suffix of an identifier (``span_km`` -> ``km``), or None."""
    if "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[-1].lower()
    return suffix if suffix in UNIT_DIMENSIONS else None


def unit_dimension(unit: str) -> str | None:
    """The physical dimension a unit tag belongs to (``km`` -> ``length``)."""
    return UNIT_DIMENSIONS.get(unit)


@dataclass(frozen=True)
class AbstractValue:
    """One lattice point: what the analysis knows about an expression."""

    #: Inferred unit tag (a key of :data:`UNIT_DIMENSIONS`), or None.
    unit: str | None = None
    #: Whether iterating the value is deterministic.
    ordered: Orderedness = Orderedness.UNKNOWN
    #: Human label of what produced the interesting tag (``"set(...)"``).
    origin: str | None = None
    #: Line the origin appeared on, for "bound at line N" messages.
    origin_line: int | None = None
    #: Symbolic call target (``"local:<qualname>"`` / ``"import:<dotted>"``)
    #: when the value is the unresolved result of a project-function call;
    #: the interprocedural layer resolves these against live summaries.
    call_ref: str | None = None

    @property
    def is_unordered(self) -> bool:
        return self.ordered is Orderedness.UNORDERED

    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Merge two branch values; disagreement degrades, never invents."""
        ordered = self.ordered.join(other.ordered)
        unit = self.unit if self.unit == other.unit else None
        if ordered is self.ordered and self.origin:
            origin, line = self.origin, self.origin_line
        elif ordered is other.ordered and other.origin:
            origin, line = other.origin, other.origin_line
        else:
            origin, line = None, None
        call_ref = self.call_ref if self.call_ref == other.call_ref else None
        return AbstractValue(unit, ordered, origin, line, call_ref)

    def describe(self) -> str:
        """Short suffix for findings: ``" (set(...) bound at line 3)"``."""
        parts = []
        if self.unit is not None:
            parts.append(f"tagged '_{self.unit}'")
        if self.origin is not None:
            if self.origin_line is None:
                parts.append(self.origin)
            else:
                parts.append(f"{self.origin} bound at line {self.origin_line}")
        if not parts:
            return ""
        return " (" + ", ".join(parts) + ")"


#: Bottom of the lattice: nothing known.
UNKNOWN_VALUE = AbstractValue()

#: A deterministic scalar (numbers, strings, bools, None).
_SCALAR = AbstractValue(ordered=Orderedness.ORDERED)

_Env = dict[str, AbstractValue]


def _join_envs(a: _Env, b: _Env) -> _Env:
    """Pointwise join of two branch environments."""
    out: _Env = {}
    for name in a.keys() | b.keys():
        out[name] = a.get(name, UNKNOWN_VALUE).join(b.get(name, UNKNOWN_VALUE))
    return out


class FlowInfo:
    """Queryable result of the flow pass over one module's AST.

    Values are keyed by node identity, so rules holding a node from the
    dispatch walk can ask about exactly that expression.
    """

    __slots__ = ("_values", "_returns")

    def __init__(self) -> None:
        self._values: dict[ast.AST, AbstractValue] = {}
        self._returns: dict[ast.AST, list[tuple[ast.Return, AbstractValue]]] = {}

    def value_of(self, node: ast.AST) -> AbstractValue:
        """The abstract value of an expression (UNKNOWN_VALUE if unvisited)."""
        return self._values.get(node, UNKNOWN_VALUE)

    def returns_of(
        self, func: ast.AST
    ) -> tuple[tuple[ast.Return, AbstractValue], ...]:
        """Every ``return`` of a function scope with its returned value."""
        return tuple(self._returns.get(func, ()))


def analyze_flow(
    tree: ast.AST, call_resolver: CallResolver | None = None
) -> FlowInfo:
    """Pass 1: flow-analyze every scope of ``tree``; returns the facts.

    ``call_resolver`` lets the interprocedural layer claim call
    expressions before the builtin heuristics see them — project
    functions resolve to (symbolic) summary values, builtins fall
    through untouched.
    """
    info = FlowInfo()
    #: (scope, nearest enclosing function def or the module).
    queue: list[tuple[ast.AST, ast.AST]] = [(tree, tree)]
    while queue:
        scope, owner = queue.pop()
        _ScopeAnalyzer(info, scope, owner, queue, call_resolver).run()
    return info


#: Set-specific methods whose result is itself an unordered set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Annotation names that pin a parameter's orderedness.
_UNORDERED_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_ORDERED_ANNOTATIONS = frozenset(
    {
        "list",
        "tuple",
        "dict",
        "str",
        "List",
        "Tuple",
        "Dict",
        "Sequence",
        "Mapping",
        "OrderedDict",
    }
)


def _value_from_annotation(annotation: ast.expr | None) -> AbstractValue:
    """Orderedness a signature annotation promises (``set[str]`` etc.)."""
    node: ast.AST | None = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name: str | None = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.split("[", 1)[0].strip()
    if name in _UNORDERED_ANNOTATIONS:
        return AbstractValue(
            ordered=Orderedness.UNORDERED,
            origin=f"parameter annotated {name}",
            origin_line=getattr(annotation, "lineno", None),
        )
    if name in _ORDERED_ANNOTATIONS:
        return AbstractValue(ordered=Orderedness.ORDERED)
    return UNKNOWN_VALUE


def _combine(op: ast.operator, left: AbstractValue, right: AbstractValue) -> AbstractValue:
    """Abstract binary operation: set algebra taints, unit algebra tags."""
    if left.is_unordered:
        ordered, origin, line = left.ordered, left.origin, left.origin_line
    elif right.is_unordered:
        ordered, origin, line = right.ordered, right.origin, right.origin_line
    elif (
        left.ordered is Orderedness.ORDERED
        and right.ordered is Orderedness.ORDERED
    ):
        ordered, origin, line = Orderedness.ORDERED, None, None
    else:
        ordered, origin, line = Orderedness.UNKNOWN, None, None

    unit: str | None = None
    if isinstance(op, (ast.Add, ast.Sub)):
        lu, ru = left.unit, right.unit
        if lu and ru:
            if lu == ru:
                # dBm - dBm is a ratio of absolute powers: a dB value.
                unit = "db" if isinstance(op, ast.Sub) and lu == "dbm" else lu
            elif {lu, ru} == {"db", "dbm"}:
                unit = "dbm"  # link-budget algebra: absolute +/- relative
            else:
                unit = None  # conflicting tags — R007's business, not ours
        else:
            unit = lu or ru
    return AbstractValue(unit, ordered, origin, line)


class _ScopeAnalyzer:
    """Statement-ordered walk of one scope, maintaining the symbol table."""

    def __init__(
        self,
        info: FlowInfo,
        scope: ast.AST,
        owner: ast.AST,
        queue: list[tuple[ast.AST, ast.AST]],
        call_resolver: CallResolver | None = None,
    ) -> None:
        self.info = info
        self.scope = scope
        #: The scope calls resolve from (see :data:`CallResolver`).
        self.owner = (
            scope
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            else owner
        )
        self.queue = queue
        self.call_resolver = call_resolver
        self.env: _Env = {}

    def run(self) -> None:
        scope = self.scope
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bind_params(scope.args)
            self._exec_block(scope.body)
        elif isinstance(scope, ast.Lambda):
            self._bind_params(scope.args)
            self._eval(scope.body)
        elif isinstance(scope, ast.ClassDef):
            self._exec_block(scope.body)
        else:  # ast.Module
            self._exec_block(getattr(scope, "body", []))

    # -- bindings ----------------------------------------------------------

    def _bind(self, name: str, value: AbstractValue) -> None:
        self.env[name] = value

    def _bind_params(self, args: ast.arguments) -> None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            value = _value_from_annotation(arg.annotation)
            self._bind(
                arg.arg,
                AbstractValue(
                    unit_suffix(arg.arg),
                    value.ordered,
                    value.origin,
                    value.origin_line,
                ),
            )
        if args.vararg is not None:
            self._bind(args.vararg.arg, AbstractValue(ordered=Orderedness.ORDERED))
        if args.kwarg is not None:
            self._bind(args.kwarg.arg, AbstractValue(ordered=Orderedness.ORDERED))

    def _bind_target(
        self,
        target: ast.expr,
        value: AbstractValue,
        value_expr: ast.expr | None = None,
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value)
            self.info._values[target] = value
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, UNKNOWN_VALUE)
        elif isinstance(target, (ast.Tuple, ast.List)):
            source_elts: list[ast.expr] | None = None
            if isinstance(value_expr, (ast.Tuple, ast.List)) and len(
                value_expr.elts
            ) == len(target.elts):
                source_elts = value_expr.elts
            for i, elt in enumerate(target.elts):
                elt_value = (
                    self.info.value_of(source_elts[i])
                    if source_elts is not None
                    else UNKNOWN_VALUE
                )
                self._bind_target(elt, elt_value)
        else:
            # Attribute / Subscript targets: evaluate their load parts so
            # nested expressions get values; nothing is tracked for them.
            self._eval(target)

    # -- statements --------------------------------------------------------

    def _exec_block(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        method = getattr(self, "_exec_" + type(stmt).__name__, None)
        if method is not None:
            method(stmt)
        else:
            self._visit_fields(stmt)

    def _visit_fields(self, node: ast.AST) -> None:
        """Generic traversal: evaluate every reachable expression in order."""
        for _name, value in ast.iter_fields(node):
            items = value if isinstance(value, list) else [value]
            for item in items:
                if isinstance(item, ast.expr):
                    self._eval(item)
                elif isinstance(item, ast.stmt):
                    self._exec(item)
                elif isinstance(item, ast.AST):
                    self._visit_fields(item)

    def _exec_Assign(self, stmt: ast.Assign) -> None:
        value = self._eval(stmt.value)
        for target in stmt.targets:
            self._bind_target(target, value, stmt.value)

    def _exec_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        self._eval(stmt.annotation)
        if stmt.value is not None:
            value = self._eval(stmt.value)
        else:
            value = _value_from_annotation(stmt.annotation)
        self._bind_target(stmt.target, value, stmt.value)

    def _exec_AugAssign(self, stmt: ast.AugAssign) -> None:
        right = self._eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            left = self.env.get(stmt.target.id, UNKNOWN_VALUE)
            combined = _combine(stmt.op, left, right)
            self._bind(stmt.target.id, combined)
            self.info._values[stmt.target] = combined
        else:
            self._eval(stmt.target)

    def _exec_For(self, stmt: ast.For) -> None:
        self._eval(stmt.iter)
        self._bind_target(stmt.target, UNKNOWN_VALUE)
        before = dict(self.env)
        self._exec_block(stmt.body)
        self.env = _join_envs(before, self.env)
        self._exec_block(stmt.orelse)

    _exec_AsyncFor = _exec_For

    def _exec_While(self, stmt: ast.While) -> None:
        self._eval(stmt.test)
        before = dict(self.env)
        self._exec_block(stmt.body)
        self.env = _join_envs(before, self.env)
        self._exec_block(stmt.orelse)

    def _exec_If(self, stmt: ast.If) -> None:
        self._eval(stmt.test)
        before = dict(self.env)
        self._exec_block(stmt.body)
        after_body = self.env
        self.env = dict(before)
        self._exec_block(stmt.orelse)
        self.env = _join_envs(after_body, self.env)

    def _exec_With(self, stmt: ast.With) -> None:
        for item in stmt.items:
            value = self._eval(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, value, item.context_expr)
        self._exec_block(stmt.body)

    _exec_AsyncWith = _exec_With

    def _exec_Try(self, stmt: ast.Try) -> None:
        before = dict(self.env)
        self._exec_block(stmt.body)
        self._exec_block(stmt.orelse)
        merged = self.env
        for handler in stmt.handlers:
            self.env = dict(before)
            if handler.type is not None:
                self._eval(handler.type)
            if handler.name:
                self._bind(handler.name, UNKNOWN_VALUE)
            self._exec_block(handler.body)
            merged = _join_envs(merged, self.env)
        self.env = merged
        self._exec_block(stmt.finalbody)

    _exec_TryStar = _exec_Try

    def _exec_Return(self, stmt: ast.Return) -> None:
        value = self._eval(stmt.value) if stmt.value is not None else _SCALAR
        if isinstance(
            self.scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            self.info._returns.setdefault(self.scope, []).append((stmt, value))

    def _exec_FunctionDef(self, stmt: ast.FunctionDef) -> None:
        # Decorators, defaults, and annotations evaluate in *this* scope;
        # the body is queued as a scope of its own.
        for decorator in stmt.decorator_list:
            self._eval(decorator)
        args = stmt.args
        for default in (*args.defaults, *filter(None, args.kw_defaults)):
            self._eval(default)
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ):
            if arg is not None and arg.annotation is not None:
                self._eval(arg.annotation)
        if stmt.returns is not None:
            self._eval(stmt.returns)
        self._bind(stmt.name, UNKNOWN_VALUE)
        self.queue.append((stmt, self.owner))

    _exec_AsyncFunctionDef = _exec_FunctionDef

    def _exec_ClassDef(self, stmt: ast.ClassDef) -> None:
        for decorator in stmt.decorator_list:
            self._eval(decorator)
        for base in stmt.bases:
            self._eval(base)
        for keyword in stmt.keywords:
            self._eval(keyword.value)
        self._bind(stmt.name, UNKNOWN_VALUE)
        self.queue.append((stmt, self.owner))

    def _exec_Global(self, stmt: ast.Global) -> None:
        for name in stmt.names:
            self._bind(name, UNKNOWN_VALUE)

    _exec_Nonlocal = _exec_Global

    def _exec_Delete(self, stmt: ast.Delete) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.env.pop(target.id, None)
            else:
                self._eval(target)

    # -- expressions -------------------------------------------------------

    def _eval(self, expr: ast.expr) -> AbstractValue:
        method = getattr(self, "_eval_" + type(expr).__name__, None)
        if method is not None:
            value = method(expr)
        else:
            self._visit_fields(expr)
            value = UNKNOWN_VALUE
        self.info._values[expr] = value
        return value

    def _eval_Constant(self, expr: ast.Constant) -> AbstractValue:
        return _SCALAR

    def _eval_Name(self, expr: ast.Name) -> AbstractValue:
        suffix = unit_suffix(expr.id)
        bound = self.env.get(expr.id)
        if bound is None:
            return AbstractValue(unit=suffix) if suffix else UNKNOWN_VALUE
        # A unit suffix on the name itself is a declaration and wins.
        return AbstractValue(
            suffix or bound.unit,
            bound.ordered,
            bound.origin,
            bound.origin_line,
            bound.call_ref,
        )

    def _eval_Attribute(self, expr: ast.Attribute) -> AbstractValue:
        self._eval(expr.value)
        return AbstractValue(unit=unit_suffix(expr.attr))

    def _eval_Subscript(self, expr: ast.Subscript) -> AbstractValue:
        self._eval(expr.value)
        self._eval(expr.slice)
        key = expr.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return AbstractValue(unit=unit_suffix(key.value))
        return UNKNOWN_VALUE

    def _eval_Starred(self, expr: ast.Starred) -> AbstractValue:
        return self._eval(expr.value)

    def _container(
        self, values: list[AbstractValue], label: str, line: int
    ) -> AbstractValue:
        """A container is tainted when anything inside it is unordered."""
        for value in values:
            if value.is_unordered:
                return AbstractValue(
                    ordered=Orderedness.UNORDERED,
                    origin=value.origin or f"unordered element in {label}",
                    origin_line=value.origin_line or line,
                )
        return AbstractValue(ordered=Orderedness.ORDERED)

    def _eval_Tuple(self, expr: ast.Tuple) -> AbstractValue:
        values = [self._eval(e) for e in expr.elts]
        return self._container(values, "tuple", expr.lineno)

    def _eval_List(self, expr: ast.List) -> AbstractValue:
        values = [self._eval(e) for e in expr.elts]
        return self._container(values, "list", expr.lineno)

    def _eval_Set(self, expr: ast.Set) -> AbstractValue:
        for elt in expr.elts:
            self._eval(elt)
        return AbstractValue(
            ordered=Orderedness.UNORDERED,
            origin="set literal",
            origin_line=expr.lineno,
        )

    def _eval_Dict(self, expr: ast.Dict) -> AbstractValue:
        values = [self._eval(k) for k in expr.keys if k is not None]
        values += [self._eval(v) for v in expr.values]
        return self._container(values, "dict", expr.lineno)

    def _eval_comprehension_scope(
        self, expr: ast.expr, generators: list[ast.comprehension]
    ) -> AbstractValue:
        """Bind comprehension targets; returns the first iterable's value."""
        base = UNKNOWN_VALUE
        for i, gen in enumerate(generators):
            iter_value = self._eval(gen.iter)
            if i == 0:
                base = iter_value
            self._bind_target(gen.target, UNKNOWN_VALUE)
            for cond in gen.ifs:
                self._eval(cond)
        return base

    def _comp_result(
        self, base: AbstractValue, parts: list[AbstractValue], label: str, line: int
    ) -> AbstractValue:
        tainted = [v for v in (base, *parts) if v.is_unordered]
        if tainted:
            first = tainted[0]
            return AbstractValue(
                ordered=Orderedness.UNORDERED,
                origin=first.origin or f"{label} over unordered iterable",
                origin_line=first.origin_line or line,
            )
        if base.ordered is Orderedness.ORDERED:
            return AbstractValue(ordered=Orderedness.ORDERED)
        return UNKNOWN_VALUE

    def _eval_ListComp(self, expr: ast.ListComp) -> AbstractValue:
        saved = dict(self.env)
        base = self._eval_comprehension_scope(expr, expr.generators)
        elt = self._eval(expr.elt)
        self.env = saved
        return self._comp_result(base, [elt], "comprehension", expr.lineno)

    _eval_GeneratorExp = _eval_ListComp

    def _eval_SetComp(self, expr: ast.SetComp) -> AbstractValue:
        saved = dict(self.env)
        self._eval_comprehension_scope(expr, expr.generators)
        self._eval(expr.elt)
        self.env = saved
        return AbstractValue(
            ordered=Orderedness.UNORDERED,
            origin="set comprehension",
            origin_line=expr.lineno,
        )

    def _eval_DictComp(self, expr: ast.DictComp) -> AbstractValue:
        saved = dict(self.env)
        base = self._eval_comprehension_scope(expr, expr.generators)
        key = self._eval(expr.key)
        value = self._eval(expr.value)
        self.env = saved
        return self._comp_result(base, [key, value], "dict comprehension", expr.lineno)

    def _eval_BinOp(self, expr: ast.BinOp) -> AbstractValue:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        return _combine(expr.op, left, right)

    def _eval_UnaryOp(self, expr: ast.UnaryOp) -> AbstractValue:
        return self._eval(expr.operand)

    def _eval_BoolOp(self, expr: ast.BoolOp) -> AbstractValue:
        values = [self._eval(v) for v in expr.values]
        result = values[0]
        for value in values[1:]:
            result = result.join(value)
        return result

    def _eval_IfExp(self, expr: ast.IfExp) -> AbstractValue:
        self._eval(expr.test)
        return self._eval(expr.body).join(self._eval(expr.orelse))

    def _eval_Compare(self, expr: ast.Compare) -> AbstractValue:
        self._eval(expr.left)
        for comparator in expr.comparators:
            self._eval(comparator)
        return _SCALAR

    def _eval_JoinedStr(self, expr: ast.JoinedStr) -> AbstractValue:
        values = [self._eval(v) for v in expr.values]
        return self._container(values, "f-string", expr.lineno)

    def _eval_FormattedValue(self, expr: ast.FormattedValue) -> AbstractValue:
        value = self._eval(expr.value)
        if expr.format_spec is not None:
            self._eval(expr.format_spec)
        return AbstractValue(
            None, value.ordered, value.origin, value.origin_line
        )

    def _eval_NamedExpr(self, expr: ast.NamedExpr) -> AbstractValue:
        value = self._eval(expr.value)
        self._bind(expr.target.id, value)
        self.info._values[expr.target] = value
        return value

    def _eval_Lambda(self, expr: ast.Lambda) -> AbstractValue:
        args = expr.args
        for default in (*args.defaults, *filter(None, args.kw_defaults)):
            self._eval(default)
        self.queue.append((expr, self.owner))
        return UNKNOWN_VALUE

    def _eval_Await(self, expr: ast.Await) -> AbstractValue:
        return self._eval(expr.value)

    def _eval_Yield(self, expr: ast.Yield) -> AbstractValue:
        if expr.value is not None:
            self._eval(expr.value)
        return UNKNOWN_VALUE

    def _eval_YieldFrom(self, expr: ast.YieldFrom) -> AbstractValue:
        self._eval(expr.value)
        return UNKNOWN_VALUE

    def _eval_Call(self, expr: ast.Call) -> AbstractValue:
        func = expr.func
        self._eval(func)
        receiver = (
            self.info.value_of(func.value)
            if isinstance(func, ast.Attribute)
            else UNKNOWN_VALUE
        )
        arg_values = [self._eval(a) for a in expr.args]
        kw_values = [self._eval(kw.value) for kw in expr.keywords]
        fname = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        first = arg_values[0] if arg_values else None
        line = expr.lineno

        if self.call_resolver is not None:
            resolved = self.call_resolver(self.owner, expr)
            if resolved is not None:
                return resolved
        if fname in ("set", "frozenset"):
            return AbstractValue(
                ordered=Orderedness.UNORDERED,
                origin=f"{fname}(...)",
                origin_line=line,
            )
        if fname == "sorted":
            return AbstractValue(ordered=Orderedness.ORDERED)
        if fname in ("list", "tuple", "iter", "reversed", "enumerate"):
            if first is None:
                return AbstractValue(ordered=Orderedness.ORDERED)
            return AbstractValue(
                None, first.ordered, first.origin, first.origin_line
            )
        if fname == "dict":
            return self._container([*arg_values, *kw_values], "dict(...)", line)
        if fname in ("sum", "len", "any", "all"):
            return _SCALAR
        if fname in ("min", "max", "abs", "round", "float", "int"):
            units = {v.unit for v in arg_values if v.unit is not None}
            unit = units.pop() if len(units) == 1 else None
            return AbstractValue(unit, Orderedness.ORDERED)
        if isinstance(func, ast.Attribute):
            if fname in _SET_METHODS:
                if receiver.is_unordered:
                    return AbstractValue(
                        ordered=Orderedness.UNORDERED,
                        origin=receiver.origin or f".{fname}(...)",
                        origin_line=receiver.origin_line or line,
                    )
                return UNKNOWN_VALUE
            if fname in ("keys", "values", "items", "copy"):
                return AbstractValue(
                    None, receiver.ordered, receiver.origin, receiver.origin_line
                )
            if fname == "join":
                if first is not None and first.is_unordered:
                    return AbstractValue(
                        ordered=Orderedness.UNORDERED,
                        origin=first.origin or "join over unordered iterable",
                        origin_line=first.origin_line or line,
                    )
                if first is not None and first.ordered is Orderedness.ORDERED:
                    return AbstractValue(ordered=Orderedness.ORDERED)
                return UNKNOWN_VALUE
            if fname in ("split", "splitlines", "strip", "lower", "upper", "format"):
                return AbstractValue(
                    None, receiver.ordered, receiver.origin, receiver.origin_line
                )
        if fname is not None:
            suffix = unit_suffix(fname)
            if suffix is not None:
                return AbstractValue(unit=suffix)
        return UNKNOWN_VALUE
