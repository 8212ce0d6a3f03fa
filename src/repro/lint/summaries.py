"""repro.lint.summaries — one record of facts per function.

The interprocedural half of reprolint. Each file is reduced to a
:class:`FileFacts`: its import map, its scope tables, and one
:class:`FunctionFacts` per function, filled by a declaration pass and
then **one own-scope walk per function** (:func:`analyze_file`) that
tracks the lockset of the enclosing ``with`` blocks as it goes. The walk
records:

**call sites** with a *symbolic* target (``local:helper`` or
``import:repro.core.hose.solve``), resolved against the whole lint set
by :mod:`repro.lint.project` through :mod:`repro.lint.callgraph`; each
site keeps the locks held around it for the concurrency phase.

**determinism effects**
    ``global_rng`` (mutates the shared module RNG — R001's invariant),
    ``wall_clock`` (reads environment time — R002), ``module_state``
    (rebinds module globals — R005), ``unordered_iter`` (iterates an
    unordered collection order-sensitively — R004), ``io`` (touches
    the filesystem — no intra-procedural rule, but pool-submitted
    callables must be pure: R014), and ``blocking`` (may park the
    thread — R016). Effects are extracted *directly* per function and
    then propagated transitively bottom-up over the call graph
    (:func:`propagate_effects`), each carrying an origin ("``random.seed``
    at ``path:line``") and the call chain it travelled ("via
    ``helper()`` at line N") so a finding three calls up still quotes
    the root cause.

**unit / orderedness signatures**
    What a call returns, through the same lattice the flow pass uses:
    a unit tag (``dist_km()`` → ``km``), an orderedness, and — the key
    trick — a *symbolic* reference when a function returns another
    function's result (``def a(): return b()`` records ``call →
    local:b``). Symbolic returns are resolved against the project
    (:func:`resolve_returns`), so call-depth-N unit and set-ness still
    flow to the caller.

**locksets and resources** for :mod:`repro.lint.concurrency`: every
``with <lock>:`` acquisition (and the locks already held), ``self.*``
data accesses with their lockset, thread construction, and whether a
return hands back a fresh resource.

**blessed effects** do not propagate: an effect whose origin statement
carries the matching ``# repro: noqa-RXXX`` or sits in a path the rule
exempts (``repro/obs/`` owns the wall clock, the PID-pinned hose cache
owns its globals) is vouched for by its owner and is not a violation to
surface at call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.lint.callgraph import (
    decorator_names,
    dotted_parts,
    module_name_for_path,
    scope_chain,
    tarjan_scc,
)
from repro.lint.flow import (
    AbstractValue,
    CallResolver,
    FlowInfo,
    Orderedness,
    analyze_flow,
    unit_suffix,
)

__all__ = [
    "EFFECT_RULES",
    "EffectOrigin",
    "FileFacts",
    "FunctionFacts",
    "analyze_file",
    "blocking_call_violation",
    "canonical_lock",
    "chain_text",
    "propagate_effects",
    "resolve_returns",
]

#: Effect name -> the rule whose invariant it violates (None: pool-only).
EFFECT_RULES: dict[str, str | None] = {
    "global_rng": "R001",
    "wall_clock": "R002",
    "module_state": "R005",
    "unordered_iter": "R004",
    "io": None,
    "blocking": "R016",
}

#: Human phrasing per effect, used by call-site findings.
EFFECT_LABELS: dict[str, str] = {
    "global_rng": "mutates global RNG state",
    "wall_clock": "reads the wall clock",
    "module_state": "rebinds module-level state",
    "unordered_iter": "iterates an unordered collection",
    "io": "performs filesystem I/O",
    "blocking": "may block indefinitely",
}

#: ``random`` module attributes that do NOT touch the shared module RNG.
RANDOM_OK = frozenset({"Random"})

#: ``numpy.random`` attributes that construct seeded, instance-local state.
NP_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: ``time`` module functions that read the wall clock.
TIME_WALL = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime", "asctime"})

#: ``datetime``/``date`` constructors that read the wall clock.
DATETIME_WALL = frozenset({"now", "utcnow", "today"})

#: ``os`` functions that touch the filesystem.
_OS_IO = frozenset(
    {"replace", "remove", "rename", "makedirs", "unlink", "rmdir", "mkdir"}
)

#: Path-object methods that read or write files in one call.
_PATH_IO = frozenset({"write_text", "write_bytes", "read_text", "read_bytes"})

#: Socket methods that park the calling thread on the network (R016).
_SOCKET_BLOCKING = frozenset(
    {"accept", "recv", "recvfrom", "recv_into", "sendall"}
)

#: Planner entry points: a full solve can take seconds to minutes, which
#: is "blocking" from the perspective of a thread holding a service lock.
_PLANNER_ENTRY = frozenset(
    {"plan_topology", "plan_region", "plan_robust", "run_sweep"}
)


@dataclass(frozen=True)
class EffectOrigin:
    """One effect with where it comes from and how it was reached."""

    effect: str
    origin: str
    chain: tuple[tuple[str, int], ...] = ()


def chain_text(origin: EffectOrigin) -> str:
    """The quoted chain of one effect: ``via `a()` at line 3 → ... → root``."""
    steps = [f"via `{name}()` at line {line}" for name, line in origin.chain]
    steps.append(origin.origin)
    return " → ".join(steps)


#: ``(symbolic target, display label, line, locks held)`` of one call
#: site; ``held`` is None where the lockset is not tracked (lambda bodies
#: and ``with ... as`` targets), which still count as call-graph edges.
CallFact = tuple[str, str, int, tuple[str, ...] | None]


@dataclass
class FunctionFacts:
    """Everything reprolint knows about one function from its own file.

    The declaration pass fills the signature fields; the own-scope walk
    fills the rest. :func:`resolve_returns` hands back copies whose
    symbolic ``return_call`` is resolved.
    """

    qualname: str
    name: str
    lineno: int
    #: Qualname of the enclosing function, for nested ``def``s.
    parent: str | None = None
    class_name: str | None = None
    params: tuple[str, ...] = ()
    decorators: tuple[str, ...] = ()
    calls: list[CallFact] = field(default_factory=list)
    #: Unblessed *direct* effects; propagation adds transitive ones.
    effects: dict[str, EffectOrigin] = field(default_factory=dict)
    #: Parameters the body iterates order-sensitively while their
    #: orderedness is still the caller's to decide.
    iterated_params: list[str] = field(default_factory=list)
    #: ``(symbolic target, display origin, line)`` for every loop that
    #: iterates the result of a project call — whether that is an
    #: unordered iteration depends on the callee's resolved return
    #: summary, so the check is deferred to the project phase.
    iterated_calls: list[tuple[str, str, int]] = field(default_factory=list)
    return_unit: str | None = None
    return_ordered: str = "unknown"
    return_origin: str | None = None
    #: Symbolic ``local:<qualname>``/``import:<dotted>`` when the return
    #: value is another function's result; resolved per run.
    return_call: str | None = None
    #: ``(lock, line)`` for every ``with <lock>:`` acquisition.
    acquires: list[tuple[str, int]] = field(default_factory=list)
    #: ``(outer, inner, line)`` for directly nested acquisitions.
    nested: list[tuple[str, str, int]] = field(default_factory=list)
    #: ``(attr, line, col, locks held, "read"|"write")`` for ``self.*``
    #: data accesses (methods and lock-ish attributes excluded).
    accesses: list[tuple[str, int, int, tuple[str, ...], str]] = field(
        default_factory=list
    )
    #: Whether the body constructs a ``threading.Thread``.
    spawns_thread: bool = False
    #: ``"direct:<kind>"`` when a return statement hands back a fresh
    #: resource, ``"call:<target>"`` when it returns another function's
    #: result (resolved per run), else None.
    returns_resource: str | None = None

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    @property
    def worker_safe(self) -> bool:
        return any(d.split(".")[-1] == "worker_safe" for d in self.decorators)


@dataclass
class FileFacts:
    """One file's functions, imports and scope tables.

    The AST-node map (``node_qualnames``) ties the facts to the parsed
    tree the rules walk.
    """

    path: str
    module: str
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    #: Canonical lock name -> constructor kind ("lock", "rlock", ...).
    lock_kinds: dict[str, str] = field(default_factory=dict)
    #: FunctionDef/AsyncFunctionDef node -> qualname.
    node_qualnames: dict[ast.AST, str] = field(default_factory=dict, repr=False)
    #: Per-scope name -> qualname tables ("" is module scope).
    scope_names: dict[str, dict[str, str]] = field(default_factory=dict, repr=False)

    def resolve_name(self, name: str, scope: str | None) -> str | None:
        """Symbolic target of a bare ``name`` visible from ``scope``.

        Searches nested-function tables innermost-out, then module-level
        functions, then the import alias map.
        """
        for prefix in scope_chain(scope):
            table = self.scope_names.get(prefix)
            if table and name in table:
                return f"local:{table[name]}"
        if name in self.imports:
            return f"import:{self.imports[name]}"
        return None

    def resolve_call_expr(
        self, func: ast.expr, scope: str | None
    ) -> tuple[str, str] | None:
        """(symbolic target, display label) for a call's function expr."""
        if isinstance(func, ast.Name):
            target = self.resolve_name(func.id, scope)
            return (target, func.id) if target is not None else None
        if isinstance(func, ast.Attribute):
            parts = dotted_parts(func)
            if parts is None:
                return None
            root, rest = parts[0], parts[1:]
            if root in ("self", "cls") and len(parts) == 2:
                info = self.functions.get(scope) if scope is not None else None
                if info is not None and info.class_name is not None:
                    qualname = f"{info.class_name}.{parts[1]}"
                    if qualname in self.functions:
                        return f"local:{qualname}", f"{root}.{parts[1]}"
                return None
            if root in self.imports and rest:
                dotted = ".".join([self.imports[root], *rest])
                return f"import:{dotted}", ".".join(parts)
        return None


# -- direct-effect predicates (shared with the intra-procedural rules) --------


def _dotted_root(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def rng_attribute_violation(node: ast.Attribute) -> str | None:
    """The global-RNG access an attribute performs (``"random.seed"``)."""
    value = node.value
    if (
        isinstance(value, ast.Name)
        and value.id == "random"
        and node.attr not in RANDOM_OK
    ):
        return f"random.{node.attr}"
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
        and node.attr not in NP_RANDOM_OK
    ):
        return f"{value.value.id}.random.{node.attr}"
    return None


def wall_clock_violation(node: ast.Attribute) -> str | None:
    """The wall-clock read an attribute performs (``"time.time"``)."""
    if (
        isinstance(node.value, ast.Name)
        and node.value.id == "time"
        and node.attr in TIME_WALL
    ):
        return f"time.{node.attr}"
    if node.attr in DATETIME_WALL and _dotted_root(node) in ("datetime", "date"):
        return f"{_dotted_root(node)}.{node.attr}"
    return None


def _receiver_text(node: ast.expr) -> str:
    """Best-effort dotted text of a call receiver (``self._queue``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _kw(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_false(expr: ast.expr | None) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is False


def blocking_call_violation(node: ast.Call) -> str | None:
    """The potentially-indefinite wait a call performs (``"Queue.get"``).

    This is the direct-detection half of the ``blocking`` effect (R016):
    socket accept/recv/sendall, ``queue.put``/``get`` in blocking mode,
    ``Event.wait``/``Condition.wait``, ``Thread.join``, ``time.sleep``,
    and the planner entry points (a full solve is a block from the
    perspective of anything holding a service lock). Queue and join
    detection is receiver-name driven — ``self._queue.get()`` counts,
    ``params.get("key")`` does not.
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _PLANNER_ENTRY:
            return f"{func.id}(...)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver_text(func.value).lower()
    root = _dotted_root(func)
    if func.attr in _SOCKET_BLOCKING:
        return f".{func.attr}"
    if root == "socket" and func.attr == "create_connection":
        return "socket.create_connection"
    if root == "time" and func.attr == "sleep":
        return "time.sleep"
    if func.attr in _PLANNER_ENTRY:
        return f".{func.attr}(...)"
    if func.attr in ("get", "put") and "queue" in receiver:
        first = node.args[0] if node.args else None
        if _is_false(first) or _is_false(_kw(node, "block")):
            return None
        return f"Queue.{func.attr}"
    if func.attr == "wait":
        return ".wait"
    if func.attr == "join" and not node.args and not node.keywords:
        return ".join"
    if func.attr == "join" and (
        "thread" in receiver or "worker" in receiver
    ):
        return ".join"
    return None


def io_call_violation(node: ast.Call) -> str | None:
    """The filesystem operation a call performs (``"open"``), if any."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        root = _dotted_root(func)
        if root == "os" and func.attr in _OS_IO:
            return f"os.{func.attr}"
        if root == "shutil":
            return f"shutil.{func.attr}"
        if func.attr in _PATH_IO:
            return f".{func.attr}"
    return None


# -- locks, threads and resources (shared with repro.lint.concurrency) ------

#: Name fragments that make an attribute or variable "lock-ish".
_LOCKISH = ("lock", "mutex")

#: Bare names that are lock-ish without containing a fragment.
_LOCKISH_EXACT = frozenset({"cv", "cond", "condition"})

#: threading constructors -> lock kind (reentrancy matters for R017).
_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
}

#: ``<module>.<attr>`` socket calls that hand back an open resource.
_SOCKET_ACQ = frozenset({"socket", "create_connection"})

#: Backend classes whose instances own process/thread pools.
_POOL_CLASSES = frozenset({"ProcessBackend"})


def lockish(name: str) -> bool:
    lowered = name.lower()
    return (
        any(f in lowered for f in _LOCKISH)
        or lowered.lstrip("_") in _LOCKISH_EXACT
    )


def canonical_lock(
    expr: ast.expr, class_name: str | None, module: str
) -> str | None:
    """The project-wide name of a lock a ``with`` item acquires, if any.

    ``self._lock`` in a method of ``PlannerService`` canonicalizes to
    ``PlannerService._lock`` (instance locks are per-object, but one name
    per class is the right granularity for ordering analysis); a bare
    module-level ``_LOCK`` to ``<module>._LOCK``. Calls are never locks —
    ``with self._guard():`` yields a fresh object per call.
    """
    parts = dotted_parts(expr)
    if not parts or not lockish(parts[-1]):
        return None
    if parts[0] in ("self", "cls"):
        owner = class_name if class_name is not None else "self"
        return ".".join([owner, *parts[1:]])
    if len(parts) == 1:
        return f"{module}.{parts[0]}"
    return ".".join(parts)


def lock_kind_of(value: ast.expr) -> str | None:
    """The threading-lock kind a constructor call builds, if any."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        parts = dotted_parts(func)
        if parts and parts[0] == "threading":
            name = func.attr
    return _LOCK_CTORS.get(name) if name is not None else None


def is_thread_ctor(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "Thread"
    return isinstance(func, ast.Attribute) and func.attr == "Thread"


def acquisition_kind_syntactic(call: ast.Call) -> str | None:
    """Resource kind a call acquires, judged from the call shape alone."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "file handle"
        if func.id in _POOL_CLASSES:
            return "worker pool"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    parts = dotted_parts(func)
    root = parts[0] if parts else None
    if root == "socket" and func.attr in _SOCKET_ACQ:
        return "socket"
    if func.attr == "makefile":
        return "stream"
    if func.attr == "accept" and not call.args:
        return "socket"
    if root == "subprocess" and func.attr == "Popen":
        return "process"
    if func.attr in _POOL_CLASSES:
        return "worker pool"
    return None


# -- extraction ---------------------------------------------------------------


def _is_remote(value: Any) -> bool:
    """Whether an abstract value's taint came across a call boundary.

    Resolver-derived origins start with ``"via "``; excluding them keeps
    direct effects local: a callee's unordered return reaches this
    function through ``iterated_calls`` and the project phase instead.
    """
    origin = getattr(value, "origin", None)
    return isinstance(origin, str) and origin.startswith("via ")


def _unordered_origin(value: Any, path: str) -> str | None:
    """Concrete origin text for a locally-unordered abstract value."""
    if value is None or not getattr(value, "is_unordered", False):
        return None
    if _is_remote(value):
        return None
    origin = value.origin or "unordered collection"
    if value.origin_line is not None:
        return f"{origin} at {path}:{value.origin_line}"
    return f"{origin} ({path})"


def _syntactic_set(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


def _iter_param(expr: ast.expr, params: frozenset[str]) -> str | None:
    """The parameter an iteration target resolves to, unwrapping the
    order-preserving conversions (``enumerate(items)`` iterates ``items``)."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("enumerate", "list", "tuple", "iter", "reversed")
        and len(expr.args) == 1
    ):
        expr = expr.args[0]
    if isinstance(expr, ast.Name) and expr.id in params:
        return expr.id
    return None


#: ``is_blessed(rule_id, line)`` — true when a noqa or path exemption
#: covers the origin, so the effect must not propagate.
Blessing = Callable[[str, int], bool]


def _return_summary(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    flow: FlowInfo,
    path: str,
    has_yield: bool,
    yield_origin: str | None,
) -> tuple[str | None, str, str | None, str | None]:
    """(unit, ordered, origin, symbolic call) of a function's return value.

    A generator returns what it yields: unordered when its first tainted
    ``yield from`` says so, unknown otherwise.
    """
    declared = unit_suffix(func.name)
    if has_yield:
        if yield_origin is not None:
            return declared, "unordered", yield_origin, None
        return declared, "unknown", None, None

    returns = flow.returns_of(func)
    if not returns:
        return declared, "ordered", None, None

    units: set[str | None] = set()
    ordered = Orderedness.ORDERED
    origin: str | None = None
    calls: set[str | None] = set()
    call_origin: str | None = None
    for _stmt, value in returns:
        units.add(value.unit)
        ordered = ordered.join(value.ordered)
        if value.is_unordered and origin is None:
            origin = _unordered_origin(value, path) or value.origin
        ref = getattr(value, "call_ref", None)
        calls.add(ref)
        if ref is not None and call_origin is None:
            call_origin = value.origin
    unit = units.pop() if len(units) == 1 else None
    if declared is not None:
        unit = declared
    if ordered is Orderedness.UNORDERED:
        return unit, "unordered", origin, None
    only_call = calls.pop() if len(calls) == 1 else None
    if only_call is not None:
        return unit, "unknown", call_origin, only_call
    return unit, ordered.value, None, None


class _Declarations(ast.NodeVisitor):
    """The declaration pass: functions, their scopes, and imports.

    Collection completes before the walks resolve any call, so forward
    references (``def a(): return b()`` with ``b`` defined later) resolve.
    """

    def __init__(self, facts: FileFacts) -> None:
        self.facts = facts
        #: (kind, name) scope stack entries; kind is "func" or "class".
        self._stack: list[tuple[str, str]] = []

    def _qualname(self, name: str) -> str:
        # Each stack entry is already a full qualname, so the innermost
        # one is the whole prefix.
        if not self._stack:
            return name
        kind, entry = self._stack[-1]
        if kind == "func":
            return f"{entry}.<locals>.{name}"
        return f"{entry}.{name}"

    def _enclosing_func(self) -> str | None:
        for kind, entry in reversed(self._stack):
            if kind == "func":
                return entry
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.facts.imports.setdefault(bound, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._absolute_module(node)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.facts.imports.setdefault(bound, f"{base}.{alias.name}")

    def _absolute_module(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        base_parts = self.facts.module.split(".")
        if node.level > len(base_parts):
            return None
        base_parts = base_parts[: len(base_parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = self._qualname(node.name)
        parent = self._enclosing_func()
        class_name = (
            self._stack[-1][1] if self._stack and self._stack[-1][0] == "class" else None
        )
        args = node.args
        self.facts.functions[qualname] = FunctionFacts(
            qualname=qualname,
            name=node.name,
            lineno=node.lineno,
            parent=parent,
            class_name=class_name,
            params=tuple(
                a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            ),
            decorators=decorator_names(node),
        )
        self.facts.node_qualnames[node] = qualname
        self.facts.scope_names.setdefault(parent or "", {})[node.name] = qualname
        self._stack.append(("func", qualname))
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(("class", self._qualname(node.name)))
        self.generic_visit(node)
        self._stack.pop()


class _FunctionWalk:
    """One function's own scope, walked once with the held lockset.

    Nested ``def`` and lambda bodies belong to their own scopes; a
    lambda's calls still count as call-graph edges of this function.
    """

    def __init__(
        self,
        facts: FileFacts,
        fn: FunctionFacts,
        flow: FlowInfo,
        path: str,
        is_blessed: Blessing,
    ) -> None:
        self.facts = facts
        self.fn = fn
        self.flow = flow
        self.path = path
        self.is_blessed = is_blessed
        self.params = frozenset(fn.params)
        self.tracks_access = fn.class_name is not None and fn.name not in (
            "__init__",
            "__del__",
        )
        self.lock_kinds: dict[str, str] = {}
        self.has_yield = False
        self.yield_origin: str | None = None

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.walk(node, ())
        fn = self.fn
        (
            fn.return_unit,
            fn.return_ordered,
            fn.return_origin,
            fn.return_call,
        ) = _return_summary(
            node, self.flow, self.path, self.has_yield, self.yield_origin
        )

    def walk(self, node: ast.AST, held: tuple[str, ...] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Lambda):
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        self._record_call(sub, None)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                assert held is not None  # no statement sits in a with-as target
                self._walk_with(child, held)
            else:
                self._visit(child, held)
                self.walk(child, held)

    def _walk_with(
        self, node: ast.With | ast.AsyncWith, held: tuple[str, ...]
    ) -> None:
        for item in node.items:
            # The context expression evaluates before acquisition.
            self._visit(item.context_expr, held)
            self.walk(item.context_expr, held)
            if item.optional_vars is not None:
                self._visit(item.optional_vars, None)
                self.walk(item.optional_vars, None)
            lock = canonical_lock(
                item.context_expr, self.fn.class_name, self.facts.module
            )
            if lock is not None:
                self.fn.acquires.append((lock, node.lineno))
                for outer in held:
                    self.fn.nested.append((outer, lock, node.lineno))
                if lock not in held:
                    held = (*held, lock)
        for stmt in node.body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk_with(stmt, held)
            elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(stmt, held)
                self.walk(stmt, held)

    def _effect(self, effect: str, origin: str, line: int) -> None:
        rule = EFFECT_RULES[effect]
        if rule is not None and self.is_blessed(rule, line):
            return
        if effect not in self.fn.effects:
            self.fn.effects[effect] = EffectOrigin(
                effect, f"{origin} at {self.path}:{line}"
            )

    def _record_call(self, node: ast.Call, held: tuple[str, ...] | None) -> None:
        resolved = self.facts.resolve_call_expr(node.func, self.fn.qualname)
        if resolved is not None:
            target, label = resolved
            self.fn.calls.append((target, label, node.lineno, held))

    def _visit(self, node: ast.AST, held: tuple[str, ...] | None) -> None:
        fn = self.fn
        if isinstance(node, ast.Call):
            self._record_call(node, held)
            if held is not None and is_thread_ctor(node):
                fn.spawns_thread = True
            io = io_call_violation(node)
            if io is not None:
                self._effect("io", io, node.lineno)
            blocking = blocking_call_violation(node)
            if blocking is not None:
                self._effect("blocking", blocking, node.lineno)
        elif isinstance(node, ast.Attribute):
            rng = rng_attribute_violation(node)
            if rng is not None:
                self._effect("global_rng", rng, node.lineno)
            clock = wall_clock_violation(node)
            if clock is not None:
                self._effect("wall_clock", clock, node.lineno)
            if held is not None:
                self._visit_access(node, held)
        elif isinstance(node, ast.Global):
            self._effect(
                "module_state", f"global {', '.join(node.names)}", node.lineno
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._visit_for(node)
        elif isinstance(node, ast.Assign):
            kind = lock_kind_of(node.value)
            if kind is not None:
                for target in node.targets:
                    lock = canonical_lock(target, fn.class_name, self.facts.module)
                    if lock is not None:
                        self.lock_kinds.setdefault(lock, kind)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._visit_return(node.value)
        elif isinstance(node, ast.YieldFrom):
            self.has_yield = True
            if self.yield_origin is None:
                self.yield_origin = _unordered_origin(
                    self.flow.value_of(node.value), self.path
                )
        elif isinstance(node, ast.Yield):
            self.has_yield = True

    def _visit_for(self, node: ast.For | ast.AsyncFor) -> None:
        value = self.flow.value_of(node.iter)
        origin = _unordered_origin(value, self.path)
        if origin is None and _syntactic_set(node.iter):
            origin = f"set iteration at {self.path}:{node.iter.lineno}"
        blessed = self.is_blessed("R004", node.lineno)
        if origin is not None and not blessed:
            self.fn.effects.setdefault(
                "unordered_iter", EffectOrigin("unordered_iter", origin)
            )
        param = _iter_param(node.iter, self.params)
        if (
            param is not None
            and value.ordered is Orderedness.UNKNOWN
            and param not in self.fn.iterated_params
        ):
            self.fn.iterated_params.append(param)
        if value.call_ref is not None and not blessed:
            self.fn.iterated_calls.append(
                (value.call_ref, value.origin or "", node.lineno)
            )

    def _visit_access(self, node: ast.Attribute, held: tuple[str, ...]) -> None:
        if not self.tracks_access:
            return
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        if lockish(node.attr):
            return
        if f"{self.fn.class_name}.{node.attr}" in self.facts.functions:
            return  # a bound-method reference, not shared data
        kind = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        self.fn.accesses.append(
            (node.attr, node.lineno, node.col_offset + 1, held, kind)
        )

    def _visit_return(self, value: ast.expr) -> None:
        if self.fn.returns_resource is not None or not isinstance(value, ast.Call):
            return
        kind = acquisition_kind_syntactic(value)
        if kind is not None:
            self.fn.returns_resource = f"direct:{kind}"
            return
        resolved = self.facts.resolve_call_expr(value.func, self.fn.qualname)
        if resolved is not None:
            self.fn.returns_resource = f"call:{resolved[0]}"


def _symbolic_resolver(facts: FileFacts) -> CallResolver:
    """Flow-pass resolver: claim project calls with a symbolic ``call_ref``."""

    def resolver(scope_node: ast.AST, call: ast.Call) -> AbstractValue | None:
        scope = facts.node_qualnames.get(scope_node)
        resolved = facts.resolve_call_expr(call.func, scope)
        if resolved is None:
            return None
        target, label = resolved
        return AbstractValue(
            unit=unit_suffix(label.rsplit(".", 1)[-1]),
            ordered=Orderedness.UNKNOWN,
            origin=f"via `{label}()` at line {call.lineno}",
            origin_line=None,
            call_ref=target,
        )

    return resolver


def analyze_file(
    tree: ast.AST, path: str, *, is_blessed: Blessing | None = None
) -> FileFacts:
    """The facts of one parsed file, from its own source alone.

    The declaration pass indexes functions and imports, the flow pass
    runs with project calls claimed symbolically, and one own-scope walk
    per function fills its record. ``is_blessed`` (default: nothing is)
    keeps noqa'd or path-exempt origins out of the effects.
    """
    facts = FileFacts(path=path, module=module_name_for_path(path))
    _Declarations(facts).visit(tree)
    flow = analyze_flow(tree, _symbolic_resolver(facts))
    origin_path = Path(path).as_posix()
    blessed = is_blessed if is_blessed is not None else (lambda _r, _l: False)
    for node, qualname in sorted(
        facts.node_qualnames.items(), key=lambda kv: kv[1]
    ):
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        walk = _FunctionWalk(
            facts, facts.functions[qualname], flow, origin_path, blessed
        )
        walk.run(node)
        facts.lock_kinds.update(walk.lock_kinds)
    # Module-level lock constructions (`_LOCK = threading.Lock()`).
    for stmt in getattr(tree, "body", ()):
        kind = lock_kind_of(stmt.value) if isinstance(stmt, ast.Assign) else None
        if kind is not None:
            for target in stmt.targets:
                lock = canonical_lock(target, None, facts.module)
                if lock is not None:
                    facts.lock_kinds.setdefault(lock, kind)
    return facts


# -- propagation --------------------------------------------------------------


def propagate_effects(
    summaries: Mapping[str, FunctionFacts],
    edges: Mapping[str, list[tuple[str, str, int]]],
    *,
    seed_effects: Mapping[str, Mapping[str, EffectOrigin]] | None = None,
) -> dict[str, dict[str, EffectOrigin]]:
    """Transitive effect closure over the resolved call graph.

    ``edges[fid]`` lists ``(callee_fid, display_label, call_line)``.
    Components of the call graph are processed bottom-up (callees before
    callers, via :func:`repro.lint.callgraph.tarjan_scc`); within one
    strongly connected component — mutual recursion — a local fixpoint
    runs, which converges because an effect is only ever *added*. All
    iteration is in sorted order so the chain recorded for each
    ``(function, effect)`` pair — the first one discovered — is
    deterministic.
    """
    if seed_effects is None:
        effects: dict[str, dict[str, EffectOrigin]] = {
            fid: dict(summary.effects) for fid, summary in summaries.items()
        }
    else:
        effects = {
            fid: dict(seed_effects.get(fid, summary.effects))
            for fid, summary in summaries.items()
        }
    graph = {
        fid: [callee for callee, _label, _line in edges.get(fid, ())]
        for fid in summaries
    }
    for component in tarjan_scc(graph):
        changed = True
        while changed:
            changed = False
            for fid in component:
                if fid not in effects:
                    continue
                for callee, label, line in sorted(edges.get(fid, ())):
                    if callee == fid:
                        continue
                    for effect, origin in sorted(effects.get(callee, {}).items()):
                        if effect in effects[fid]:
                            continue
                        effects[fid][effect] = EffectOrigin(
                            effect,
                            origin.origin,
                            ((label, line), *origin.chain),
                        )
                        changed = True
    return effects


def resolve_returns(
    functions: Mapping[str, FunctionFacts],
    resolve: Callable[[str, str], str | None],
) -> dict[str, FunctionFacts]:
    """Resolve symbolic ``return_call`` references to concrete facts.

    ``resolve(fid, target)`` maps a symbolic target (seen from ``fid``'s
    file) to a project function id. Chains (``a`` returns ``b()`` returns
    ``c()``) are followed with memoization; cycles conservatively resolve
    to *unknown*. Returns resolved copies — the per-file records are
    never mutated.
    """
    resolved: dict[str, FunctionFacts] = {}
    in_progress: set[str] = set()

    def final(fid: str) -> FunctionFacts:
        if fid in resolved:
            return resolved[fid]
        fn = functions[fid]
        if fn.return_call is None or fid in in_progress:
            resolved[fid] = fn
            return fn
        in_progress.add(fid)
        try:
            callee_fid = resolve(fid, fn.return_call)
            if callee_fid is None or callee_fid not in functions:
                out = fn
            else:
                callee = final(callee_fid)
                origin = fn.return_origin or f"via `{callee.name}()`"
                if callee.return_origin:
                    origin = f"{origin} → {callee.return_origin}"
                out = replace(
                    fn,
                    return_unit=fn.return_unit or callee.return_unit,
                    return_ordered=callee.return_ordered,
                    return_origin=origin,
                    return_call=None,
                )
        finally:
            in_progress.discard(fid)
        resolved[fid] = out
        return out

    for fid in sorted(functions):
        final(fid)
    return resolved
