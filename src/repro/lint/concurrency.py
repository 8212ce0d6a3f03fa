"""repro.lint.concurrency — phase 4: thread-safety & resource lifecycle.

``iris serve`` made the reproduction a long-lived multi-threaded service
(acceptor + worker threads sharing a job table behind ``self._lock``),
which is exactly the layer where a silent race or a leaked socket costs
the most. This module adds the fourth analysis phase on top of the v3
callgraph/summaries engine, plus two rules:

**R015 guarded-by inference.** For every class that spawns
``threading.Thread``\\ s, infer which ``self._*`` attributes are
consistently accessed under a lock. The lockset analysis is over ``with
self._lock:`` blocks and is threaded *interprocedurally*: a private
helper called only while a lock is held inherits that lockset at entry
(a must-analysis fixpoint over all call sites), so ``_evict_jobs_locked``
style helpers count as guarded. Unguarded accesses to majority-guarded
attributes are flagged, with the guarded sites quoted; intentional
lock-free accesses are blessed per line with ``# repro:
guarded-by[lock]`` (tracked by ``--report-unused-noqa`` like any noqa).

**R018 resource lifecycle.** Must-release analysis for sockets, streams,
file handles, and execution-backend pools: every acquisition bound to a
local must reach ``close()``/``terminate()``/``shutdown()`` (or a
``with``/``finally``) on all paths including exceptional ones, or escape
the function — returned, handed to another call, or stored on ``self``
with a class-level release. Acquisitions resolve interprocedurally: a
helper whose summary says it *returns* a resource makes its callers
owners.

Blocking calls under a lock, lock-order cycles and threads that outlive
shutdown are not checked here (R016, R017 and R019 are retired ids):
the service's run-time stress and shutdown tests cover those classes.

The per-function facts — acquisitions, ``self.*`` accesses and call
sites, each with the lockset held — come from the one own-scope walk of
:mod:`repro.lint.summaries`; the cross-file products (entry locksets and
resolved resource returns) are built per run by :func:`build_concurrency`
and exposed to rules as ``ctx.project.concurrency``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.lint.callgraph import function_id, split_function_id
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule
from repro.lint.summaries import FileFacts, acquisition_kind_syntactic

__all__ = [
    "ConcurrencyContext",
    "build_concurrency",
]


# -- the cross-file build ------------------------------------------------------


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


@dataclass
class ConcurrencyContext:
    """Phase-4 product: the cross-file lockset and lifecycle facts.

    Attached to :class:`repro.lint.project.ProjectContext` as
    ``.concurrency``; the precomputed R015 findings (``unguarded``) are
    replayed by the rule body during normal per-file dispatch so
    suppression and ``--disable`` work unchanged.
    """

    #: path -> precomputed R015 findings: (line, col, message).
    unguarded: dict[str, list[tuple[int, int, str]]] = field(
        default_factory=dict
    )
    #: fid -> resource kind for functions that return a fresh resource.
    resources: dict[str, str] = field(default_factory=dict)


def _resolve_resources(
    files: Mapping[str, FileFacts],
    resolve: Callable[[str, str], str | None],
) -> dict[str, str]:
    """``fid -> resource kind`` with ``call:`` chains followed (memoized)."""
    raw: dict[str, str] = {}
    for path, facts in files.items():
        for qualname, fn in facts.functions.items():
            if fn.returns_resource is not None:
                raw[function_id(path, qualname)] = fn.returns_resource
    resolved: dict[str, str | None] = {}

    def final(fid: str, seen: frozenset[str]) -> str | None:
        if fid in resolved:
            return resolved[fid]
        if fid in seen:
            return None
        spec = raw.get(fid)
        out: str | None = None
        if spec is not None and spec.startswith("direct:"):
            out = spec.removeprefix("direct:")
        elif spec is not None and spec.startswith("call:"):
            path, _ = split_function_id(fid)
            callee = resolve(path, spec.removeprefix("call:"))
            if callee is not None:
                out = final(callee, seen | {fid})
        resolved[fid] = out
        return out

    return {
        fid: kind
        for fid in sorted(raw)
        if (kind := final(fid, frozenset())) is not None
    }


def _entry_lock_fixpoint(
    files: Mapping[str, FileFacts],
    resolve: Callable[[str, str], str | None],
    all_locks: frozenset[str],
) -> dict[str, frozenset[str]]:
    """Locks provably held at entry of every resolved call site.

    A must-analysis: ``entry[f] = ⋂ over call sites (local locks at the
    site ∪ entry[caller])``. Only private (``_name``) functions inherit —
    a public method is an external entry point and gets the empty set.
    Sets shrink monotonically from ⊤, so the fixpoint terminates.
    """
    call_sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    names: dict[str, str] = {}
    for path, facts in files.items():
        for qualname, fn in facts.functions.items():
            caller = function_id(path, qualname)
            names[caller] = fn.name
            for target, _label, _line, locks in fn.calls:
                if locks is None:
                    continue
                callee = resolve(path, target)
                if callee is not None:
                    call_sites.setdefault(callee, []).append(
                        (caller, frozenset(locks))
                    )
    entry: dict[str, frozenset[str]] = {}
    for fid, name in names.items():
        if _is_private(name) and call_sites.get(fid):
            entry[fid] = all_locks
        else:
            entry[fid] = frozenset()
    changed = True
    while changed:
        changed = False
        for fid in sorted(call_sites):
            if fid not in entry or not entry[fid]:
                continue
            if not _is_private(names.get(fid, "")):
                continue
            merged: frozenset[str] | None = None
            for caller, locks in call_sites[fid]:
                held = locks | entry.get(caller, frozenset())
                merged = held if merged is None else (merged & held)
            merged = merged if merged is not None else frozenset()
            if merged != entry[fid]:
                entry[fid] = merged
                changed = True
    return entry


def _lock_display(lock: str) -> str:
    """Short annotation form of a canonical lock (``_lock``)."""
    return lock.rsplit(".", 1)[-1]


def _guarded_findings(
    files: Mapping[str, FileFacts],
    entry: Mapping[str, frozenset[str]],
) -> dict[str, list[tuple[int, int, str]]]:
    """Precomputed R015 findings per path."""
    out: dict[str, list[tuple[int, int, str]]] = {}
    for path in sorted(files):
        functions = files[path].functions
        # Group methods by class; only thread-spawning classes qualify.
        classes: dict[str, list[str]] = {}
        for qualname in sorted(functions):
            if "." in qualname and "<locals>" not in qualname:
                classes.setdefault(qualname.rsplit(".", 1)[0], []).append(
                    qualname
                )
        for class_name in sorted(classes):
            members = classes[class_name]
            if not any(functions[q].spawns_thread for q in members):
                continue
            # attr -> [(line, col, effective locks)]
            sites: dict[str, list[tuple[int, int, frozenset[str]]]] = {}
            for qualname in members:
                inherited = entry.get(function_id(path, qualname), frozenset())
                for attr, line, col, locks, _kind in functions[qualname].accesses:
                    sites.setdefault(attr, []).append(
                        (line, col, frozenset(locks) | inherited)
                    )
            for attr in sorted(sites):
                accesses = sites[attr]
                counts: dict[str, int] = {}
                for _line, _col, locks in accesses:
                    for lock in locks:
                        counts[lock] = counts.get(lock, 0) + 1
                if not counts:
                    continue
                majority = min(
                    (lock for lock in counts),
                    key=lambda lock: (-counts[lock], lock),
                )
                guarded = counts[majority]
                total = len(accesses)
                if guarded < 2 or guarded * 2 <= total:
                    continue
                examples = sorted(
                    line
                    for line, _col, locks in accesses
                    if majority in locks
                )[:2]
                quoted = ", ".join(f"{path}:{line}" for line in examples)
                for line, col, locks in sorted(accesses):
                    if majority in locks:
                        continue
                    out.setdefault(path, []).append(
                        (
                            line,
                            col,
                            f"`self.{attr}` is accessed without holding "
                            f"`{majority}`, but {guarded} of {total} "
                            f"accesses in `{class_name}` hold it (e.g. "
                            f"{quoted}); `{class_name}` spawns threads — "
                            "guard this access, or bless it with "
                            "`# repro: guarded-by"
                            f"[{_lock_display(majority)}]` if it is safe",
                        )
                    )
    return out


def build_concurrency(
    files: Mapping[str, FileFacts],
    resolve: Callable[[str, str], str | None],
) -> ConcurrencyContext:
    """The cross-file lockset/lifecycle products from per-file facts.

    ``resolve(path, symbolic_target)`` maps a symbolic call target seen
    from ``path`` to a project function id (the same resolution the
    effect closure uses).
    """
    all_locks: set[str] = set()
    for facts in files.values():
        all_locks.update(facts.locks)
        for fn in facts.functions.values():
            all_locks.update(lock for lock, _line in fn.acquires)

    entry = _entry_lock_fixpoint(files, resolve, frozenset(all_locks))
    return ConcurrencyContext(
        unguarded=_guarded_findings(files, entry),
        resources=_resolve_resources(files, resolve),
    )


# -- R015: precomputed cross-file findings ------------------------------------


@rule(
    "R015",
    title="guarded-by consistency for thread-shared attributes",
    invariant=(
        "an attribute the class consistently protects with a lock is "
        "never read or written without it — one unguarded access is a "
        "data race against every guarded one"
    ),
    nodes=(ast.Module,),
)
def guarded_by(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    for line, col, message in ctx.project.concurrency.unguarded.get(ctx.path, ()):
        yield Finding(ctx.path, line, col, "R015", message)


# -- R018: resource lifecycle --------------------------------------------------

#: Method names that release an acquired resource.
_RELEASES = frozenset({"close", "terminate", "shutdown", "kill", "release"})


def _acquisition_kind(call: ast.Call, ctx: FileContext) -> str | None:
    """Resource kind a call acquires — syntactic or via resolved summary."""
    kind = acquisition_kind_syntactic(call)
    if kind is not None:
        return kind
    resolved = ctx.resolve_call(call)
    if resolved is None:
        return None
    return ctx.project.concurrency.resources.get(resolved[0])


def _own_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements of a function body, excluding nested function bodies.

    Expressions hold no statements, so only statements, except handlers
    and match cases are descended into.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.stmt):
            yield child
            yield from _own_statements(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _own_statements(child)


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _own_nodes(child)


def _is_release_call(node: ast.AST, var: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RELEASES
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == var
    )


def _subtree_releases(node: ast.AST, var: str) -> bool:
    return any(_is_release_call(child, var) for child in ast.walk(node))


def _attr_release_call(node: ast.AST, attr: str) -> bool:
    """``self.<attr>.close()``-shaped release."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RELEASES
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == attr
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "self"
    )


def _class_releases(class_node: ast.ClassDef, attr: str) -> bool:
    """Whether any method of the class releases ``self.<attr>``.

    Covers the direct form (``self._sock.close()``), the ``with
    self._sock:`` form, and the local-alias form the daemon uses
    (``listener = self._listener`` ... ``listener.close()``).
    """
    for node in ast.walk(class_node):
        if _attr_release_call(node, attr):
            return True
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and expr.attr == attr
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return True
    # Alias form, per method: `x = self.<attr>` then `x.close()`.
    for method in class_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases: list[str] = []
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == attr
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.append(target.id)
        for alias in aliases:
            if _subtree_releases(method, alias):
                return True
    return False


def _enclosing_class(ctx: FileContext, node: ast.AST) -> ast.ClassDef | None:
    current = ctx.parent(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current
        current = ctx.parent(current)
    return None


def _protecting_try(
    ctx: FileContext, node: ast.AST, var: str, stop: ast.AST
) -> bool:
    """Whether ``node`` sits inside a ``try`` that releases ``var`` on
    failure (an except handler or finally block containing the release)."""
    current = ctx.parent(node)
    while current is not None and current is not stop:
        if isinstance(current, ast.Try):
            for handler in current.handlers:
                if any(_subtree_releases(stmt, var) for stmt in handler.body):
                    return True
            if any(_subtree_releases(stmt, var) for stmt in current.finalbody):
                return True
        current = ctx.parent(current)
    return False


def _is_var_element(value: ast.expr | None, var: str) -> bool:
    if isinstance(value, ast.Name):
        return value.id == var
    if isinstance(value, (ast.Tuple, ast.List)):
        return any(
            isinstance(e, ast.Name) and e.id == var for e in value.elts
        )
    return False


def _name_escapes(node: ast.AST, var: str) -> bool:
    """Whether a statement transfers ownership of ``var`` elsewhere.

    Deliberately *direct*: returning the variable itself (or a tuple of
    it), passing it as a bare call argument, or re-binding it to another
    name. Merely *using* it — ``list(var.iter_chunks(...))`` — is not a
    transfer; the variable still owns the resource afterwards and must
    release it.
    """
    for child in ast.walk(node):
        if isinstance(child, (ast.Return, ast.Yield, ast.YieldFrom)):
            if _is_var_element(getattr(child, "value", None), var):
                return True
        if isinstance(child, ast.Call):
            for arg in [*child.args, *[k.value for k in child.keywords]]:
                # Bare-name or tuple-of-names argument: ownership moves
                # to the callee (``Thread(args=(conn,))`` hands the
                # accepted socket to the connection thread).
                if _is_var_element(arg, var):
                    return True
                if (
                    isinstance(arg, ast.Starred)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == var
                ):
                    return True
        if isinstance(child, ast.Assign) and _is_var_element(
            child.value, var
        ):
            return True
    return False


def _self_store_attr(node: ast.AST, var: str) -> str | None:
    """``self.X = var`` anywhere in ``node`` → ``X``."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Assign)
            and isinstance(child.value, ast.Name)
            and child.value.id == var
        ):
            for target in child.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return target.attr
    return None


def _acquired_local(stmt: ast.Assign, ctx: FileContext) -> tuple[str, str] | None:
    """``(var, kind)`` when an assignment binds a fresh resource locally."""
    if not isinstance(stmt.value, ast.Call) or len(stmt.targets) != 1:
        return None
    kind = _acquisition_kind(stmt.value, ctx)
    if kind is None:
        return None
    target = stmt.targets[0]
    if isinstance(target, ast.Name):
        return target.id, kind
    # `conn, addr = listener.accept()` — the first element owns the socket.
    if (
        isinstance(target, ast.Tuple)
        and kind == "socket"
        and target.elts
        and isinstance(target.elts[0], ast.Name)
    ):
        return target.elts[0].id, kind
    return None


def _self_assigned_resource(
    stmt: ast.Assign, ctx: FileContext
) -> tuple[str, str] | None:
    """``(attr, kind)`` when ``self.X = <acquisition>()``."""
    if not isinstance(stmt.value, ast.Call) or len(stmt.targets) != 1:
        return None
    kind = _acquisition_kind(stmt.value, ctx)
    if kind is None:
        return None
    target = stmt.targets[0]
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr, kind
    return None


@rule(
    "R018",
    title="resources released on every path",
    invariant=(
        "every socket, stream, file handle, and worker pool acquired "
        "reaches close()/terminate()/shutdown() on all paths — including "
        "exceptional ones — or escapes to an owner with a release"
    ),
    nodes=(ast.FunctionDef, ast.AsyncFunctionDef),
)
def resource_lifecycle(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    statements = list(_own_statements(node))
    for stmt in statements:
        if not isinstance(stmt, ast.Assign):
            continue
        self_stored = _self_assigned_resource(stmt, ctx)
        if self_stored is not None:
            attr, kind = self_stored
            class_node = _enclosing_class(ctx, node)
            if class_node is None or not _class_releases(class_node, attr):
                owner = class_node.name if class_node is not None else "owner"
                yield ctx.finding(
                    stmt,
                    "R018",
                    f"`self.{attr}` holds a {kind} but no method of "
                    f"`{owner}` releases it; add a close()/terminate() "
                    "path so shutdown does not leak it",
                )
            elif node.name == "__init__":
                yield from _init_leak_findings(node, ctx, stmt, attr, kind)
            continue
        acquired = _acquired_local(stmt, ctx)
        if acquired is None:
            continue
        var, kind = acquired
        yield from _local_lifecycle_findings(node, ctx, stmt, var, kind)


def _local_lifecycle_findings(
    func: ast.AST,
    ctx: FileContext,
    acq: ast.Assign,
    var: str,
    kind: str,
) -> Iterator[Finding]:
    releases: list[tuple[int, bool]] = []  # (line, covers all paths)
    for stmt in _own_statements(func):
        if stmt.lineno <= acq.lineno:
            continue
        for sub in ast.walk(stmt):
            if _is_release_call(sub, var):
                all_paths = _in_finally(ctx, stmt, func)
                releases.append((stmt.lineno, all_paths))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                managed = expr
                if isinstance(expr, ast.Call) and expr.args:
                    managed = expr.args[0]  # contextlib.closing(var)
                if isinstance(managed, ast.Name) and managed.id == var:
                    releases.append((stmt.lineno, True))

    escape_line: int | None = None
    stored_attr: str | None = None
    for stmt in _own_statements(func):
        if stmt.lineno < acq.lineno or stmt is acq:
            continue
        attr = _self_store_attr(stmt, var)
        if attr is not None:
            stored_attr = attr
            escape_line = min(escape_line or stmt.lineno, stmt.lineno)
            continue
        if _name_escapes(stmt, var):
            escape_line = min(escape_line or stmt.lineno, stmt.lineno)

    if any(all_paths for _line, all_paths in releases):
        return  # a finally/with covers every path

    end_line = min(
        [line for line, _all in releases] + ([escape_line] if escape_line else [])
        or [None],  # type: ignore[list-item]
        key=lambda v: v if v is not None else 1 << 30,
    )
    if end_line is None:
        yield ctx.finding(
            acq,
            "R018",
            f"{kind} `{var}` acquired here is never released on any "
            "path; close it in a finally block or use a with statement",
        )
        return

    risky = _risky_lines(ctx, func, acq, var, end_line)
    if risky:
        first = risky[0]
        target = (
            f"stored/escaped at line {escape_line}"
            if escape_line is not None and escape_line <= end_line
            else f"closed at line {end_line}"
        )
        yield ctx.finding(
            acq,
            "R018",
            f"{kind} `{var}` leaks if line {first} raises before it is "
            f"{target}; wrap the setup in try/except with a close, or "
            "release in a finally block",
        )
        return

    if stored_attr is not None and (
        not releases or escape_line < min(line for line, _all in releases)
    ):
        class_node = _enclosing_class(ctx, func)
        if class_node is None or not _class_releases(class_node, stored_attr):
            owner = class_node.name if class_node is not None else "owner"
            yield ctx.finding(
                acq,
                "R018",
                f"`self.{stored_attr}` takes ownership of {kind} `{var}` "
                f"but no method of `{owner}` releases it; add a "
                "close()/terminate() path",
            )


def _attr_protecting_try(
    ctx: FileContext, node: ast.AST, attr: str, stop: ast.AST
) -> bool:
    """Whether ``node`` sits inside a ``try`` whose handlers or finally
    release ``self.<attr>`` — i.e. failure there does not leak it."""
    current = ctx.parent(node)
    while current is not None and current is not stop:
        if isinstance(current, ast.Try):
            for handler in current.handlers:
                if any(
                    _attr_release_call(sub, attr)
                    for stmt in handler.body
                    for sub in ast.walk(stmt)
                ):
                    return True
            if any(
                _attr_release_call(sub, attr)
                for stmt in current.finalbody
                for sub in ast.walk(stmt)
            ):
                return True
        current = ctx.parent(current)
    return False


def _in_except_handler(ctx: FileContext, node: ast.AST, stop: ast.AST) -> bool:
    """Whether ``node`` lives in an except handler within ``stop``.

    Handler code only runs when the guarded body already raised, so a
    call there cannot be the *first* failure after a successful
    acquisition — it is never the leak site the ``__init__`` check hunts.
    """
    prev: ast.AST = node
    current = ctx.parent(node)
    while current is not None and current is not stop:
        if isinstance(current, ast.Try) and any(
            prev is handler for handler in current.handlers
        ):
            return True
        prev = current
        current = ctx.parent(current)
    return False


def _init_leak_findings(
    func: ast.AST,
    ctx: FileContext,
    acq: ast.Assign,
    attr: str,
    kind: str,
) -> Iterator[Finding]:
    """The half-open-constructor leak: ``self.<attr>`` holds a fresh
    resource, and a later ``__init__`` statement can raise — the caller
    never receives the instance, so the class's release path is dead and
    the resource leaks. (This is how a failed ``makefile()`` after a
    successful ``create_connection()`` strands the socket.)"""
    risky: list[int] = []
    for node in _own_nodes(func):
        if not isinstance(node, ast.Call) or node.lineno <= acq.lineno:
            continue
        if _attr_release_call(node, attr):
            continue
        if _in_except_handler(ctx, node, func):
            continue
        if _attr_protecting_try(ctx, node, attr, func):
            continue
        risky.append(node.lineno)
    if not risky:
        return
    yield ctx.finding(
        acq,
        "R018",
        f"`self.{attr}` takes ownership of a {kind}, but line "
        f"{min(risky)} can still raise inside __init__ — the caller "
        "never gets the instance, so close() is unreachable and the "
        f"{kind} leaks; wrap the rest of __init__ in try/except and "
        f"release `self.{attr}` on failure",
    )


def _in_finally(ctx: FileContext, stmt: ast.stmt, func: ast.AST) -> bool:
    """Whether ``stmt`` executes in a ``finally`` block within ``func``."""
    current: ast.AST | None = stmt
    while current is not None and current is not func:
        parent = ctx.parent(current)
        if isinstance(parent, ast.Try) and current in parent.finalbody:
            return True
        current = parent
    return False


def _risky_lines(
    ctx: FileContext,
    func: ast.AST,
    acq: ast.Assign,
    var: str,
    end_line: int,
) -> list[int]:
    """Raise-capable call lines between acquisition and release/escape
    that are not protected by a try releasing ``var`` on failure."""
    out: list[int] = []
    for node in _own_nodes(func):
        if not isinstance(node, ast.Call):
            continue
        if not (acq.lineno < node.lineno < end_line):
            continue
        if _is_release_call(node, var):
            continue
        if _in_except_handler(ctx, node, func):
            continue  # only reachable when an earlier line already raised
        if _protecting_try(ctx, node, var, func):
            continue
        out.append(node.lineno)
    return sorted(set(out))
