"""repro.lint.concurrency — phase 4: thread-safety & resource lifecycle.

PR 9 made the reproduction a long-lived multi-threaded service (``iris
serve``: acceptor + worker threads sharing a job table behind
``self._lock``), which is exactly the layer where a silent race or a
leaked socket costs the most. This module adds the fourth analysis phase
on top of the v3 callgraph/summaries engine, plus five rules:

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

**R016 blocking-under-lock.** A new ``blocking`` effect (socket
accept/recv/sendall, ``queue.put``/``get`` in blocking mode,
``Event.wait``, ``Thread.join``, ``time.sleep``, and the planner entry
points — a full solve *is* a block from a lock's perspective) is
extracted per function in :mod:`repro.lint.summaries` and closed
transitively like every other effect. Any call performed while a lockset
is non-empty that directly blocks, or reaches blocking code through the
call graph, is flagged with the full chain.

**R017 lock-order cycles.** Every lock acquisition visible while another
lock is held — directly nested ``with`` blocks, or a call whose callee
may transitively acquire — becomes an edge in the may-acquire-after
graph over canonical lock names. Any strongly connected component of
two or more locks is a potential deadlock, reported once with the
acquisition chain of each direction; a re-acquisition of a known
non-reentrant ``threading.Lock`` is a self-deadlock.

**R018 resource lifecycle.** Must-release analysis for sockets, streams,
file handles, and execution-backend pools: every acquisition bound to a
local must reach ``close()``/``terminate()``/``shutdown()`` (or a
``with``/``finally``) on all paths including exceptional ones, or escape
the function — returned, handed to another call, or stored on ``self``
with a class-level release. Acquisitions resolve interprocedurally: a
helper whose summary says it *returns* a resource makes its callers
owners.

**R019 thread discipline.** ``threading.Thread`` must be constructed
``daemon=``-explicit or joined, and ``.wait()`` calls inside ``while``
worker loops must carry a timeout so a SIGTERM drain cannot hang.

The per-function facts — acquisitions, ``self.*`` accesses and call
sites, each with the lockset held — come from the one own-scope walk of
:mod:`repro.lint.summaries`; the cross-file products (entry locksets,
the lock graph, resolved resource returns) are built per run by
:func:`build_concurrency` and exposed to rules as
``ctx.project.concurrency``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.lint.callgraph import function_id, split_function_id, tarjan_scc
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule
from repro.lint.summaries import (
    EffectOrigin,
    FileFacts,
    FunctionFacts,
    acquisition_kind_syntactic,
    blocking_call_violation,
    canonical_lock,
    chain_text,
    is_thread_ctor,
    propagate_effects,
)

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
    ``.concurrency``; the precomputed findings (``unguarded``,
    ``cycles``) are replayed by the R015/R017 rule bodies during normal
    per-file dispatch so suppression and ``--disable`` work unchanged.
    """

    #: Locks provably held at entry of every call site (must-analysis).
    entry_locks: dict[str, frozenset[str]] = field(default_factory=dict)
    #: path -> precomputed R015 findings: (line, col, message).
    unguarded: dict[str, list[tuple[int, int, str]]] = field(
        default_factory=dict
    )
    #: path -> precomputed R017 findings: (line, col, message).
    cycles: dict[str, list[tuple[int, int, str]]] = field(default_factory=dict)
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


def _lock_graph(
    files: Mapping[str, FileFacts],
    functions: Mapping[str, FunctionFacts],
    entry: Mapping[str, frozenset[str]],
    resolve: Callable[[str, str], str | None],
) -> list[tuple[str, str, str, int, str]]:
    """May-acquire-after edges: ``(outer, inner, path, line, chain text)``.

    Direct edges come from nested ``with`` blocks; transitive ones from a
    call made while a lock is held whose callee may acquire (closed
    bottom-up over the call graph with the same SCC machinery as the v3
    effect closure, so the chain each edge quotes is deterministic).
    """
    # Pseudo-effect closure: "acq:<lock>" propagates like any effect.
    seed: dict[str, dict[str, EffectOrigin]] = {fid: {} for fid in functions}
    edges_for_propagation: dict[str, list[tuple[str, str, int]]] = {}
    for path in sorted(files):
        for qualname, fn in sorted(files[path].functions.items()):
            fid = function_id(path, qualname)
            if fid not in seed:
                continue
            for lock, line in fn.acquires:
                seed[fid].setdefault(
                    f"acq:{lock}",
                    EffectOrigin(
                        f"acq:{lock}",
                        f"`{lock}` acquired at {path}:{line}",
                    ),
                )
            for target, label, line, locks in fn.calls:
                if locks is None:
                    continue
                callee = resolve(path, target)
                if callee is not None and callee in functions:
                    edges_for_propagation.setdefault(fid, []).append(
                        (callee, label, line)
                    )
    closure = propagate_effects(
        functions, edges_for_propagation, seed_effects=seed
    )

    graph_edges: list[tuple[str, str, str, int, str]] = []
    for path in sorted(files):
        for qualname, fn in sorted(files[path].functions.items()):
            fid = function_id(path, qualname)
            inherited = entry.get(fid, frozenset())
            for outer, inner, line in fn.nested:
                graph_edges.append(
                    (
                        outer,
                        inner,
                        path,
                        line,
                        f"`{inner}` acquired at {path}:{line} while "
                        f"holding `{outer}`",
                    )
                )
            for lock, line in fn.acquires:
                for outer in sorted(inherited):
                    graph_edges.append(
                        (
                            outer,
                            lock,
                            path,
                            line,
                            f"`{lock}` acquired at {path}:{line} in "
                            f"`{qualname}()` (entered holding `{outer}`)",
                        )
                    )
            for target, label, line, locks in fn.calls:
                if locks is None:
                    continue
                held = frozenset(locks) | inherited
                if not held:
                    continue
                callee = resolve(path, target)
                if callee is None:
                    continue
                for effect, origin in sorted(
                    closure.get(callee, {}).items()
                ):
                    if not effect.startswith("acq:"):
                        continue
                    inner = effect.removeprefix("acq:")
                    chained = EffectOrigin(
                        effect, origin.origin, ((label, line), *origin.chain)
                    )
                    for outer in sorted(held):
                        graph_edges.append(
                            (outer, inner, path, line, chain_text(chained))
                        )
    return graph_edges


def _cycle_findings(
    edges: Sequence[tuple[str, str, str, int, str]],
    lock_kinds: Mapping[str, str],
) -> dict[str, list[tuple[int, int, str]]]:
    """Precomputed R017 findings per path, one per cycle."""
    out: dict[str, list[tuple[int, int, str]]] = {}

    # Self-deadlock: re-acquiring a known non-reentrant lock.
    seen_self: set[tuple[str, str, int]] = set()
    for outer, inner, path, line, text in sorted(edges):
        if outer != inner or lock_kinds.get(inner) != "lock":
            continue
        key = (inner, path, line)
        if key in seen_self:
            continue
        seen_self.add(key)
        out.setdefault(path, []).append(
            (
                line,
                1,
                f"non-reentrant lock `{inner}` may be re-acquired while "
                f"already held ({text}); this deadlocks the thread — use "
                "an RLock or move the inner acquisition out",
            )
        )

    graph: dict[str, list[str]] = {}
    for outer, inner, _path, _line, _text in edges:
        graph.setdefault(outer, []).append(inner)
        graph.setdefault(inner, [])
    for component in tarjan_scc(graph):
        if len(component) < 2:
            continue
        members = set(component)
        # First edge per direction, by source position.
        first: dict[tuple[str, str], tuple[str, int, str]] = {}
        for outer, inner, path, line, text in sorted(
            edges, key=lambda e: (e[2], e[3], e[0], e[1])
        ):
            if outer in members and inner in members and outer != inner:
                first.setdefault((outer, inner), (path, line, text))
        if not first:
            continue
        directions = "; ".join(
            f"`{outer}` → `{inner}` ({text})"
            for (outer, inner), (_p, _l, text) in sorted(first.items())
        )
        locks = ", ".join(f"`{lock}`" for lock in sorted(members))
        home_path, home_line, _ = min(first.values())
        out.setdefault(home_path, []).append(
            (
                home_line,
                1,
                f"potential deadlock: lock acquisition order cycle among "
                f"{locks} — {directions}; pick one global acquisition "
                "order",
            )
        )
    return out


def build_concurrency(
    files: Mapping[str, FileFacts],
    functions: Mapping[str, FunctionFacts],
    resolve: Callable[[str, str], str | None],
) -> ConcurrencyContext:
    """The cross-file lockset/lifecycle products from per-file facts.

    ``resolve(path, symbolic_target)`` maps a symbolic call target seen
    from ``path`` to a project function id (the same resolution the
    effect closure uses).
    """
    lock_kinds: dict[str, str] = {}
    all_locks: set[str] = set()
    for path in sorted(files):
        facts = files[path]
        for lock, kind in facts.lock_kinds.items():
            lock_kinds.setdefault(lock, kind)
        all_locks.update(facts.lock_kinds)
        for fn in facts.functions.values():
            all_locks.update(lock for lock, _line in fn.acquires)

    entry = _entry_lock_fixpoint(files, resolve, frozenset(all_locks))
    return ConcurrencyContext(
        entry_locks=entry,
        unguarded=_guarded_findings(files, entry),
        cycles=_cycle_findings(
            _lock_graph(files, functions, entry, resolve), lock_kinds
        ),
        resources=_resolve_resources(files, resolve),
    )


# -- dispatch-time helpers -----------------------------------------------------


def _enclosing_class_name(ctx: FileContext, node: ast.AST) -> str | None:
    scope = ctx.scope_qualname(node)
    if scope is None:
        return None
    info = ctx.facts.functions.get(scope)
    return info.class_name if info is not None else None


def _held_locks(node: ast.AST, ctx: FileContext) -> list[tuple[str, int]]:
    """Locks held at ``node`` by lexically enclosing ``with`` blocks."""
    class_name = _enclosing_class_name(ctx, node)
    module = ctx.facts.module
    held: list[tuple[str, int]] = []
    prev: ast.AST = node
    current = ctx.parent(node)
    while current is not None:
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            break
        if isinstance(current, (ast.With, ast.AsyncWith)):
            items = current.items
            if isinstance(prev, ast.withitem) and prev in items:
                # Arrived from inside an item: only earlier items are held.
                items = items[: items.index(prev)]
            for item in items:
                lock = canonical_lock(item.context_expr, class_name, module)
                if lock is not None:
                    held.append((lock, current.lineno))
        prev = current
        current = ctx.parent(current)
    held.reverse()
    return held


# -- R016: blocking under lock -------------------------------------------------


@rule(
    "R016",
    title="no blocking calls under a lock",
    invariant=(
        "a thread holding a service lock never parks on the network, a "
        "queue, another thread, or a planner solve — blocking under a "
        "lock serializes the daemon and risks deadlock with the very "
        "threads that would unblock it"
    ),
    nodes=(ast.Call,),
)
def blocking_under_lock(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    held = _held_locks(node, ctx)
    if not held:
        return
    locks_text = ", ".join(
        f"`{lock}` (acquired at line {line})" for lock, line in held
    )
    direct = blocking_call_violation(node)
    if direct is not None:
        yield ctx.finding(
            node,
            "R016",
            f"`{direct}` may block while holding {locks_text}; move the "
            "blocking call outside the lock or use a non-blocking form",
        )
        return
    resolved = ctx.resolve_call(node)
    if resolved is None:
        return
    fid, label = resolved
    origin = ctx.project.effects_of(fid).get("blocking")
    if origin is None:
        return
    yield ctx.finding(
        node,
        "R016",
        f"call to `{label}()` reaches code that may block "
        f"({chain_text(origin)}) while holding {locks_text}; move the "
        "blocking work outside the lock",
    )


# -- R015 / R017: precomputed cross-file findings ------------------------------


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


@rule(
    "R017",
    title="lock acquisition order is acyclic",
    invariant=(
        "the may-acquire-after relation over all locks is a partial "
        "order — a cycle means two threads can each hold what the other "
        "waits for"
    ),
    nodes=(ast.Module,),
)
def lock_order(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    for line, col, message in ctx.project.concurrency.cycles.get(ctx.path, ()):
        yield Finding(ctx.path, line, col, "R017", message)


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


# -- R019: thread discipline ---------------------------------------------------


def _has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _joined_in(scope: ast.AST, var: str) -> bool:
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
        ):
            return True
    return False


def _is_self_attr(expr: ast.expr, attr: str) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == attr
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _attr_elements_joined(scope: ast.AST, attr: str) -> bool:
    """``for t in self.<attr>: t.join(...)`` (or over ``list(self.<attr>)``)."""
    for node in ast.walk(scope):
        if _attr_release_call(node, attr):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and _is_self_attr(node.func.value, attr)
        ):
            return True
        if not isinstance(node, ast.For):
            continue
        iterable = node.iter
        if isinstance(iterable, ast.Call) and iterable.args:
            iterable = iterable.args[0]
        if not _is_self_attr(iterable, attr):
            continue
        if isinstance(node.target, ast.Name) and _joined_in(node, node.target.id):
            return True
    return False


@rule(
    "R019",
    title="threads are daemon-or-joined; waits carry timeouts",
    invariant=(
        "every spawned thread has a shutdown story — marked daemon or "
        "joined — and no worker loop waits without a timeout, so a "
        "SIGTERM drain always terminates"
    ),
    nodes=(ast.Call,),
)
def thread_discipline(node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
    assert isinstance(node, ast.Call)
    if is_thread_ctor(node):
        yield from _thread_ctor_findings(node, ctx)
        return
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "wait"):
        return
    if node.args or _has_kwarg(node, "timeout"):
        return
    # Only waits inside a while loop (a worker loop) are a drain hazard.
    current = ctx.parent(node)
    in_while = False
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            break
        if isinstance(current, ast.While):
            in_while = True
            break
        current = ctx.parent(current)
    if not in_while:
        return
    yield ctx.finding(
        node,
        "R019",
        "`.wait()` without a timeout inside a worker loop can hang a "
        "SIGTERM drain forever; pass a timeout and re-check the loop "
        "condition",
    )


def _var_elements_joined(scope: ast.AST, var: str) -> bool:
    """``for t in threads: t.join(...)`` (or over ``list(threads)``)."""
    for node in ast.walk(scope):
        if not isinstance(node, ast.For):
            continue
        iterable = node.iter
        if isinstance(iterable, ast.Call) and iterable.args:
            iterable = iterable.args[0]
        if not (isinstance(iterable, ast.Name) and iterable.id == var):
            continue
        if isinstance(node.target, ast.Name) and _joined_in(
            node, node.target.id
        ):
            return True
    return False


def _thread_ctor_findings(
    node: ast.Call, ctx: FileContext
) -> Iterator[Finding]:
    if _has_kwarg(node, "daemon"):
        return  # an explicit daemon decision either way is a shutdown story
    parent = ctx.parent(node)
    enclosing: ast.AST | None = parent
    while enclosing is not None and not isinstance(
        enclosing, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        enclosing = ctx.parent(enclosing)
    scope: ast.AST | None = enclosing

    # The statement that binds the thread may be several levels up (the
    # ctor can sit inside a list comprehension or conditional expression).
    assign: ast.Assign | None = None
    current = ctx.parent(node)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        if isinstance(current, ast.Assign):
            assign = current
            break
        current = ctx.parent(current)

    if assign is not None and len(assign.targets) == 1:
        target = assign.targets[0]
        if isinstance(target, ast.Name):
            if scope is not None and (
                _joined_in(scope, target.id)
                or _var_elements_joined(scope, target.id)
            ):
                return
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            class_node = _enclosing_class(ctx, node)
            search: ast.AST | None = (
                class_node if class_node is not None else scope
            )
            if search is not None and _attr_elements_joined(
                search, target.attr
            ):
                return
    elif (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Attribute)
        and parent.func.attr == "append"
    ):
        receiver = parent.func.value
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            class_node = _enclosing_class(ctx, node)
            search = class_node if class_node is not None else scope
            if search is not None and _attr_elements_joined(
                search, receiver.attr
            ):
                return
        elif isinstance(receiver, ast.Name):
            if scope is not None and _var_elements_joined(
                scope, receiver.id
            ):
                return
    yield ctx.finding(
        node,
        "R019",
        "thread is neither daemon nor joined: a non-daemon thread that "
        "is never joined outlives shutdown and blocks interpreter exit; "
        "pass daemon=True or join it",
    )
